"""Replay every ``GOLDEN`` entry of ``test_cli`` through other interpreters.

Usage::

    python3 tests/golden_replay.py PYTHON [PYTHON ...]

Run it with an interpreter that has the test dependencies (``test_cli``
imports pytest and hypothesis); each PYTHON only runs the command line,
so it needs nothing but the standard library.  Each entry runs as
``PYTHON -S -m weilparity.cli ARGV --format FMT`` (:func:`run_child`) with
``PYTHONPATH`` set to this checkout's ``src`` and the ``GOLDEN_FILES`` in a
temporary directory, and its stdout's sha256 and exit code must be the
recorded ones.  ``-S`` skips ``site``, whose ``.pth`` hooks may import modules the
package does not, so each entry takes the import path of a clean
install.  One line per interpreter gives its count; the exit code is 1
if any entry differs.  pytest does not collect this file; ``test_cli``
replays a sample of the entries through :func:`replay`, and help and
usage errors through :func:`run_child`, under each installed interpreter.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
sys.path[:0] = [str(TESTS), str(SRC)]

from test_cli import GOLDEN, GOLDEN_FILES  # noqa: E402


def run_child(python: str, files: Path, argv) -> subprocess.CompletedProcess:
    """``argv`` run by ``PYTHON -S -m weilparity.cli`` in ``files``, "@name" read as a path there.

    The child runs in a fresh interpreter with its stdout and stderr on
    pipes, as the command line runs in a shell pipeline; both are bytes.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [str(files / a[1:]) if a.startswith("@") else a for a in argv]
    return subprocess.run([python, "-S", "-m", "weilparity.cli", *args],
                          env=env, capture_output=True, cwd=files)


def replay(python: str, files: Path, entries=GOLDEN) -> list[str]:
    """The ``entries`` (keys of ``GOLDEN``) whose digest or exit code differ under ``python``.

    Each differing entry is named with its exit code and stderr.
    """
    failed = []
    for argv, fmt in entries:
        done = run_child(python, files, [*argv, "--format", fmt])
        if (hashlib.sha256(done.stdout).hexdigest(), done.returncode) != GOLDEN[argv, fmt]:
            failed.append(f"{' '.join(argv)} --format {fmt}: exit {done.returncode}, "
                          f"stderr {done.stderr.decode(errors='replace')!r}")
    return failed


def main(pythons: list[str]) -> int:
    if not pythons:
        print("usage: golden_replay.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp)
        for name, text in GOLDEN_FILES.items():
            (files / name).write_text(text)
        for python in pythons:
            failed = replay(python, files)
            version = subprocess.run([python, "--version"], capture_output=True, text=True)
            print(f"{python} ({version.stdout.strip()}): "
                  f"{len(GOLDEN) - len(failed)}/{len(GOLDEN)} entries match")
            for entry in failed:
                print(f"  differs: {entry}")
            ok = ok and not failed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
