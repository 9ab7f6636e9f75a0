"""Benchmark of the weilparity CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the ``weilparity`` command line of this checkout (``src/``) in child
processes, one at a time: a closed loop with a single client.  The seed
makes the workload's inputs (see ``workloads.py``); the CLI sees only the
generated arguments and files.  One round is the workload's list of
invocations; rounds repeat until the next one would end after
``--seconds``.  Every output is checked, and a failed check, a nonzero
exit or a timeout counts as a failed invocation.

``--trace 0`` reports the end-to-end metrics, each the median over
rounds: ``wall_s``, ``cpu_s`` and ``first_byte_s`` summed over a round's
invocations, ``peak_rss_mb`` of the largest child, ``items_per_s`` (work
items of the round per second of its wall time), and ``setup_s``, the
median time to make the inputs over several set-ups in this process.
``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics
of ``spans.py`` plus the tracing overhead.

Times are reported at reference speed.  Just before every untraced
invocation the run times the fixed task of ``reference.py``, which uses
nothing from the program, and multiplies the invocation's times by the
task's nominal time over the time it just took (the set-up, by the task
timed in this process before and after it).  On a shared machine the
speed a process gets drifts by a third or more within seconds to
minutes; this scaling removes much of that drift while leaving any
change in the program's own cost in full.  The raw figures are in the
record.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record of the run,
with its environment, is written under ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

import reference
import spans
from spawn import ChildResult, run_child
from workloads import WORKLOADS, Checked, Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# gone into it, so that even a set-up of microseconds has a steady median.
SETUP_REPEATS = 5
SETUP_SECONDS = 0.5
SETUP_MAX_REPEATS = 1000
# Children still running this long after start are killed, so that a run
# ends within three minutes whatever the program does.
HARD_LIMIT_S = 150.0
REFERENCE_LIMIT_S = 30.0  # the reference task takes well under a second

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "first_byte_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Context:
    """Where a run works, and how it starts a CLI child."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = time.perf_counter() + HARD_LIMIT_S
        self.stderr_path = workdir / "stderr.txt"

    def run_cli(self, args: list[str], trace_out: Path | None = None,
                label: str = "") -> ChildResult:
        argv = [sys.executable, str(HERE / "child.py")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out), "--invocation", label]
        argv += ["--", *args]
        timeout = max(self.deadline - time.perf_counter(), 0.0)
        return run_child(argv, self.env, timeout, self.stderr_path)

    def run_reference(self) -> dict:
        argv = [sys.executable, str(HERE / "reference.py")]
        res = run_child(argv, self.env, REFERENCE_LIMIT_S, self.stderr_path)
        if res.returncode != 0:
            raise RuntimeError(f"reference task failed: {self.stderr_tail()}")
        return json.loads(res.stdout)

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-300:].strip()


@dataclass
class Call:
    """One CLI invocation as measured from outside."""

    wall_s: float
    cpu_s: float
    first_byte_s: float
    peak_rss_mb: float
    output_bytes: int
    digest: str
    reference: dict | None  # reference.py timings taken just before, untraced rounds only


@dataclass
class Round:
    traced: bool
    calls: list[Call] = field(default_factory=list)
    cells: int = 0
    candidates: int = 0
    failures: list[str] = field(default_factory=list)
    duration_s: float = 0.0  # including the checks
    summary: dict | None = None  # merged span summary, traced rounds only

    def total(self, key: str, parts: tuple[str, ...] | None = None) -> float:
        """Sum of ``key`` over the calls; with ``parts``, each call's value
        is first scaled to reference speed by the reference timing taken
        just before it."""
        return sum(getattr(c, key) * (reference.scale(c.reference, parts) if parts else 1.0)
                   for c in self.calls)


def safe_check(plan_check, out: bytes) -> Checked:
    try:
        return plan_check(out)
    except Exception as exc:  # a malformed output may break any parsing step
        return Checked(f"output not understood: {type(exc).__name__}: {exc}")


def run_round(ctx: Context, plan: Plan, index: int, traced: bool,
              checked_outputs: dict[int, tuple[str, Checked]]) -> Round:
    """Run every invocation of the plan once.

    An output equal to one already checked in this run is not checked
    again; ``checked_outputs`` holds, per invocation, the first digest that
    passed its check.
    """
    began = time.perf_counter()
    rnd = Round(traced)
    summaries = []
    for i, inv in enumerate(plan.invocations):
        ref = None if traced else ctx.run_reference()
        trace_out = ctx.workdir / f"spans-{i}.pkl" if traced else None
        res = ctx.run_cli(inv.args, trace_out, f"{index}.{i}")
        digest = hashlib.sha256(res.stdout).hexdigest()
        rnd.calls.append(Call(res.wall_s, res.cpu_s, res.first_byte_s, res.peak_rss_mb,
                              len(res.stdout), digest, ref))
        if res.timed_out:
            error = "timed out"
        elif res.returncode != 0:
            error = f"exit code {res.returncode}: {ctx.stderr_tail()}"
        elif i in checked_outputs and checked_outputs[i][0] == digest:
            checked = checked_outputs[i][1]
            error = None
        else:
            checked = safe_check(inv.check, res.stdout)
            error = checked.error
            if error is None and i in checked_outputs:
                error = "stdout differs from an earlier round"
            elif error is None:
                checked_outputs[i] = (digest, checked)
        if error is None:
            rnd.cells += checked.cells
            rnd.candidates += checked.candidates
        else:
            rnd.failures.append(f"round {index} {' '.join(inv.args)}: {error}")
        if traced and error is None:
            summaries.append(spans.summarize(spans.SpanLog.load(trace_out)))
        if trace_out is not None and trace_out.exists():
            trace_out.unlink()
    if traced:
        rnd.summary = spans.merge(summaries)
    rnd.duration_s = time.perf_counter() - began
    return rnd


def measure(ctx: Context, plan: Plan, seconds: float, trace: bool) -> list[Round]:
    """Rounds until the next would end after ``seconds``; with ``trace``,
    untraced and traced rounds alternate and each kind runs at least once."""
    rounds: list[Round] = []
    checked_outputs: dict[int, tuple[str, Checked]] = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(ctx, plan, len(rounds), traced, checked_outputs))
        elapsed = time.perf_counter() - start
        upcoming = max(r.duration_s for r in rounds[-2:])
        if len(rounds) >= (2 if trace else 1) and elapsed + upcoming > seconds:
            break
        if time.perf_counter() >= ctx.deadline:
            break
    return rounds


def end_to_end(plan: Plan, rounds: list[Round], setup_s: float, scaled: bool = True) -> dict:
    """The end-to-end metrics; with ``scaled``, every time is read at
    reference speed."""
    timed = [r for r in rounds if not r.traced]
    parts = plan.reference if scaled else None
    return {
        "wall_s": median(r.total("wall_s", parts) for r in timed),
        "cpu_s": median(r.total("cpu_s", parts) for r in timed),
        "first_byte_s": median(r.total("first_byte_s", parts) for r in timed),
        "items_per_s": median(plan.items / r.total("wall_s", parts) for r in timed),
        "peak_rss_mb": median(max(c.peak_rss_mb for c in r.calls) for r in timed),
        "setup_s": setup_s,
    }


def per_layer(rounds: list[Round]) -> dict:
    traced = [r for r in rounds if r.traced and not r.failures]
    untraced = [r for r in rounds if not r.traced]
    if not traced:
        return {name: 0.0 for name in spans.PER_LAYER}
    out = spans.median_metrics([
        spans.layer_metrics(r.summary, r.cells, r.candidates, r.total("output_bytes"))
        for r in traced
    ])
    out["trace.untraced_wall_s"] = median(r.total("wall_s") for r in untraced)
    out["trace.traced_wall_s"] = median(r.total("wall_s") for r in traced)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; do not look above it
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, plan: Plan) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": plan.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": plan.sizes,
        "items": plan.items,
        "item_unit": plan.item_unit,
        "invocations": [inv.args for inv in plan.invocations],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the weilparity CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "weilparity" / "cli.py").is_file():
        print(f"error: no weilparity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return benchmark(args, Context(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def benchmark(args, ctx: Context) -> int:
    # Compile the package's bytecode once, untimed, as an installed copy would have it.
    warm = ctx.run_cli(["--help"])
    if warm.returncode != 0:
        print(f"error: the CLI does not start: {ctx.stderr_tail()}", file=sys.stderr)
        return 1

    # The set-up runs in this process, so it is scaled by the reference
    # task timed here, before and after it.
    setup_refs = [reference.measure()]
    setup_times = []
    while len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS):
        began = time.perf_counter()
        plan = WORKLOADS[args.workload](args.seed, ctx)
        setup_times.append(time.perf_counter() - began)
    setup_refs.append(reference.measure())
    setup_raw = median(setup_times)
    setup_s = setup_raw * median(reference.scale(r, tuple(r)) for r in setup_refs)

    rounds = measure(ctx, plan, args.seconds, bool(args.trace))
    failures = [f for r in rounds for f in r.failures]
    attempted = len(rounds) * len(plan.invocations)
    metrics = per_layer(rounds) if args.trace else end_to_end(plan, rounds, setup_s)
    units = ({k: u for k, (u, _) in spans.PER_LAYER.items()} if args.trace
             else END_TO_END_UNITS)

    env = environment(args, plan)
    record = {
        "environment": env,
        "result": {"correct": not failures, "attempted": attempted, "failed": len(failures)},
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "setup_repeats": len(setup_times),
        "setup_times_s": sorted(setup_times)[:: max(1, len(setup_times) // 20)],
        "rounds": [{k: v for k, v in asdict(r).items() if k != "summary"} for r in rounds],
        "metrics": metrics,
        "raw_metrics": None if args.trace else end_to_end(plan, rounds, setup_raw, False),
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {plan.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(plan.invocations)} invocation(s), {plan.items} {plan.item_unit} per round")
    print(f"# python {env['python']}, nproc {env['nproc']}, {env['cpu_model']}, "
          f"commit {env['commit']}, sizes {json.dumps(plan.sizes)}")
    print(f"# error_rate {record['error_rate']:.4f} ({len(failures)}/{attempted})")
    for failure in failures[:10]:
        print(f"# FAILED {failure}")
    if not args.trace:
        print(f"# times at reference speed ({'+'.join(plan.reference)} of reference.py)")
    for name, value in metrics.items():
        raw = record["raw_metrics"]
        print(f"# {name} {value:.6g} {units[name]}"
              + (f" (raw {raw[name]:.6g})" if raw and raw[name] != value else ""))
    print(f"# record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        **record["result"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
