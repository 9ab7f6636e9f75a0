"""One weilparity CLI invocation in its own process.

    python3 child.py [--trace-out SPANS] [--invocation ID] -- <cli arguments>

Without ``--trace-out`` this is exactly the ``weilparity`` console
script.  With it, the layer modules are wrapped before the CLI runs and
the recorded spans are written to SPANS when the CLI returns.  The
package is found through ``PYTHONPATH``, which the benchmark points at
the checkout's ``src``.
"""

import importlib
import sys


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    opts = dict(zip(options[::2], options[1::2]))
    trace_out = opts.get("--trace-out")
    if trace_out is None:
        return importlib.import_module("weilparity.cli").run(cli_args)

    import spans

    log = spans.install(opts.get("--invocation", ""))
    try:
        return importlib.import_module("weilparity.cli").run(cli_args)
    finally:
        spans.finish(log)
        log.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
