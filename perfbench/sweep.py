"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                               [--out FILE] [--expect FILE]

Each (seed, workload) pair is one ``run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``; seeds are the outer loop, so every
workload's runs are spread over the whole sweep.  For each metric the
summary gives the median and quartiles over seeds and the spread, the
distance between the quartiles as a share of the median.  With
``--trace 0`` each spread is compared with a third of the metric's bound.
The stdout digests of every (workload, seed) go into ``--out``; with
``--expect``, they must equal those of an earlier summary for the seeds
both cover.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--expect", type=Path)
    args = parser.parse_args(argv)
    expected = json.loads(args.expect.read_text())["digests"] if args.expect else {}
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    digests: dict[str, dict[str, list[str]]] = {w: {} for w in workloads}
    failed = 0
    for seed in seed_list(args.seeds):
        for workload in workloads:
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            record = run.OUT / "results" / f"{workload}-seed{seed}-trace{args.trace}.json"
            got = [c["digest"] for c in json.loads(record.read_text())["rounds"][0]["calls"]]
            digests[workload][str(seed)] = got
            want = expected.get(workload, {}).get(str(seed), got)
            if want != got:
                failed += 1
            print(f"seed {seed} {workload}: failed {result['failed']}/{result['attempted']}"
                  f"{'' if want == got else ', stdout differs from --expect'}", flush=True)

    summary = {w: {name: summarize(v) for name, v in metrics.items()}
               for w, metrics in values.items()}
    steady = True
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            bound = bounds.get(name) if not args.trace else None
            mark = ""
            if bound is not None and name != "setup_s":
                ok = s["spread"] < bound / 3
                steady &= ok
                mark = "ok" if ok else f"SPREAD OVER {bound / 3:.3f}"
            print(f"{workload:18s} {name:48s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.3f} {mark}")
    if args.out:
        record = {
            "environment": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "cpu_model": run.cpu_model(),
                "commit": run.commit(),
                "source_sha256": run.source_digest(),
                "seeds": args.seeds,
                "run_seconds": BENCHMARK["run_seconds"],
                "trace": args.trace,
            },
            "failed": failed,
            "workloads": summary,
            "digests": digests,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
