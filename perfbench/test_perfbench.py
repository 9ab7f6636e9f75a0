"""Tests of the benchmark itself, outside the repository's tier-1 suite.

    python3 -m pytest perfbench -q

They run every workload once untraced and once traced (about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import spans
import workloads
from workloads import WORKLOADS

SEED = 3


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    context = run.Context(tmp_path_factory.mktemp("work"))
    context.deadline += 3600  # shared by every test in this file, not one run
    return context


@pytest.fixture(scope="module")
def plans(ctx):
    return {name: build(SEED, ctx) for name, build in WORKLOADS.items()}


@pytest.fixture(scope="module")
def traced_pairs(ctx, plans, tmp_path_factory):
    """Per workload: (untraced result, traced result, span log) per invocation."""
    spans_dir = tmp_path_factory.mktemp("spans")
    out = {}
    for name, plan in plans.items():
        out[name] = []
        for i, inv in enumerate(plan.invocations):
            path = spans_dir / f"{name}-{i}.pkl"
            plain = ctx.run_cli(inv.args)
            traced = ctx.run_cli(inv.args, trace_out=path, label=str(i))
            out[name].append((plain, traced, spans.SpanLog.load(path)))
    return out


# -- self time ----------------------------------------------------------


def test_self_time_of_hand_built_tree():
    #  0 root [0, 10]
    #  1   a  [1, 4]      2 a's child [2, 3]
    #  3   b  [3.5, 6]    overlaps a
    #  4   c  [9, 12]     runs past the root's end
    starts = [0.0, 1.0, 2.0, 3.5, 9.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert spans.self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_wrapped_calls_nest_and_sum_per_layer(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "perf_counter", lambda: float(next(ticks)))
    log = spans.SpanLog()
    inner = log.wrap(lambda: None, "intpoly.mul")
    outer = log.wrap(lambda: (inner(), inner()), "enumerator.enumerate_candidates")
    outer()
    assert list(log.parent) == [-1, 0, 0]
    assert list(log.start) == [0.0, 1.0, 3.0] and list(log.end) == [5.0, 2.0, 4.0]
    summary = spans.summarize(log)["names"]
    assert summary["enumerator.enumerate_candidates"][:2] == [1, 3.0]
    assert summary["intpoly.mul"][:2] == [2, 2.0]
    metrics = spans.layer_metrics(spans.merge([spans.summarize(log)]), 1, 4, 10)
    assert metrics["intpoly.self_s"] == 2.0 and metrics["enumerator.self_s"] == 3.0
    assert metrics["enumerator.mul_per_candidate"] == 0.5


def test_times_are_scaled_by_the_reference_timing_before_each_call():
    nominal = run.reference.NOMINAL_S
    slow = {part: 2 * t for part, t in nominal.items()}  # the machine at half speed

    def call(wall, ref):
        return run.Call(wall, wall, wall, 50.0, 0, "", ref)

    rounds = [run.Round(False, [call(2.0, slow), call(2.0, nominal)]),
              run.Round(False, [call(3.0, slow), call(1.0, nominal)]),
              run.Round(False, [call(4.0, slow), call(1.0, nominal)])]
    plan = workloads.Plan("x", 0, "items", [workloads.Invocation([], 10, None)] * 2,
                          reference=("bigint_s",))
    metrics = run.end_to_end(plan, rounds, 0.3)
    assert metrics["wall_s"] == pytest.approx(3.0) and metrics["cpu_s"] == pytest.approx(3.0)
    assert metrics["items_per_s"] == pytest.approx(20 / 3.0)
    assert metrics["peak_rss_mb"] == 50.0 and metrics["setup_s"] == 0.3
    raw = run.end_to_end(plan, rounds, 0.3, scaled=False)
    assert raw["wall_s"] == pytest.approx(4.0) and raw["items_per_s"] == pytest.approx(5.0)


# -- workload generation -------------------------------------------------


def _inputs(plan, ctx):
    """The plan's arguments, with the work directory abstracted, and its files."""
    args = [[a.replace(str(ctx.workdir), "<work>") for a in inv.args] for inv in plan.invocations]
    files = {p.name: p.read_bytes() for p in sorted(ctx.workdir.glob("*.txt"))
             if p.name != "stderr.txt"}
    return args, files, plan.sizes


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic(name, tmp_path):
    seen = []
    for seed in (SEED, SEED, SEED + 1, SEED + 2, SEED + 3):
        ctx = run.Context(tmp_path / f"w{len(seen)}")
        ctx.workdir.mkdir()
        seen.append(_inputs(WORKLOADS[name](seed, ctx), ctx))
    assert seen[0] == seen[1]
    assert any(other != seen[0] for other in seen[2:])


# -- traced and untraced runs --------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_stdout_identical(name, plans, traced_pairs):
    for inv, (plain, traced, log) in zip(plans[name].invocations, traced_pairs[name]):
        assert plain.returncode == 0 and traced.returncode == 0
        assert plain.stdout == traced.stdout
        assert inv.check(plain.stdout).error is None
        assert len(log.name_id) > 0


def _self_by_name(name, traced_pairs):
    merged = spans.merge(spans.summarize(log) for _, _, log in traced_pairs[name])
    return {fn: entry[1] for fn, entry in merged["names"].items()}


def test_attribution_matches_profile(traced_pairs):
    deep = _self_by_name("verify-deep", traced_pairs)
    arithmetic = deep.pop("intpoly.mul") + deep.pop("intpoly.pow")
    assert arithmetic > max(deep.values())
    cyclo = _self_by_name("cyclo-large", traced_pairs)
    assert max(cyclo, key=cyclo.get) == "intpoly.exact_div"


# -- failures are counted ------------------------------------------------


def _flip(out: bytes, old: bytes, new: bytes, occurrence: int = 0) -> bytes:
    at = -1
    for _ in range(occurrence + 1):
        at = out.index(old, at + 1)
    return out[:at] + new + out[at + len(old):]


CORRUPTIONS = {
    "verify-deep": [lambda o: _flip(o, b"\ttrue", b"\tfalse", 3),
                    lambda o: o.rsplit(b"\n", 2)[0] + b"\n"],
    "verify-wide-json": [lambda o: _flip(o, b'"coeffs": [', b'"coeffs": [1, ', 5),
                         lambda o: _flip(o, b"true", b"false", 7),
                         lambda o: o[:-2]],
    "cyclo-large": [lambda o: _flip(o, b" ", b" 1", 0),
                    lambda o: _flip(o, b" ", b" 0 ", 0)],
    "bounds-file": [lambda o: _flip(o, b"\ttrue\n", b"\tfalse\n", 2),
                    lambda o: _flip(o, b"\tfalse\n", b"\ttrue\n", 0),
                    lambda o: _flip(o, b"\t", b"\t1", 10)],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_fails_its_check(name, plans, traced_pairs):
    inv = plans[name].invocations[0]
    out = traced_pairs[name][0][0].stdout
    for corrupt in CORRUPTIONS[name]:
        assert run.safe_check(inv.check, corrupt(out)).error is not None


class CorruptingContext(run.Context):
    """Runs the real CLI, then damages one byte of what it printed."""

    def run_cli(self, args, trace_out=None, label=""):
        res = super().run_cli(args, trace_out, label)
        return replace(res, stdout=res.stdout.replace(b"true", b"fals", 1))


def test_corrupted_output_counts_as_failed(tmp_path):
    ctx = CorruptingContext(tmp_path)
    plan = workloads.verify_deep(SEED, ctx)
    small = workloads.check_verify_tsv(workloads.grid_cells(2, 13, [1]))
    plan.invocations = [workloads.Invocation(
        ["verify", "--gmax", "2", "--pmax", "13", "--n", "1"], 1, small)]
    rounds = run.measure(ctx, plan, seconds=0, trace=False)
    assert [len(r.failures) for r in rounds] == [1]
    assert run.measure(run.Context(tmp_path), plan, 0, False)[0].failures == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cyclo-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
