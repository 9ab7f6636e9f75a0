"""The benchmark's four workloads: inputs made from a seed, and the cheap
oracles that check every CLI output.

A workload is a fixed list of CLI invocations (one *round*).  The seed
picks the inputs, but only among inputs of about the same cost, so that
runs with different seeds measure about the same amount of work:

* ``verify-deep``: the n pair always has the same sum, so coefficient
  sizes summed over the grid stay the same;
* ``verify-wide-json``: likewise;
* ``cyclo-large``: two squarefree n with phi(n) and n in narrow ranges,
  and two fixed prime powers in seed-chosen places.  The few prime
  powers p**k (k >= 3) in [32768, 78125] differ in cost by up to four
  times and in degree by up to four times, so a seed choice among them
  would make runs incomparable;
* ``bounds-file``: q = p**n stays within a factor of three.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable


@dataclass
class Checked:
    """Verdict on one CLI output; ``error`` is None when it is correct."""

    error: str | None
    cells: int = 0
    candidates: int = 0


@dataclass
class Invocation:
    args: list[str]  # CLI arguments
    items: int  # work items, in the plan's unit
    check: Callable[[bytes], Checked]


@dataclass
class Plan:
    workload: str
    seed: int
    item_unit: str
    invocations: list[Invocation]
    sizes: dict = field(default_factory=dict)
    # The parts of reference.py whose time drifts most like this work's.
    reference: tuple[str, ...] = ("interp_s", "bigint_s")

    @property
    def items(self) -> int:
        return sum(inv.items for inv in self.invocations)


# -- small arithmetic, independent of the program under test -------------


def smallest_factors(limit: int) -> list[int]:
    """spf[k] is the smallest prime factor of k, for 2 <= k <= limit."""
    spf = list(range(limit + 1))
    for d in range(2, int(limit ** 0.5) + 1):
        if spf[d] == d:
            for m in range(d * d, limit + 1, d):
                if spf[m] == m:
                    spf[m] = d
    return spf


def factor(k: int, spf: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    while k > 1:
        p = spf[k]
        out[p] = out.get(p, 0) + 1
        k //= p
    return out


def primes_upto(limit: int) -> list[int]:
    spf = smallest_factors(limit)
    return [k for k in range(2, limit + 1) if spf[k] == k]


def phi(k: int, spf: list[int]) -> int:
    out = 1
    for p, e in factor(k, spf).items():
        out *= p ** (e - 1) * (p - 1)
    return out


# -- verify ----------------------------------------------------------------

DEEP_GMAX = 10
DEEP_PMAX = 40
DEEP_N_PAIRS = ((1, 9), (3, 7))
WIDE_GMAX = 5
WIDE_PMAX = 600
WIDE_N_PAIRS = ((1, 7), (3, 5))

_VERIFY_HEADER = "g\tp\tn\ttotal_candidates\todd_candidates\thalf_degree_specs\tok"


def grid_cells(gmax: int, pmax: int, ns: list[int]) -> list[tuple[int, int, int]]:
    """The (g, p, n) cells of ``verify`` in its documented order."""
    primes = primes_upto(pmax)
    return [(g, p, n) for g in range(1, gmax + 1) for p in primes if p > 2 * g + 1 for n in ns]


def check_verify_tsv(cells: list[tuple[int, int, int]]) -> Callable[[bytes], Checked]:
    """Every cell present in order, ``ok`` true, no odd candidate, no
    half-degree spec, and one candidate count per g (for p > 2g+1 the
    candidates do not depend on p or n)."""

    def check(out: bytes) -> Checked:
        lines = out.decode().split("\n")
        if lines[-1] != "" or lines[0] != _VERIFY_HEADER:
            return Checked("bad header or missing final newline")
        rows = lines[1:-1]
        if len(rows) != len(cells):
            return Checked(f"{len(rows)} rows for {len(cells)} cells")
        per_g: dict[int, str] = {}
        total = 0
        for row, cell in zip(rows, cells):
            f = row.split("\t")
            if len(f) != 7 or f[:3] != [str(x) for x in cell]:
                return Checked(f"row {row!r} is not cell {cell}")
            if f[4] != "0" or f[5] != "0" or f[6] != "true":
                return Checked(f"cell {cell} fails: {row!r}")
            if per_g.setdefault(cell[0], f[3]) != f[3]:
                return Checked(f"cell {cell} has {f[3]} candidates, not {per_g[cell[0]]}")
            total += int(f[3])
        return Checked(None, cells=len(cells), candidates=total)

    return check


def check_verify_json(cells: list[tuple[int, int, int]]) -> Callable[[bytes], Checked]:
    """Every cell present in order with no odd candidate and no half-degree
    spec; every candidate monic of degree 2g, even, with |constant| = q**g."""

    def check(out: bytes) -> Checked:
        try:
            data = json.loads(out)
        except ValueError as exc:
            return Checked(f"not JSON: {exc}")
        if not isinstance(data, list) or len(data) != len(cells):
            return Checked("wrong number of cells")
        total = 0
        for report, (g, p, n) in zip(data, cells):
            if (report["g"], report["p"], report["n"]) != (g, p, n):
                return Checked(f"report {report['g'], report['p'], report['n']} is not {g, p, n}")
            cands = report["candidates"]
            if report["odd_candidates"] or report["half_degree_specs"]:
                return Checked(f"cell {g, p, n} reports a violation")
            if report["total_candidates"] != len(cands) or not cands:
                return Checked(f"cell {g, p, n} candidate count mismatch")
            qg = p ** (n * g)
            for cand in cands:
                c = cand["coeffs"]
                if (len(c) != 2 * g + 1 or c[-1] != 1 or any(c[1::2])
                        or abs(c[0]) != qg or cand["even"] is not True):
                    return Checked(f"cell {g, p, n}: bad candidate {c}")
            total += len(cands)
        return Checked(None, cells=len(cells), candidates=total)

    return check


def _verify_plan(name, seed, gmax, pmax, pairs, structured) -> Plan:
    rng = random.Random(seed)
    ns = list(rng.choice(pairs))
    rng.shuffle(ns)
    cells = grid_cells(gmax, pmax, ns)
    args = ["verify", "--gmax", str(gmax), "--pmax", str(pmax)]
    for n in ns:
        args += ["--n", str(n)]
    if structured:
        args += ["--format", "structured"]
    check = (check_verify_json if structured else check_verify_tsv)(cells)
    return Plan(name, seed, "cells", [Invocation(args, len(cells), check)],
                {"gmax": gmax, "pmax": pmax, "n": ns, "cells": len(cells)})


def verify_deep(seed: int, ctx) -> Plan:
    return _verify_plan("verify-deep", seed, DEEP_GMAX, DEEP_PMAX, DEEP_N_PAIRS, False)


def verify_wide_json(seed: int, ctx) -> Plan:
    return _verify_plan("verify-wide-json", seed, WIDE_GMAX, WIDE_PMAX, WIDE_N_PAIRS, True)


# -- cyclo -------------------------------------------------------------------

SQUAREFREE_RANGE = (30000, 34000)
SQUAREFREE_PHI = (9000, 12000)
PRIME_POWERS = (3 ** 10, 5 ** 7)


def check_cyclo(n: int, degree: int, value_at_one: int) -> Callable[[bytes], Checked]:
    """Monic, palindromic, of degree phi(n), and Phi_n(1) as expected."""

    def check(out: bytes) -> Checked:
        try:
            c = [int(tok) for tok in out.split()]
        except ValueError:
            return Checked(f"cyclo {n}: not integers")
        if len(c) != degree + 1 or c[-1] != 1:
            return Checked(f"cyclo {n}: not monic of degree {degree}")
        if c != c[::-1]:
            return Checked(f"cyclo {n}: not palindromic")
        if sum(c) != value_at_one:
            return Checked(f"cyclo {n}: value {sum(c)} at 1, not {value_at_one}")
        return Checked(None)

    return check


def cyclo_large(seed: int, ctx) -> Plan:
    rng = random.Random(seed)
    lo, hi = SQUAREFREE_RANGE
    spf = smallest_factors(max(hi, *PRIME_POWERS))
    pool = []
    for k in range(lo, hi + 1):
        f = factor(k, spf)
        if (len(f) >= 4 and all(e == 1 for e in f.values())
                and SQUAREFREE_PHI[0] <= phi(k, spf) <= SQUAREFREE_PHI[1]):
            pool.append(k)
    ns = rng.sample(pool, 2) + list(PRIME_POWERS)
    rng.shuffle(ns)
    invocations = []
    for n in ns:
        f = factor(n, spf)
        value = next(iter(f)) if len(f) == 1 else 1
        degree = phi(n, spf)
        invocations.append(Invocation(["cyclo", str(n)], degree, check_cyclo(n, degree, value)))
    return Plan("cyclo-large", seed, "coefficients", invocations, {"n": ns, "pool": len(pool)},
                reference=("bigint_s",))


# -- bounds ------------------------------------------------------------------

BOUNDS_G = 10
BOUNDS_LINES = 15000
BOUNDS_PERTURBED = 1 / 8
BOUNDS_Q_RANGE = (10 ** 4, 3 * 10 ** 4)

_BOUNDS_HEADER = "g\tp\tn\ta_values\tsymmetric\tlemma_a1\tarchimedean\tvaluation"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def q_symmetric(c: list[int], g: int, q: int) -> bool:
    return all(c[g - j] == q ** j * c[g + j] for j in range(1, g + 1))


def check_bounds(g, p, n, polys, perturbed) -> Callable[[bytes], Checked]:
    """One row per polynomial with its a_k values.  Unperturbed lines pass
    the lemma A.1, archimedean and valuation checks.  Perturbed lines fail
    the valuation check; their other flags, and ``symmetric`` on every
    line, match a direct evaluation."""
    q = p ** n
    prefix = f"{g}\t{p}\t{n}\t"

    def check(out: bytes) -> Checked:
        lines = out.decode().split("\n")
        if lines[0] != _BOUNDS_HEADER or lines[-1] != "":
            return Checked("bad header or missing final newline")
        rows = lines[1:-1]
        if len(rows) != len(polys):
            return Checked(f"{len(rows)} rows for {len(polys)} polynomials")
        for i, (row, c, bad) in enumerate(zip(rows, polys, perturbed)):
            a = [c[2 * g - k] for k in range(1, g + 1)]
            sym = _bool(q_symmetric(c, g, q))
            if bad:
                lemma = _bool(all(p <= comb(2 * g, k) ** 2
                                  for k in range(1, g + 1, 2) if a[k - 1]))
                arch = _bool(all(a[k - 1] ** 2 <= comb(2 * g, k) ** 2 * q ** k
                                 for k in range(1, g + 1)))
                tail = f"{lemma}\t{arch}\tfalse"
            else:
                tail = "true\ttrue\ttrue"
            if row != f"{prefix}{' '.join(map(str, a))}\t{sym}\t{tail}":
                return Checked(f"line {i + 1}: unexpected row {row!r}")
        return Checked(None)

    return check


def bounds_file(seed: int, ctx) -> Plan:
    rng = random.Random(seed)
    g = BOUNDS_G
    n = rng.choice((1, 3))
    lo, hi = BOUNDS_Q_RANGE
    p = rng.choice([p for p in primes_upto(round(hi ** (1 / n)) + 1)
                    if p > 2 * g + 1 and lo <= p ** n <= hi])
    res = ctx.run_cli(["enumerate", "--g", str(g), "--p", str(p), "--n", str(n)])
    if res.returncode != 0:
        raise RuntimeError(f"enumerate exited with {res.returncode}")
    rows = res.stdout.decode().split("\n")[1:-1]
    candidates = [[int(tok) for tok in row.split("\t")[3].split()] for row in rows]
    polys, perturbed = [], []
    for _ in range(BOUNDS_LINES):
        c = list(rng.choice(candidates))
        bad = rng.random() < BOUNDS_PERTURBED
        if bad:
            # a_k is divisible by p**ceil(nk/2) >= p, so a_k + 1 is not.
            c[2 * g - rng.randint(1, g)] += 1
        polys.append(c)
        perturbed.append(bad)
    path = Path(ctx.workdir) / "polys.txt"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# enumerate --g {g} --p {p} --n {n}, seed {seed}\n")
        handle.writelines(" ".join(map(str, c)) + "\n" for c in polys)
    args = ["bounds", "--g", str(g), "--p", str(p), "--n", str(n), "--file", str(path)]
    inv = Invocation(args, len(polys), check_bounds(g, p, n, polys, perturbed))
    return Plan("bounds-file", seed, "polynomials", [inv],
                {"g": g, "p": p, "n": n, "lines": len(polys),
                 "distinct": len(candidates), "perturbed": sum(perturbed)})


WORKLOADS = {
    "verify-deep": verify_deep,
    "verify-wide-json": verify_wide_json,
    "cyclo-large": cyclo_large,
    "bounds-file": bounds_file,
}
