"""A fixed reference task, timed next to the CLI to gauge machine speed.

    python3 reference.py     prints {"interp_s": ..., "bigint_s": ...}

On a shared machine the speed a process gets changes by a third or more
over tens of seconds, as neighbours come and go.  The benchmark runs this
task before every untraced CLI invocation and scales its times by
``NOMINAL_S`` over the median time the task took in the run (see
``run.py``).  The task uses nothing from weilparity, so a
change to the program cannot move it.  It has two parts, each timed on
its own:

* ``interp``: schoolbook products of small integer polynomials held in
  frozen dataclasses, interpreter-bound work;
* ``bigint``: long division of integers of a million bits, as the packed
  paths of the cyclo workload do.

The verify and bounds workloads mix both kinds of work, and their time
drifts like the sum of the two parts; cyclo's drifts like ``bigint``.
On a five-minute trace in which the machine's speed drifted by 45%,
scaling by the matching parts cut the spread of 20-second medians from
0.26 to 0.06 (verify) and from 0.12 to 0.05 (cyclo).
"""

import json
import time
from dataclasses import dataclass

INTERP_ROUNDS = 6000
BIGINT_ROUNDS = 1
# Seconds each part takes on an unloaded Intel Xeon (2 vCPUs) with
# CPython 3.11.7: scaled times read as seconds on that machine.
NOMINAL_S = {"interp_s": 0.13, "bigint_s": 0.14}


@dataclass(frozen=True)
class Poly:
    coeffs: tuple


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def interp() -> int:
    factors = [Poly(tuple((k * 7919 + j * 104729) % 20011 - 10005 for j in range(5)))
               for k in range(16)]
    total = 0
    for r in range(INTERP_ROUNDS):
        prod = Poly((1,))
        for p in factors[r % 12:r % 12 + 4]:
            prod = Poly(_mul(prod.coeffs, p.coeffs))
        total += len(prod.coeffs) + (prod.coeffs[0] & 1)
    return total


def bigint() -> int:
    num = 3 ** 360000
    den = 7 ** 130000
    total = 0
    for _ in range(BIGINT_ROUNDS):
        q, r = divmod(num, den)
        total += q.bit_length() + r.bit_length()
    return total


def scale(sample: dict, parts) -> float:
    """Nominal over measured time of these parts of one timing of the task:
    a time multiplied by it reads at reference speed."""
    return sum(NOMINAL_S[p] for p in parts) / sum(sample[p] for p in parts)


def measure() -> dict:
    """Time each part of the task once."""
    times = {}
    for name, task in (("interp_s", interp), ("bigint_s", bigint)):
        began = time.perf_counter()
        task()
        times[name] = time.perf_counter() - began
    return times


def main() -> None:
    print(json.dumps(measure()))


if __name__ == "__main__":
    main()
