"""Seeded request lists for the three workloads.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has completed.  Each list is built from cost
clusters, groups of inputs whose requests cost about the same, with a fixed
count per cluster.  The seed draws the inputs inside each cluster and the
order of the list.  Fixed counts mean the median and the tail percentile
(rank N - 10 of N sorted latencies) land at the same place in the same
cluster on every seed, never on a boundary between two clusters, where the
value would flip between their costs.  NOTES.md records where each
percentile falls.

Counts are set for NOMINAL_SECONDS of requests on the reference host and
scaled with --seconds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

NOMINAL_SECONDS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    served: bool  # True: one long-lived process; False: a fresh process per request
    warmup: tuple[str, ...]  # untimed request answered during set-up (served only)
    requests: tuple[tuple[str, ...], ...]


def _scaled(count: int, seconds: float) -> int:
    return max(1, round(count * seconds / NOMINAL_SECONDS))


def _t_arg(rng: random.Random, degree: int) -> str:
    """A rational T of the given degree whose coefficients are nonzero and share one
    sign.  The order-q diagonal of the triangular system is linear in T; for
    q >= 4 it depends on T(0) alone, and for q = 3 every monomial of degree
    <= 2 gives a positive entry (checked for n = 2..24, q = 3..9).  So such a
    T never makes the system singular, and no request fails.

    Written as ``--t=<list>``: ``--t -1/2`` is rejected by argparse, which
    reads a leading '-' as an option (exit 2).
    """
    sign = rng.choice((1, -1))
    coeffs = [
        sign * Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for _ in range(degree + 1)
    ]
    return "--t=" + ",".join(str(c) for c in coeffs)


# (cluster, count at NOMINAL_SECONDS, (s, n) pairs of about equal cost).
# Requests cycle through a cluster's pairs and then through T degrees 0..2,
# which change the cost too, so every seed has the same mix of pairs and
# degrees; only T's coefficients and the order vary.
CERTIFY_CLUSTERS = (
    ("c55ms", 40, ((4, 10), (6, 6), (5, 8), (3, 14))),
    ("c150ms", 60, ((5, 12), (6, 10), (7, 8))),
    ("c360ms", 20, ((7, 12), (6, 14))),
    ("c1.5s", 3, ((6, 24), (7, 22), (8, 20), (9, 18))),
)


def _certify(rng: random.Random, seconds: float) -> list[tuple[str, ...]]:
    out = []
    for _, count, pairs in CERTIFY_CLUSTERS:
        for i in range(_scaled(count, seconds)):
            s, n = pairs[i % len(pairs)]
            degree = i // len(pairs) % 3
            out.append(("approx", "--s", str(s), "--n", str(n), _t_arg(rng, degree), "--digits", "12"))
    return out


VERIFY_TRIALS = 6
VERIFY_DEGREES = [1, 1, 2, 2, 3, 3]
# (cluster, count at NOMINAL_SECONDS, S)
VERIFY_CLUSTERS = (("v5", 180, 5), ("v7", 350, 7), ("v9", 20, 9))


def _verify_degrees(seed: int, trials: int) -> list[int]:
    """Trial degrees that `zetarat verify --seed seed` will draw.

    Mirrors the draw order cmd_verify documents: per trial, the degree n in
    1..3, then 3 * (n + 1) coefficients in -3..3.
    """
    rng = random.Random(seed)
    degrees = []
    for _ in range(trials):
        n = rng.randint(1, 3)
        degrees.append(n)
        for _ in range(3 * (n + 1)):
            rng.randint(-3, 3)
    return degrees


def _verify_seed(rng: random.Random) -> int:
    """A verify seed whose trials have exactly the degrees VERIFY_DEGREES, so
    requests of one S cost about the same."""
    while True:
        seed = rng.randrange(2**31)
        if sorted(_verify_degrees(seed, VERIFY_TRIALS)) == VERIFY_DEGREES:
            return seed


def _verify(rng: random.Random, seconds: float) -> list[tuple[str, ...]]:
    out = []
    for _, count, s in VERIFY_CLUSTERS:
        for _ in range(_scaled(count, seconds)):
            out.append((
                "verify", "--s", str(s), "--trials", str(VERIFY_TRIALS),
                "--seed", str(_verify_seed(rng)),
            ))
    return out


# (cluster, count at NOMINAL_SECONDS, digits range).  The dominant cost is
# zeta_reference at the power-of-two working precision next_pow2(d + 40 + L),
# L <= 14 the digit count of alpha's numerator for s <= 5, n <= 8.
DIGITS_CLUSTERS = (
    ("w64", 16, (4, 10)),
    ("w128", 20, (24, 72)),
    ("w256", 16, (90, 200)),
)


def _digits(rng: random.Random, seconds: float) -> list[tuple[str, ...]]:
    out = []
    for _, count, (lo, hi) in DIGITS_CLUSTERS:
        for _ in range(_scaled(count, seconds)):
            out.append((
                "digits", "--s", str(rng.randint(3, 5)), "--n", str(rng.randint(2, 8)),
                "--digits", str(rng.randint(lo, hi)),
            ))
    return out


WORKLOADS = {
    "certify": (True, ("approx", "--s", "3", "--n", "6", "--t=1", "--digits", "12"), _certify),
    "verify": (True, ("verify", "--s", "9", "--trials", "6", "--seed", "0"), _verify),
    "digits": (False, (), _digits),
}


def build(name: str, seed: int, seconds: float) -> Workload:
    served, warmup, make = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    requests = make(rng, seconds)
    rng.shuffle(requests)
    return Workload(name=name, served=served, warmup=warmup, requests=tuple(requests))
