"""Input generators and brute-force references shared by the workloads.

They use only ring arithmetic and the exact interval test, never the code
paths the workloads measure (expansion, enumeration, witnesses).
"""

from __future__ import annotations

import random
from math import sqrt

from qcx import Interval


def random_admissible(ring, length: int, rng: random.Random) -> list[int]:
    """A random admissible digit string of exactly ``length`` digits, built
    digit by digit under the Parry condition (plus family: the top digit m is
    followed by 0; minus family: no m-1 after m-1 with only m-2 between)."""
    m, top = ring.m, ring.digit_max
    while True:
        digits, blocked = [], False
        for _ in range(length):
            if ring.eps == 1:
                d = 0 if blocked else rng.randint(0, top)
                blocked = d == m
            else:
                d = rng.randint(0, top - 1 if blocked else top)
                blocked = d == m - 1 or (blocked and d == m - 2)
            digits.append(d)
        if digits[-1]:
            return digits


def fraction_value(ring, digits) -> object:
    """sum d_k / beta^k for k = 1.."""
    value, power = ring.zero, ring.one
    for d in digits:
        power = power * ring.inv_beta
        value = value + d * power
    return value


def admissible_count(ring, length: int) -> int:
    """Number of admissible strings of exactly ``length`` digits (zeros
    included), by a two-state count over the Parry condition."""
    m, top = ring.m, ring.digit_max
    free, blocked = 1, 0
    for _ in range(length):
        if ring.eps == 1:
            # from free: m -> blocked, others -> free; from blocked: only 0
            free, blocked = free * top + blocked, free
        else:
            # from free: m-1 -> blocked, others -> free; from blocked: m-1 is
            # excluded, m-2 stays blocked, the rest -> free
            free, blocked = free * top + blocked * (top - 1), free + blocked
    return free + blocked


def box_scan(ring, window: Interval, lo: int, hi: int) -> list[tuple[int, int]]:
    """All x in [lo, hi] with conj(x) in ``window``, as sorted (a, b) pairs,
    by testing every pair in a box that provably contains them."""
    span = Interval.closed(lo, hi, ring)
    root = sqrt(ring.disc)
    w = max(abs(float(window.lo)), abs(float(window.hi))) + 1
    # x - conj(x) = b*sqrt(D), so b is bounded by the span and window ends
    found = []
    for b in range(int((lo - w) / root) - 2, int((hi + w) / root) + 3):
        a0 = int(lo - b * ring.beta_float) - 2
        for a in range(a0, a0 + hi - lo + 5):
            x = ring.element(a, b)
            if span.contains(x) and window.contains(x.conj()):
                found.append((a, b))
    return sorted(found)
