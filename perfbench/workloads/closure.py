"""Bulk s-convex closures: ``closure_bfs`` jobs, each followed by a gap histogram
and, for single-parameter forcing jobs, the divisibility filter on every point.

Every round runs the same seven job shapes (the golden ring with s = -beta at
depths 7 and 6, the characterizing parameters of (3,+) and (5,-) at depth 4,
and one forcing parameter in each forcing ring at depth 5).  The seed varies
what does not change the work: the seed pair {c, c+1} is translated by a ring
element c, and s may be replaced by 1 - s (the closure of a pair under s and
under 1 - s is the same set).  The point count of each shape is fixed, so a
table of counts is part of the oracle.
"""

from __future__ import annotations

import random

from harness import Op
from qcx import (
    Divisibility,
    Interval,
    ParamSet,
    characterizing_params,
    closure_bfs,
    divisibility_filter,
    gap_histogram,
    ring_make,
)

ITEM = "a closure point"

# (ring, parameter family, depth, tiny-run depth)
SHAPES = (
    ((1, 1), "neg_beta", 7, 4),
    ((1, 1), "neg_beta", 6, 3),
    ((3, 1), "char", 4, 2),
    ((5, -1), "char", 4, 2),
    ((1, 1), "forcing", 5, 3),
    ((2, 1), "forcing", 5, 3),
    ((4, -1), "forcing", 5, 3),
)

# Closure sizes of {0, 1} (or any translate) per (ring, family, depth).  The
# golden-ring entry at depth 6 is the 2058 of the README.
POINTS = {
    ((1, 1), "neg_beta", 3): 32, ((1, 1), "neg_beta", 4): 120,
    ((1, 1), "neg_beta", 6): 2058, ((1, 1), "neg_beta", 7): 8808,
    ((3, 1), "char", 2): 36, ((3, 1), "char", 4): 5718,
    ((5, -1), "char", 2): 42, ((5, -1), "char", 4): 11396,
    ((1, 1), "forcing", 3): 32, ((1, 1), "forcing", 5): 488,
    ((2, 1), "forcing", 3): 48, ((2, 1), "forcing", 5): 1260,
    ((4, -1), "forcing", 3): 56, ((4, -1), "forcing", 5): 2356,
}


def _params(ring, family: str, flip: bool):
    """The job's parameters; ``flip`` swaps each s for 1 - s."""
    if family == "neg_beta":
        s = ring.element(0, -1)
        return 1 - s if flip else s
    if family == "char":
        ps = characterizing_params(ring)
        return ParamSet(ring, tuple(1 - p for p in ps.params)) if flip else ps
    # a forcing pair: window-side 1/beta or 1 - 1/beta, which is also the divisor
    return 1 - ring.inv_beta if flip else ring.inv_beta


def warm_up() -> None:
    for (m, eps), family, _, _ in SHAPES:
        ring = ring_make(m, eps)
        params = _params(ring, family, False)
        ps = closure_bfs([ring.zero, ring.one], params, 2)
        gap_histogram(ps)
        if family == "forcing":
            divisibility_filter(ps.points[-1], params)


def _run_job(lib, seeds, params, depth, c, forcing):
    ps = lib.call("convexity.closure_bfs", closure_bfs, seeds, params, depth,
                  work=lambda ps: {"points": len(ps)})
    hist = lib.call("modelset.gap_histogram", gap_histogram, ps)
    verdicts = None
    if forcing:
        with lib.span("convexity.divisibility_filter", calls=len(ps)):
            verdicts = [divisibility_filter(y - c, params) for y in ps.points]
    return ps, hist, verdicts


class Workload:
    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.rings = {}
        self.reference: dict[int, tuple] = {}

    def make_round(self, r: int) -> list[Op]:
        rng = random.Random(f"closure/{self.seed}/{r}")
        ops = []
        for j, (key, family, depth, tiny_depth) in enumerate(SHAPES):
            ring = self.rings.setdefault(key, ring_make(*key))
            depth = tiny_depth if self.tiny else depth
            c = ring.element(rng.randint(-20, 20), rng.randint(-20, 20))
            params = _params(ring, family, rng.random() < 0.5)
            forcing = family == "forcing"
            seeds = [c, c + 1]
            want = POINTS[(key, family, depth)]
            ops.append(Op(
                run=lambda lib, s=seeds, p=params, d=depth, c=c, f=forcing:
                    _run_job(lib, s, p, d, c, f),
                check=lambda res, j=j, c=c, f=forcing, want=want: self._check(j, res, c, f, want),
                count=lambda res: len(res[0]),
                label=f"{key} {family} depth {depth}",
            ))
        return ops

    def _check(self, j, res, c, forcing, want):
        ps, hist, verdicts = res
        if len(ps) != want:
            return f"{len(ps)} points, expected {want}"
        rel = tuple((z.a - c.a, z.b - c.b) for z in ps.points)
        if verdicts is not None and Divisibility.NEITHER in verdicts:
            return "a single-parameter closure point got the verdict Neither"
        ref = self.reference.get(j)
        if ref is None:
            # First result of this shape: the full exact window test.  Forcing
            # jobs iterate a parameter in [0, 1], so the points stay in
            # [c, c+1]; the others iterate parameters whose conjugates lie in
            # [0, 1], so the conjugates stay in [c', c'+1].
            if forcing:
                hull = Interval.closed(c, c + 1)
                bad = [z for z in ps.points if not hull.contains(z)]
            else:
                hull = Interval.closed(c.conj(), c.conj() + 1)
                bad = [z for z in ps.points if not hull.contains(z.conj())]
            if bad:
                return f"{len(bad)} points fail the exact window test, e.g. {bad[0]}"
            self.reference[j] = (rel, [(g.a, g.b, n) for g, n in hist])
            return None
        # Later rounds: the same set, translated.
        if rel != ref[0]:
            return "points differ from the translated reference closure"
        if [(g.a, g.b, n) for g, n in hist] != ref[1]:
            return "gap histogram differs from the reference"
        return None
