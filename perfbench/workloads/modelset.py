"""Cut-and-project enumeration: ``enumerate_model_set`` over wide spans, then the
gap histogram, ``check_convexity`` on a contiguous sample, ``reconstruct_window``
on the conjugates, and a display phase (exact sort of the conjugates and
``decimal_str`` of every point).  ``closure_bfs`` is never called.

Every round runs one job in each of five rings with closed, half-open and
rational windows.  The seed places each window (always of length 2, so the
point density is fixed) and a span of fixed length around 0, so each round
enumerates different points at the same cost.  Windows contain [0, 1] and spans contain 0 and 1, which
``reconstruct_window`` needs.
"""

from __future__ import annotations

import random

from harness import Op
from workloads.common import box_scan
from qcx import (
    Interval,
    PointSet,
    QuadRat,
    characterizing_params,
    check_convexity,
    enumerate_model_set,
    gap_histogram,
    reconstruct_window,
    ring_make,
)

ITEM = "an enumerated point"

# (ring, window kind, span length, tiny span length)
SHAPES = (
    ((1, 1), "closed", 600, 40),
    ((2, 1), "half-open", 600, 40),
    ((3, 1), "rational", 700, 40),
    ((4, -1), "rational-half-open", 700, 40),
    ((7, -1), "closed", 1200, 60),
)
SAMPLE = 60        # points in the check_convexity sample: SAMPLE*(SAMPLE-1) pairs
TINY_SAMPLE = 12
BOX = 8            # length of the sub-range compared against a brute-force box scan


def _window(ring, kind: str, rng: random.Random) -> Interval:
    """A window [-u, 2 - u] (or [-u, 2 - u)) with 0 < u < 1: it contains
    [0, 1] and always has length 2, so the point density does not vary."""
    if kind.startswith("rational"):
        q = rng.choice((3, 5, 7))
        u = QuadRat(ring.element(rng.randint(1, q - 1)), q)
    else:
        # a ring-integer endpoint: 1/beta or 1 - 1/beta, both in (0, 1)
        u = QuadRat(rng.choice((ring.inv_beta, 1 - ring.inv_beta)))
    return Interval(-u, 2 - u, True, not kind.endswith("half-open"))


def warm_up() -> None:
    rng = random.Random(0)
    for key, kind, _, _ in SHAPES:
        ring = ring_make(*key)
        window = _window(ring, kind, rng)
        ps = enumerate_model_set(ring, window, Interval.closed(-20, 20, ring))
        gap_histogram(ps)
        check_convexity(PointSet(ring, ps.points[:3], Interval.closed(ps.points[0], ps.points[2])),
                        characterizing_params(ring).params[0], window)
        conj = ps.conj_values()
        reconstruct_window(conj)
        sorted(conj)
        ps.points[0].decimal_str()


def _run_job(lib, ring, window, span, s, u, n):
    ps = lib.call("modelset.enumerate_model_set", enumerate_model_set, ring, window, span,
                  work=lambda ps: {"points": len(ps)})
    hist = lib.call("modelset.gap_histogram", gap_histogram, ps)
    start = int(u * (len(ps) - n))
    sub = ps.points[start:start + n]
    sample = PointSet(ring, sub, Interval.closed(sub[0], sub[-1]))
    report = lib.call("modelset.check_convexity", check_convexity, sample, s, window,
                      work=lambda rep: {"pairs": rep.pairs_checked})
    conj = ps.conj_values()
    rec = lib.call("modelset.reconstruct_window", reconstruct_window, conj)
    with lib.span("quadring.sort", work={"points": len(conj)}):
        ordered = sorted(conj)
    with lib.span("quadring.decimal_str", calls=len(ps)):
        text = [p.decimal_str() for p in ps.points]
    return ps, hist, report, rec, ordered, text


class Workload:
    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.rings = {}

    def make_round(self, r: int) -> list[Op]:
        rng = random.Random(f"modelset/{self.seed}/{r}")
        ops = []
        for key, kind, length, tiny_length in SHAPES:
            ring = self.rings.setdefault(key, ring_make(*key))
            length = tiny_length if self.tiny else length
            n = TINY_SAMPLE if self.tiny else SAMPLE
            window = _window(ring, kind, rng)
            left = rng.randint(length // 4, 3 * length // 4)
            span = Interval.closed(-left, length - left, ring)
            params = characterizing_params(ring).params
            s = params[rng.randrange(len(params))]
            x0 = rng.randint(-left, length - left - BOX)
            ops.append(Op(
                run=lambda lib, ring=ring, w=window, sp=span, s=s, n=n, u=rng.random():
                    _run_job(lib, ring, w, sp, s, u, n),
                check=lambda res, w=window, sp=span, x0=x0, n=n: self._check(res, w, sp, x0, n),
                count=lambda res: len(res[0]),
                label=f"{key} {kind} window {window} span {span}",
            ))
        return ops

    def _check(self, res, window, span, x0, n):
        ps, hist, report, rec, ordered, text = res
        pts = ps.points
        values = [float(p) for p in pts]
        if any(b <= a for a, b in zip(values, values[1:])):
            return "points are not strictly ascending"
        for p in pts:
            if not (span.contains(p) and window.contains(p.conj())):
                return f"point {p} fails its window or span"
        if len(hist) > 3:
            return f"{len(hist)} distinct gaps, a model set has at most three"
        if sum(k for _, k in hist) != len(pts) - 1:
            return "gap histogram does not account for every gap"
        if report.violations or report.pairs_checked != n * (n - 1):
            return (f"check_convexity: {len(report.violations)} violations in "
                    f"{report.pairs_checked} pairs, expected 0 in {n * (n - 1)}")
        sub = Interval.closed(x0, x0 + BOX, ps.ring)
        got = sorted((p.a, p.b) for p, v in zip(pts, values)
                     if x0 - 1 <= v <= x0 + BOX + 1 and sub.contains(p))
        if got != box_scan(ps.ring, window, x0, x0 + BOX):
            return f"sub-range [{x0}, {x0 + BOX}] differs from the brute-force box scan"
        if not (window.contains(rec.hull.lo) and window.contains(rec.hull.hi)):
            return "reconstructed hull leaves the window"
        conj_f = [float(c) for c in ordered]
        if len(ordered) != len(pts) or any(b <= a for a, b in zip(conj_f, conj_f[1:])):
            return "sorted conjugates are not strictly ascending"
        if any(abs(float(t) - v) > 1e-3 for t, v in zip(text, values)) or len(text) != len(pts):
            return "decimal rendering disagrees with the point value"
        return None
