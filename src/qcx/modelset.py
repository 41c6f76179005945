"""Cut-and-project point sets for Z[beta] and their combinatorial structure.

A window Omega (a bounded interval) selects the model set

    Sigma(Omega) = { x in Z[beta] : conj(x) in Omega },

an aperiodic, uniformly discrete, relatively dense subset of the line.  This
module enumerates such sets exactly over a bounded range, measures their gap
structure, checks closedness under two-point convex combinations, and
reconstructs the window interval from a finite point sample.

Membership, enumeration, the convexity audit and window reconstruction are
decided on integer pairs: an interval keeps its endpoints as integer
coordinates, and every test ``lo <= (a + b*beta)/den <= hi`` is two exact sign
tests of cross-multiplied integers (``quadring._sign_pair``).  Enumeration
takes the exact integer ends of each row b instead of testing candidates, and
the audit bisects for the run of combinations inside the range.  Ring objects
are built only for results.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key
from itertools import repeat
from typing import Iterable, Iterator, Union

from .errors import (
    ChainBrokenError,
    MissingSeedsError,
    OutOfRangeError,
    ParameterNotAdmissibleError,
    RingMismatchError,
    TooFewPointsError,
)
from .quadring import QuadInt, QuadRat, RingSpec, _floor_pair, _quadints, _sign_pair
from .quadring import _sorted_pairs

log = logging.getLogger("qcx.modelset")

Scalar = Union[QuadInt, QuadRat, int]


@dataclass(frozen=True)
class Interval:
    """A bounded interval with exact endpoints and per-end open/closed flags.

    Endpoints may be given as ``QuadRat`` or ``QuadInt`` and are stored as
    ``QuadRat``; plain ``int`` endpoints need :meth:`closed` and a ring.
    """

    lo: QuadRat
    hi: QuadRat
    lo_closed: bool = True
    hi_closed: bool = True

    # (lo.num.a, lo.num.b, lo.den, hi.num.a, hi.num.b, hi.den)
    _ends: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lo, hi = _as_rat(self.lo, None), _as_rat(self.hi, None)
        _same_ring(lo.ring, hi.ring)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        la, lb, ld = lo.num.a, lo.num.b, lo.den
        ha, hb, hd = hi.num.a, hi.num.b, hi.den
        object.__setattr__(self, "_ends", (la, lb, ld, ha, hb, hd))
        d = _sign_pair(lo.ring, ha * ld - la * hd, hb * ld - lb * hd)
        if d < 0:
            raise OutOfRangeError("interval endpoints out of order")
        if d == 0 and not (self.lo_closed and self.hi_closed):
            raise OutOfRangeError("a degenerate interval must be closed on both ends")

    @classmethod
    def closed(cls, lo: Scalar, hi: Scalar, ring: RingSpec | None = None) -> "Interval":
        return cls(_as_rat(lo, ring), _as_rat(hi, ring))

    @classmethod
    def unit(cls, ring: RingSpec) -> "Interval":
        """The default window [0, 1]."""
        return cls.closed(0, 1, ring)

    def contains_pair(self, a: int, b: int, den: int = 1) -> bool:
        """Whether (a + b*beta)/den lies in the interval, for den > 0.

        With lo = (la + lb*beta)/ld, the test x >= lo is the sign of
        (a*ld - la*den) + (b*ld - lb*den)*beta, since both denominators are
        positive; the upper end is the same with the roles swapped.
        """
        la, lb, ld, ha, hb, hd = self._ends
        ring = self.lo.num.ring
        s = _sign_pair(ring, a * ld - la * den, b * ld - lb * den)
        if s < 0 or (s == 0 and not self.lo_closed):
            return False
        s = _sign_pair(ring, ha * den - a * hd, hb * den - b * hd)
        return s > 0 or (s == 0 and self.hi_closed)

    def contains(self, x: Scalar) -> bool:
        if isinstance(x, QuadInt):
            _same_ring(self.lo.num.ring, x.ring)
            return self.contains_pair(x.a, x.b)
        if isinstance(x, QuadRat):
            _same_ring(self.lo.num.ring, x.num.ring)
            return self.contains_pair(x.num.a, x.num.b, x.den)
        if isinstance(x, int):
            return self.contains_pair(x, 0)
        raise TypeError(f"cannot test membership of {type(x).__name__} in an interval")

    def __str__(self) -> str:
        # endpoints print in exact a,b pair form, so separate them with ".."
        return (
            ("[" if self.lo_closed else "(")
            + f"{self.lo} .. {self.hi}"
            + ("]" if self.hi_closed else ")")
        )


def _as_rat(x: Scalar, ring: RingSpec | None) -> QuadRat:
    if isinstance(x, QuadRat):
        return x
    if isinstance(x, QuadInt):
        return QuadRat(x, 1)
    if ring is None:
        raise OutOfRangeError("a plain integer endpoint needs an explicit ring")
    return QuadRat(ring.element(x), 1)


def _same_ring(ring: RingSpec, other: RingSpec) -> None:
    # identity first: the dataclass __eq__ of RingSpec is the slow path
    if other is not ring and other != ring:
        raise RingMismatchError(f"operands from different rings: {ring} vs {other}")


@dataclass(frozen=True)
class PointSet:
    """A finite, sorted collection of ring elements together with its range;
    the set of (a, b) keys behind membership tests is built on the first test."""

    ring: RingSpec
    points: tuple[QuadInt, ...]
    span: Interval

    @cached_property
    def _keys(self) -> frozenset:
        return frozenset((p.a, p.b) for p in self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[QuadInt]:
        return iter(self.points)

    def __contains__(self, x: QuadInt) -> bool:
        return (x.a, x.b) in self._keys

    def conj_values(self) -> tuple[QuadInt, ...]:
        """Window-side images of the points (computed on demand)."""
        m = self.ring.m
        return tuple(_quadints(self.ring, [(p.a + m * p.b, -p.b) for p in self.points]))

    def records(self) -> list[dict]:
        """JSON-ready records; the floats are display-only."""
        return [
            {"a": p.a, "b": p.b, "value": float(p), "conj": p.conj_float()}
            for p in self.points
        ]


def _a_ends(ring: RingSpec, p: int, q: int, dp: int, dq: int, d: int, rows: int,
            closed: bool, upper: bool) -> list[int]:
    """The least integer a >= e (a > e if not ``closed``), or with ``upper``
    the greatest a <= e (a < e), for each end e = (p + j*dp + (q + j*dq)*beta)/d
    of the rows j = 0 .. rows - 1, with d > 0.

    From one row to the next e moves by (dp + dq*beta)/d, whose floor is k,
    so floor(e) moves by k or k + 1; one exact sign test decides which.  e is
    an integer only when its beta coordinate is 0 and d divides the other;
    otherwise floor(e) decides."""
    k = _floor_pair(ring, dp, dq, d)
    n = _floor_pair(ring, p, q, d)
    ends = []
    for _ in range(rows):
        if q or p % d:
            ends.append(n if upper else n + 1)
        else:
            ends.append(n - (not closed) if upper else n + (not closed))
        p += dp
        q += dq
        n += k
        if _sign_pair(ring, p - (n + 1) * d, q) >= 0:
            n += 1
    return ends


def enumerate_model_set(ring: RingSpec, window: Interval, span: Interval) -> PointSet:
    """All x in Z[beta] with conj(x) in ``window`` and x in ``span``, sorted.

    x - conj(x) = b*sqrt(D) pins the integer range of b from the two interval
    constraints.  For each b the admissible a form one integer interval, the
    intersection of x in ``span`` and conj(x) in ``window``; its exact ends are
    floors of integer pairs adjusted by the open/closed flags, each carried
    from the row b - 1 by one sign test, so every a between them is a point
    and no candidate is tested on its own.
    """
    _same_ring(ring, window.lo.ring)
    _same_ring(ring, span.lo.ring)
    sqrt_disc = ring.element(-ring.m, 2)  # 2*beta - m = sqrt(D) > 0
    inv_sqrt = QuadRat(sqrt_disc, ring.disc)  # 1/sqrt(D)
    b_lo = ((span.lo - window.hi) * inv_sqrt).floor()
    b_hi = ((span.hi - window.lo) * inv_sqrt).floor() + 1
    rows = b_hi - b_lo + 1
    m = ring.m
    sla, slb, sld, sha, shb, shd = span._ends
    wla, wlb, wld, wha, whb, whd = window._ends
    # a against span.lo - b*beta, window.lo - b*conj(beta) and the same for
    # the upper ends, with conj(beta) = m - beta; each row adds -beta to the
    # span ends and -conj(beta) to the window ends
    a_lo = map(max,
               _a_ends(ring, sla, slb - b_lo * sld, 0, -sld, sld, rows, span.lo_closed, False),
               _a_ends(ring, wla - b_lo * m * wld, wlb + b_lo * wld, -m * wld, wld, wld, rows,
                       window.lo_closed, False))
    a_hi = map(min,
               _a_ends(ring, sha, shb - b_lo * shd, 0, -shd, shd, rows, span.hi_closed, True),
               _a_ends(ring, wha - b_lo * m * whd, whb + b_lo * whd, -m * whd, whd, whd, rows,
                       window.hi_closed, True))
    pairs: list[tuple[int, int]] = []
    for b, lo, hi in zip(range(b_lo, b_hi + 1), a_lo, a_hi):
        pairs.extend(zip(range(lo, hi + 1), repeat(b)))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("enumerate_model_set: %d b rows, %d points", rows, len(pairs))
    return PointSet(ring, tuple(_quadints(ring, _sorted_pairs(ring, pairs))), span)


def gap_histogram(ps: PointSet) -> list[tuple[QuadInt, int]]:
    """Distinct consecutive gaps with multiplicities, sorted by gap size."""
    if len(ps) < 2:
        raise TooFewPointsError(f"need at least two points, got {len(ps)}")
    pts = ps.points
    counts = Counter((y.a - x.a, y.b - x.b) for x, y in zip(pts, pts[1:]))
    gaps = [(QuadInt(ps.ring, a, b), n) for (a, b), n in counts.items()]
    return sorted(gaps, key=lambda it: it[0])


@dataclass(frozen=True)
class ConvexityViolation:
    x: QuadInt
    y: QuadInt
    combo: QuadInt
    conj_in_window: bool | None


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of checking s*x + (1-s)*y membership over all ordered pairs."""

    param: QuadInt
    pairs_checked: int
    violations: tuple[ConvexityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_convexity(ps: PointSet, s: QuadInt, window: Interval | None = None) -> ConvexityReport:
    """Check closedness of ``ps`` under x, y -> s*x + (1-s)*y inside its range.

    The parameter must have conj(s) in [0, 1]; then the conjugate of every
    combination of two model-set points stays in the window, so a genuine
    model set restricted to a range yields zero violations (combinations
    falling outside the range are not counted).  Each violation records
    whether the combination's conjugate was inside ``window``, separating
    true gaps from window effects.

    For one x, z is monotone in y, so along the y in ascending order the z
    inside the range form one run, whose ends are bisected with exact sign
    tests; only the run is tested against the points, in the given order,
    which is certified ascending (else sorted exactly).  The combinations are
    integer pairs; a ``QuadInt`` is built only for a violation.
    """
    ring = ps.ring
    _same_ring(ring, s.ring)
    _same_ring(ring, ps.span.lo.ring)
    if window is not None:
        _same_ring(ring, window.lo.ring)
    pts = ps.points
    for p in pts:
        _same_ring(ring, p.ring)
    c = s.conj()
    if c.sign() < 0 or (c - 1).sign() > 0:
        raise ParameterNotAdmissibleError(
            f"conj({s}) = {c} lies outside [0, 1]; not a window-side convex weight"
        )
    m, eps = ring.m, ring.eps
    sa, sb = s.a, s.b
    ua, ub = 1 - sa, -sb  # 1 - s
    # products expand with beta^2 = m*beta + eps, as in QuadInt.__mul__
    uys = [(ua * y.a + eps * ub * y.b, ua * y.b + ub * y.a + m * ub * y.b) for y in pts]
    order = None
    if not all(_sign_pair(ring, y.a - x.a, y.b - x.b) > 0 for x, y in zip(pts, pts[1:])):
        order = sorted(range(len(pts)), key=cmp_to_key(
            lambda i, j: _sign_pair(ring, pts[i].a - pts[j].a, pts[i].b - pts[j].b)))
    ascending = uys if order is None else [uys[j] for j in order]
    # z moves with y when 1 - s > 0 and against it when 1 - s < 0; for s = 1
    # it is x itself, a point of ps, so no pair can give a violation
    slope = _sign_pair(ring, ua, ub)
    span, e = ps.span, ps.span._ends
    ends = [(*e[:3], span.lo_closed), (*e[3:], span.hi_closed)]
    (fa, fb, fd, f_closed), (ga, gb, gd, g_closed) = ends if slope > 0 else ends[::-1]
    keys = ps._keys
    violations: list[ConvexityViolation] = []
    tested = 0
    for x in pts if slope else ():
        xa, xb = x.a, x.b
        sxa, sxb = sa * xa + eps * sb * xb, sa * xb + sb * xa + m * sb * xb
        # slope * sign(z - end) ascends along the run order: start is the
        # first z inside the first end it meets, stop the first z past the other
        start = bisect_left(ascending, 0 if f_closed else 1, key=lambda uy: slope * _sign_pair(
            ring, (sxa + uy[0]) * fd - fa, (sxb + uy[1]) * fd - fb))
        stop = bisect_left(ascending, 1 if g_closed else 0, start, key=lambda uy: slope * _sign_pair(
            ring, (sxa + uy[0]) * gd - ga, (sxb + uy[1]) * gd - gb))
        tested += stop - start
        # y is x gives z = x, which is in ps, so it never adds a violation
        for j in range(start, stop) if order is None else sorted(order[start:stop]):
            uya, uyb = uys[j]
            za, zb = sxa + uya, sxb + uyb
            if (za, zb) in keys:
                continue
            inside = window.contains_pair(za + m * zb, -zb) if window is not None else None
            violations.append(ConvexityViolation(x, pts[j], QuadInt(ring, za, zb), inside))
    # every ordered pair except y is x (equal objects listed twice skip each other)
    pairs = len(pts) ** 2 - sum(k * k for k in Counter(map(id, pts)).values())
    if log.isEnabledFor(logging.DEBUG):
        log.debug("check_convexity: %d pairs, %d inside the range, %d violations, "
                  "order certificate %s", pairs, tested, len(violations),
                  "failed" if order is not None else "held")
    return ConvexityReport(s, pairs, tuple(violations))


@dataclass(frozen=True)
class WindowReconstruction:
    """Hull of a conjugate-side sample plus the unit-interval chain certifying it.

    ``upper``/``lower`` list the chain anchors above 1 and below 0: each anchor
    y contributes the interval [y-1, y] (or [y, y+1] below), and consecutive
    anchors never leave a gap wider than 1, so the whole hull is filled by
    two-seed closures once 0 and 1 are present.
    """

    hull: Interval
    upper: tuple[QuadInt, ...]
    lower: tuple[QuadInt, ...]


def reconstruct_window(points: Iterable[QuadInt]) -> WindowReconstruction:
    """Recover the window hull [min, max] from conjugate-side points.

    Requires 0 and 1 among the points (the seed pair).  The distinct points
    are sorted exactly as integer pairs; those after 1 lie above it and those
    before 0 below it, so walking up through the sorted points, every gap
    outside [0, 1] must be at most 1, and the first wider gap raises
    ChainBrokenError carrying that gap.
    """
    ring = None
    distinct = set()
    for p in points:
        if ring is None:
            ring = p.ring
        elif p.ring is not ring:
            _same_ring(ring, p.ring)
        distinct.add((p.a, p.b))
    if ring is None:
        raise MissingSeedsError("no points given")
    if (0, 0) not in distinct or (1, 0) not in distinct:
        raise MissingSeedsError("window reconstruction needs both 0 and 1 among the points")
    pts = _sorted_pairs(ring, list(distinct))
    i0, i1 = pts.index((0, 0)), pts.index((1, 0))
    for k in [*range(1, i0 + 1), *range(i1 + 1, len(pts))]:
        da, db = pts[k][0] - pts[k - 1][0], pts[k][1] - pts[k - 1][1]
        if _sign_pair(ring, da - 1, db) > 0:
            gap = QuadInt(ring, da, db)
            raise ChainBrokenError(
                f"gap {gap} (~{float(gap):.4f}) exceeds 1 "
                f"{'below' if k <= i0 else 'above'} the seed interval",
                gap=gap,
            )
    hull = Interval.closed(*_quadints(ring, (pts[0], pts[-1])))
    upper, lower = _quadints(ring, pts[i1 + 1:]), _quadints(ring, reversed(pts[:i0]))
    return WindowReconstruction(hull, tuple(upper), tuple(lower))
