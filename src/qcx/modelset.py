"""Cut-and-project point sets for Z[beta] and their combinatorial structure.

A window Omega (a bounded interval) selects the model set

    Sigma(Omega) = { x in Z[beta] : conj(x) in Omega },

an aperiodic, uniformly discrete, relatively dense subset of the line.  This
module enumerates such sets exactly over a bounded range, measures their gap
structure, checks closedness under two-point convex combinations, and
reconstructs the window interval from a finite point sample.

Membership, enumeration and the convexity audit are decided on integer pairs:
an interval keeps its endpoints as integer coordinates, and every test
``lo <= (a + b*beta)/den <= hi`` is two exact sign tests of cross-multiplied
integers (``quadring._sign_pair``).  Ring objects are built only for results.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    ChainBrokenError,
    MissingSeedsError,
    OutOfRangeError,
    ParameterNotAdmissibleError,
    RingMismatchError,
    TooFewPointsError,
)
from .quadring import QuadInt, QuadRat, RingSpec, _floor_pair, _quadints, _sign_pair
from .quadring import _sorted_exact, _sorted_pairs

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
        return tuple(p.conj() for p in self.points)

    def records(self) -> list[dict]:
        """JSON-ready records; the floats are display-only."""
        return [
            {"a": p.a, "b": p.b, "value": float(p), "conj": p.conj_float()}
            for p in self.points
        ]


def enumerate_model_set(ring: RingSpec, window: Interval, span: Interval) -> PointSet:
    """All x in Z[beta] with conj(x) in ``window`` and x in ``span``, sorted.

    The search space is cut down exactly: x - conj(x) = b*sqrt(D) pins the
    integer range of b from the two interval constraints, then for each b the
    admissible range of a is the intersection of two rational intervals,
    whose ends are floors of integer pairs.  The final membership filter is
    exact, so the candidate ranges only need to be wide enough.
    """
    _same_ring(ring, window.lo.ring)
    _same_ring(ring, span.lo.ring)
    sqrt_disc = ring.element(-ring.m, 2)  # 2*beta - m = sqrt(D) > 0
    inv_sqrt = QuadRat(sqrt_disc, ring.disc)  # 1/sqrt(D)
    b_lo = ((span.lo - window.hi) * inv_sqrt).floor()
    b_hi = ((span.hi - window.lo) * inv_sqrt).floor() + 1
    m = ring.m
    sla, slb, sld, sha, shb, shd = span._ends
    wla, wlb, wld, wha, whb, whd = window._ends
    in_span, in_window = span.contains_pair, window.contains_pair
    pairs: list[tuple[int, int]] = []
    for b in range(b_lo, b_hi + 1):
        # floors of span.lo - b*beta, window.lo - b*conj(beta), and the same
        # for the upper ends, with conj(beta) = m - beta
        a_lo = max(
            _floor_pair(ring, sla, slb - b * sld, sld),
            _floor_pair(ring, wla - b * m * wld, wlb + b * wld, wld),
        )
        a_hi = min(
            _floor_pair(ring, sha, shb - b * shd, shd),
            _floor_pair(ring, wha - b * m * whd, whb + b * whd, whd),
        ) + 1
        mb = m * b
        for a in range(a_lo, a_hi + 1):
            if in_span(a, b) and in_window(a + mb, -b):
                pairs.append((a, b))
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

    The combinations are formed on integer coordinates; (1-s)*y is computed
    once per y, and a ``QuadInt`` is built only for a violation.
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
    keys = ps._keys
    in_span = ps.span.contains_pair
    violations: list[ConvexityViolation] = []
    for x in pts:
        xa, xb = x.a, x.b
        sxa, sxb = sa * xa + eps * sb * xb, sa * xb + sb * xa + m * sb * xb
        # y is x gives z = x, which is in ps, so it never adds a violation
        for j, (uya, uyb) in enumerate(uys):
            za, zb = sxa + uya, sxb + uyb
            if (za, zb) in keys or not in_span(za, zb):
                continue
            inside = window.contains_pair(za + m * zb, -zb) if window is not None else None
            violations.append(ConvexityViolation(x, pts[j], QuadInt(ring, za, zb), inside))
    # every ordered pair except y is x (equal objects listed twice skip each other)
    pairs = len(pts) ** 2 - sum(k * k for k in Counter(map(id, pts)).values())
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


def reconstruct_window(points: Sequence[QuadInt]) -> WindowReconstruction:
    """Recover the window hull [min, max] from conjugate-side points.

    Requires 0 and 1 among the points (the seed pair).  Walking outward from
    [0, 1], every consecutive gap must be at most 1; the first wider gap
    raises ChainBrokenError carrying that gap.
    """
    distinct = set(points)
    if not distinct:
        raise MissingSeedsError("no points given")
    ring = next(iter(distinct)).ring
    for p in distinct:
        _same_ring(ring, p.ring)
    if ring.zero not in distinct or ring.one not in distinct:
        raise MissingSeedsError("window reconstruction needs both 0 and 1 among the points")
    pts = _sorted_exact(ring, distinct)
    upper: list[QuadInt] = []
    lower: list[QuadInt] = []
    for prev, cur in zip(pts, pts[1:]):
        da, db = cur.a - prev.a, cur.b - prev.b
        if _sign_pair(ring, cur.a - 1, cur.b) > 0:  # step reaches above 1
            if _sign_pair(ring, da - 1, db) > 0:
                gap = QuadInt(ring, da, db)
                raise ChainBrokenError(
                    f"gap {gap} (~{float(gap):.4f}) exceeds 1 above the seed interval",
                    gap=gap,
                )
            upper.append(cur)
        if _sign_pair(ring, prev.a, prev.b) < 0:  # step starts below 0
            if _sign_pair(ring, da - 1, db) > 0:
                gap = QuadInt(ring, da, db)
                raise ChainBrokenError(
                    f"gap {gap} (~{float(gap):.4f}) exceeds 1 below the seed interval",
                    gap=gap,
                )
            lower.append(prev)
    hull = Interval.closed(pts[0], pts[-1])
    return WindowReconstruction(hull, tuple(upper), tuple(lower[::-1]))
