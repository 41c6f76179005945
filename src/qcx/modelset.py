"""Cut-and-project point sets for Z[beta] and their combinatorial structure.

A window Omega (a bounded interval) selects the model set

    Sigma(Omega) = { x in Z[beta] : conj(x) in Omega },

an aperiodic, uniformly discrete, relatively dense subset of the line.  This
module enumerates such sets exactly over a bounded range, measures their gap
structure, checks closedness under two-point convex combinations, and
reconstructs the window interval from a finite point sample.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Union

from .errors import (
    ChainBrokenError,
    MissingSeedsError,
    OutOfRangeError,
    ParameterNotAdmissibleError,
    RingMismatchError,
    TooFewPointsError,
)
from .quadring import QuadInt, QuadRat, RingSpec, _sorted_exact

Scalar = Union[QuadInt, QuadRat, int]


@dataclass(frozen=True)
class Interval:
    """A bounded interval with exact endpoints and per-end open/closed flags."""

    lo: QuadRat
    hi: QuadRat
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        d = (self.hi - self.lo).sign()
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

    def contains(self, x: Scalar) -> bool:
        v = _as_rat(x, self.lo.ring)
        s = (v - self.lo).sign()
        if s < 0 or (s == 0 and not self.lo_closed):
            return False
        s = (self.hi - v).sign()
        return s > 0 or (s == 0 and self.hi_closed)

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


@dataclass(frozen=True)
class PointSet:
    """A finite, sorted collection of ring elements together with its range."""

    ring: RingSpec
    points: tuple[QuadInt, ...]
    span: Interval

    _keys: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_keys", frozenset((p.a, p.b) for p in self.points))

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
    admissible range of a is the intersection of two rational intervals.  The
    final membership filter is exact, so the candidate ranges only need to be
    wide enough.
    """
    sqrt_disc = ring.element(-ring.m, 2)  # 2*beta - m = sqrt(D) > 0
    inv_sqrt = QuadRat(sqrt_disc, ring.disc)  # 1/sqrt(D)
    b_lo = ((span.lo - window.hi) * inv_sqrt).floor()
    b_hi = ((span.hi - window.lo) * inv_sqrt).floor() + 1
    points: list[QuadInt] = []
    for b in range(b_lo, b_hi + 1):
        b_beta = ring.element(0, b)
        b_conj = b_beta.conj()
        a_lo = max((span.lo - b_beta).floor(), (window.lo - b_conj).floor())
        a_hi = min((span.hi - b_beta).floor(), (window.hi - b_conj).floor()) + 1
        for a in range(a_lo, a_hi + 1):
            x = ring.element(a, b)
            if span.contains(x) and window.contains(x.conj()):
                points.append(x)
    return PointSet(ring, tuple(_sorted_exact(ring, points)), span)


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
    """
    ring = ps.ring
    c = s.conj()
    if c.sign() < 0 or (c - 1).sign() > 0:
        raise ParameterNotAdmissibleError(
            f"conj({s}) = {c} lies outside [0, 1]; not a window-side convex weight"
        )
    one_minus = 1 - s
    violations: list[ConvexityViolation] = []
    pairs = 0
    pts = ps.points
    for x in pts:
        sx = s * x
        for y in pts:
            if y is x:
                continue
            pairs += 1
            z = sx + one_minus * y
            if z in ps or not ps.span.contains(z):
                continue
            inside = window.contains(z.conj()) if window is not None else None
            violations.append(ConvexityViolation(x, y, z, inside))
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
        if p.ring is not ring and p.ring != ring:
            raise RingMismatchError(f"operands from different rings: {ring} vs {p.ring}")
    pts = _sorted_exact(ring, distinct)
    if ring.zero not in pts or ring.one not in pts:
        raise MissingSeedsError("window reconstruction needs both 0 and 1 among the points")
    upper: list[QuadInt] = []
    lower: list[QuadInt] = []
    for prev, cur in zip(pts, pts[1:]):
        if (cur - 1).sign() > 0:  # step reaches above 1
            gap = cur - prev
            if (gap - 1).sign() > 0:
                raise ChainBrokenError(
                    f"gap {gap} (~{float(gap):.4f}) exceeds 1 above the seed interval",
                    gap=gap,
                )
            upper.append(cur)
        if prev.sign() < 0:  # step starts below 0
            gap = cur - prev
            if (gap - 1).sign() > 0:
                raise ChainBrokenError(
                    f"gap {gap} (~{float(gap):.4f}) exceeds 1 below the seed interval",
                    gap=gap,
                )
            lower.append(prev)
    hull = Interval.closed(pts[0], pts[-1])
    return WindowReconstruction(hull, tuple(upper), tuple(lower[::-1]))
