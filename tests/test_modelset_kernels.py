"""Integer-pair model-set kernels against the ring-object code they replaced.

``Interval.contains``, ``enumerate_model_set``, ``check_convexity`` and
``reconstruct_window`` decide their predicates on integer coordinates.  Each
is compared here with a local copy of the earlier ``QuadRat``/``QuadInt``
implementation, or with a brute-force box scan built on that copy.
"""

import logging
import random
from functools import cmp_to_key
from math import isqrt, sqrt

import pytest

from qcx import (
    ChainBrokenError,
    ConvexityReport,
    ConvexityViolation,
    Interval,
    MissingSeedsError,
    PointSet,
    QuadInt,
    QuadRat,
    RingMismatchError,
    RingSpec,
    characterizing_params,
    check_convexity,
    enumerate_model_set,
    reconstruct_window,
)

RINGS = [RingSpec(1, 1), RingSpec(2, 1), RingSpec(3, 1),
         RingSpec(4, -1), RingSpec(5, -1), RingSpec(7, -1)]
FLAGS = [(True, True), (True, False), (False, True), (False, False)]


# -- reference copies of the ring-object code --------------------------------


def ref_contains(iv, x):
    """Interval membership through QuadRat differences."""
    if isinstance(x, QuadRat):
        v = x
    elif isinstance(x, QuadInt):
        v = QuadRat(x, 1)
    else:
        v = QuadRat(iv.lo.ring.element(x), 1)
    s = (v - iv.lo).sign()
    if s < 0 or (s == 0 and not iv.lo_closed):
        return False
    s = (iv.hi - v).sign()
    return s > 0 or (s == 0 and iv.hi_closed)


def ref_sorted(points):
    return sorted(points, key=cmp_to_key(lambda x, y: (x - y).sign()))


def ref_box_scan(ring, window, span):
    """Every (a, b) of a box that provably holds the model set, tested with
    ``ref_contains`` and sorted by exact comparison."""
    root = sqrt(ring.disc)
    s_lo, s_hi = float(span.lo), float(span.hi)
    w_lo, w_hi = float(window.lo), float(window.hi)
    found = []
    # x - conj(x) = b*sqrt(D) bounds b; x = a + b*beta bounds a
    for b in range(int((s_lo - w_hi) / root) - 2, int((s_hi - w_lo) / root) + 3):
        a0 = int(s_lo - b * ring.beta_float) - 2
        for a in range(a0, a0 + int(s_hi - s_lo) + 5):
            x = ring.element(a, b)
            if ref_contains(span, x) and ref_contains(window, x.conj()):
                found.append(x)
    return ref_sorted(found)


def ref_check_convexity(ps, s, window=None):
    """The all-ordered-pairs loop on QuadInt products."""
    one_minus = 1 - s
    violations = []
    pairs = 0
    for x in ps.points:
        sx = s * x
        for y in ps.points:
            if y is x:
                continue
            pairs += 1
            z = sx + one_minus * y
            if z in ps or not ref_contains(ps.span, z):
                continue
            inside = ref_contains(window, z.conj()) if window is not None else None
            violations.append(ConvexityViolation(x, y, z, inside))
    return ConvexityReport(s, pairs, tuple(violations))


def ref_reconstruct_gap(points):
    """The first gap wider than 1 walking out from [0, 1], or None."""
    pts = ref_sorted(set(points))
    for prev, cur in zip(pts, pts[1:]):
        gap = cur - prev
        if (cur - 1).sign() > 0 and (gap - 1).sign() > 0:
            return gap
        if prev.sign() < 0 and (gap - 1).sign() > 0:
            return gap
    return None


# -- interval membership -----------------------------------------------------


def _endpoints(ring, rng, den):
    """Two ordered endpoints with denominator ``den`` (1 gives ring integers)."""
    while True:
        lo = QuadRat(ring.element(rng.randint(-6, 6), rng.randint(-2, 2)), den)
        hi = QuadRat(ring.element(rng.randint(-6, 6), rng.randint(-2, 2)), den)
        if lo > hi:
            lo, hi = hi, lo
        if lo != hi:
            return lo, hi


def _probes(ring, iv, rng):
    """Endpoint ties, their conjugate-side neighbours, and random values."""
    out = [iv.lo, iv.hi, iv.lo.num, iv.hi.num, 0, 1, -1, 3]
    for e in (iv.lo, iv.hi):
        out += [e + QuadRat(ring.one, 10**6), e - QuadRat(ring.one, 10**6)]
        if e.den == 1:
            out.append(e.num)                          # a QuadInt equal to the end
    for _ in range(40):
        a, b = rng.randint(-30, 30), rng.randint(-8, 8)
        out.append(ring.element(a, b))
        out.append(QuadRat(ring.element(a, b), rng.choice((1, 2, 3, 5, 7, 15))))
        out.append(rng.randint(-8, 8))
    return out


@pytest.mark.parametrize("ring", RINGS, ids=str)
@pytest.mark.parametrize("den", [1, 3, 5, 7])
def test_contains_matches_quadrat_reference(ring, den):
    rng = random.Random(f"contains/{ring.m}/{ring.eps}/{den}")
    for _ in range(6):
        lo, hi = _endpoints(ring, rng, den)
        for flags in FLAGS:
            iv = Interval(lo, hi, *flags)
            for x in _probes(ring, iv, rng):
                assert iv.contains(x) == ref_contains(iv, x), (iv, x)
                if isinstance(x, QuadRat):
                    assert iv.contains_pair(x.num.a, x.num.b, x.den) == ref_contains(iv, x)


def test_contains_exact_ties():
    for ring in RINGS:
        tau = ring.beta
        for flags in FLAGS:
            iv = Interval(QuadRat(tau - 3, 3), QuadRat(tau + 1, 5), *flags)
            lo_closed, hi_closed = flags
            # the same values in unreduced form and as ring integers
            assert iv.contains_pair(2 * (tau.a - 3), 2 * tau.b, 6) == lo_closed
            assert iv.contains_pair(7 * (tau.a + 1), 7 * tau.b, 35) == hi_closed
            assert iv.contains(QuadRat(tau - 3, 3)) == lo_closed
        point = Interval(QuadRat(ring.beta, 7), QuadRat(ring.beta, 7))
        assert point.contains(QuadRat(ring.beta * 2, 14))
        assert not point.contains(QuadRat(ring.beta * 2 + 1, 14))
        unit = Interval(ring.zero, ring.one, False, True)
        assert not unit.contains(0) and unit.contains(1) and unit.contains(ring.one)


def test_contains_across_rings_raises():
    golden, silver = RINGS[0], RINGS[1]
    unit = Interval.unit(golden)
    with pytest.raises(RingMismatchError):
        unit.contains(silver.beta)
    with pytest.raises(RingMismatchError):
        unit.contains(QuadRat(silver.beta, 3))
    with pytest.raises(RingMismatchError):
        Interval(golden.zero, silver.one)
    assert unit.contains(1)                         # plain ints carry no ring


def test_interval_endpoint_types():
    ring = RINGS[3]
    from_int = Interval(ring.zero, ring.one)
    assert from_int == Interval.closed(0, 1, ring) and hash(from_int) == hash(Interval.unit(ring))
    assert isinstance(from_int.lo, QuadRat) and isinstance(from_int.hi, QuadRat)
    assert Interval(QuadRat(ring.one, 2), ring.beta).contains(ring.element(2))


# -- enumeration -------------------------------------------------------------


def _windows(ring):
    tau, inv = ring.beta, ring.inv_beta
    unit = Interval.unit(ring)
    yield unit                                                      # closed
    yield Interval(unit.lo, unit.hi, True, False)                   # half-open
    yield Interval(unit.lo, unit.hi, False, True)
    yield Interval(QuadRat(-inv, 1), QuadRat(2 - inv, 1), True, False)
    for q in (3, 5, 7):                                             # rational
        yield Interval(QuadRat(ring.element(-1), q), QuadRat(ring.element(2 * q - 1), q))
        yield Interval(QuadRat(ring.element(-2), q), QuadRat(ring.element(q - 2), q), False, True)
    yield Interval(QuadRat(tau - 3, 3), QuadRat(tau, 2))            # irrational ends


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_enumeration_matches_box_scan(ring):
    spans = [
        Interval.closed(0, 1, ring),
        Interval.closed(-7, 11, ring),
        Interval(QuadRat(ring.element(-9), 2), QuadRat(ring.element(0, 3), 1), False, True),
        Interval(QuadRat(ring.beta * -2, 3), QuadRat(ring.element(13), 1), True, False),
    ]
    for window in _windows(ring):
        for span in spans:
            got = enumerate_model_set(ring, window, span)
            expected = ref_box_scan(ring, window, span)
            assert [(p.a, p.b) for p in got] == [(p.a, p.b) for p in expected], (window, span)


def _wide_span(ring):
    """A span holding a few dozen points of a window of length 3."""
    r = 4 * isqrt(ring.disc) + 4
    return Interval.closed(-r, r, ring)


def _exact_hit_ends(ring):
    """Span ends and window ends that four distinct points of the model set
    hit exactly: the window ends are conjugates of two central points, the
    span ends two outer points whose conjugates lie inside that window."""
    pts = enumerate_model_set(ring, Interval.closed(-1, 2, ring), _wide_span(ring)).points
    q = len(pts) // 4
    inner = ref_sorted([p.conj() for p in pts[q:-q]])
    w_lo, w_hi = inner[1], inner[-2]
    outer = [p for p in pts if w_lo < p.conj() < w_hi]
    return outer[1], outer[-2], w_lo, w_hi


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_enumeration_exact_ends_all_flags(ring):
    """Integral ends hit by lattice points in every flag combination, given as
    ring integers and as rationals (x*d)/d; each open flag drops exactly the
    point on its end, so all sixteen results differ."""
    s_lo, s_hi, w_lo, w_hi = _exact_hit_ends(ring)
    for d in (1, 3):
        results = set()
        for span_flags in FLAGS:
            span = Interval(QuadRat(s_lo * d, d), QuadRat(s_hi * d, d), *span_flags)
            for window_flags in FLAGS:
                window = Interval(QuadRat(w_lo * d, d), QuadRat(w_hi * d, d), *window_flags)
                got = [(p.a, p.b) for p in enumerate_model_set(ring, window, span)]
                assert got == [(p.a, p.b) for p in ref_box_scan(ring, window, span)], (
                    window, span)
                results.add(tuple(got))
        assert len(results) == 16


def test_enumeration_far_from_origin():
    for ring in RINGS:
        x0 = ring.element(10**12, -(10**11))
        span = Interval(QuadRat(x0, 1), QuadRat(x0 + 15, 1))
        window = Interval(QuadRat(ring.element(-1), 3), QuadRat(ring.element(5), 3), True, False)
        got = enumerate_model_set(ring, window, span)
        assert [(p.a, p.b) for p in got] == [(p.a, p.b) for p in ref_box_scan(ring, window, span)]
        assert len(got) > 0


def test_enumeration_across_rings_raises():
    golden, silver = RINGS[0], RINGS[1]
    with pytest.raises(RingMismatchError):
        enumerate_model_set(golden, Interval.unit(silver), Interval.closed(0, 5, golden))


# -- convexity audit ---------------------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_check_convexity_matches_reference(ring):
    window = Interval.closed(-1, 2, ring)
    span = Interval.closed(-20, 20, ring)
    full = enumerate_model_set(ring, window, span)
    rng = random.Random(f"convexity/{ring.m}/{ring.eps}")
    inner = [p for p in full if (p + 10).sign() > 0 and (p - 10).sign() < 0]
    holes = set(rng.sample(inner, max(2, len(inner) // 3)))
    broken = PointSet(ring, tuple(p for p in full if p not in holes), span)
    # two halves of the window: each violation is inside exactly one of them
    half = QuadRat(ring.one, 2)
    left, right = Interval(window.lo, half, True, False), Interval(half, window.hi)
    params = characterizing_params(ring).params
    seen_flags = set()
    for s in params:
        for ps in (full, broken):
            for w in (None, window, left, right):
                got = check_convexity(ps, s, w)
                assert got == ref_check_convexity(ps, s, w), (s, w)
                seen_flags.update(v.conj_in_window for v in got.violations)
        assert check_convexity(full, s).ok
    assert seen_flags == {True, False, None}


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_check_convexity_any_order_and_open_ends(ring):
    """Shuffled, thinned and repeated point orders, s = 0, s = 1 and every
    characterizing parameter, with span ends on removed points under all
    four flag pairs: the report equals the reference's, violation order
    included."""
    window = Interval.closed(-1, 2, ring)
    full = enumerate_model_set(ring, window, _wide_span(ring))
    rng = random.Random(f"runs/{ring.m}/{ring.eps}")
    lo, hi = full.points[3], full.points[-4]
    kept = [p for p in full.points if p not in (lo, hi) and rng.random() < 0.75]
    shuffled = rng.sample(kept, len(kept))
    orders = [kept, shuffled, shuffled + shuffled[:4], kept[::-1]]
    params = [ring.zero, ring.one, *characterizing_params(ring).params]
    violations = 0
    for flags in FLAGS:
        span = Interval(QuadRat(lo), QuadRat(hi), *flags)
        for pts in orders:
            ps = PointSet(ring, tuple(pts), span)
            for s in params:
                got = check_convexity(ps, s, window)
                assert got == ref_check_convexity(ps, s, window), (flags, s)
                violations += len(got.violations)
    assert violations


def test_check_convexity_counts_repeated_objects():
    ring = RINGS[0]
    full = enumerate_model_set(ring, Interval.unit(ring), Interval.closed(0, 6, ring))
    p, q = full.points[1], full.points[2]
    twin = ring.element(q.a, q.b)                   # equal to q, another object
    for pts in [(p, p, q), (p, q, twin), (p, p, p), ()]:
        ps = PointSet(ring, pts, full.span)
        for s in characterizing_params(ring).params:
            assert check_convexity(ps, s) == ref_check_convexity(ps, s)


def test_point_set_keys_are_built_on_first_use():
    ring = RINGS[2]
    window, span = Interval.closed(-1, 2, ring), Interval.closed(-15, 15, ring)
    full = enumerate_model_set(ring, window, span)
    fresh = PointSet(ring, full.points, span)
    assert "_keys" not in vars(fresh)
    # equality, hashing and repr see the fields only, built keys or not
    assert hash(fresh) == hash(full) == hash((ring, full.points, span))
    assert fresh == full and repr(fresh) == repr(full) and "_keys" not in repr(fresh)
    for s in characterizing_params(ring).params:
        untouched = PointSet(ring, full.points[::2], span)
        assert check_convexity(untouched, s) == ref_check_convexity(untouched, s)
    members = {(p.a, p.b) for p in full}
    for a in range(-12, 13):
        for b in range(-12, 13):
            assert (ring.element(a, b) in fresh) == ((a, b) in members)
    assert fresh._keys == members and fresh == full and hash(fresh) == hash(full)


def test_check_convexity_across_rings_raises():
    golden, silver = RINGS[0], RINGS[1]
    ps = enumerate_model_set(golden, Interval.unit(golden), Interval.closed(0, 5, golden))
    s_silver = characterizing_params(silver).params[0]
    with pytest.raises(RingMismatchError):
        check_convexity(ps, s_silver)
    with pytest.raises(RingMismatchError):
        check_convexity(ps, -golden.beta, Interval.unit(silver))


# -- window reconstruction ---------------------------------------------------


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_reconstruct_window_gap_matches_reference(ring):
    rng = random.Random(f"reconstruct/{ring.m}/{ring.eps}")
    conj = enumerate_model_set(ring, Interval.closed(-2, 3, ring),
                               Interval.closed(-40, 40, ring)).conj_values()
    broken = 0
    for trial in range(60):
        keep = rng.choice((0.02, 0.05, 0.3))
        sample = [ring.zero, ring.one] + [c for c in conj if rng.random() < keep]
        gap = ref_reconstruct_gap(sample)
        if gap is None:
            rec = reconstruct_window(sample)
            pts = ref_sorted(set(sample))
            assert (rec.hull.lo, rec.hull.hi) == (pts[0], pts[-1])
            continue
        broken += 1
        with pytest.raises(ChainBrokenError) as exc:
            reconstruct_window(sample)
        assert exc.value.gap == gap and isinstance(exc.value.gap, QuadInt)
    assert 0 < broken < 60
    for sample, gap in [([0, 1, 3], 2), ([-2, 0, 1], 2), ([0, 1, 2, 4], 2)]:
        with pytest.raises(ChainBrokenError) as exc:
            reconstruct_window([ring.element(k) for k in sample])
        assert exc.value.gap == gap


def test_reconstruct_window_reads_any_iterable_once():
    ring = RINGS[4]
    conj = enumerate_model_set(ring, Interval.closed(-1, 2, ring),
                               Interval.closed(-30, 30, ring)).conj_values()
    want = reconstruct_window(conj)
    assert reconstruct_window(c for c in conj) == want
    repeated = list(conj) + list(conj[::3]) + [ring.zero, ring.one, ring.element(1)]
    random.Random(3).shuffle(repeated)
    assert reconstruct_window(repeated) == want
    assert (want.hull.lo, want.hull.hi) == (min(conj), max(conj))
    assert all(u > 1 for u in want.upper) and all(v < 0 for v in want.lower)
    assert list(want.upper) == sorted(want.upper) and list(want.lower) == sorted(want.lower)[::-1]
    with pytest.raises(ChainBrokenError) as exc:
        reconstruct_window(ring.element(k) for k in (0, 1, 1, 5, 0, -1))
    assert exc.value.gap == 4
    with pytest.raises(MissingSeedsError):
        reconstruct_window(iter(()))
    with pytest.raises(MissingSeedsError):
        reconstruct_window(ring.element(k) for k in (0, 2, 3))


def test_reconstruct_window_across_rings_raises():
    golden, silver = RINGS[0], RINGS[1]
    with pytest.raises(RingMismatchError):
        reconstruct_window([golden.zero, golden.one, silver.beta])


# -- debug records -----------------------------------------------------------


def test_modelset_debug_records(caplog):
    ring = RINGS[0]
    window, span = Interval.closed(-1, 2, ring), Interval.closed(-6, 6, ring)
    s = characterizing_params(ring).params[0]
    with caplog.at_level(logging.DEBUG, logger="qcx.modelset"):
        caplog.clear()
        ps = enumerate_model_set(ring, window, span)
        (rec,) = [r for r in caplog.records if r.name == "qcx.modelset"]
        assert rec.msg.startswith("enumerate_model_set") and rec.args == (9, len(ps)) == (9, 18)
        pts = ps.points[:4] + ps.points[5:]
        # combinations inside the range, y is x included
        inside = sum(ref_contains(span, s * x + (1 - s) * y) for x in pts for y in pts)
        for order, certificate in [(pts, "held"), (pts[::-1], "failed")]:
            caplog.clear()
            report = check_convexity(PointSet(ring, order, span), s, window)
            (rec,) = [r for r in caplog.records if r.name == "qcx.modelset"]
            assert rec.msg.startswith("check_convexity")
            assert rec.args == (272, inside, 7, certificate) == (272, 112, 7, certificate)
            assert len(report.violations) == 7
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="qcx.modelset"):
            check_convexity(ps, s, window)
        assert not [r for r in caplog.records if r.name == "qcx.modelset"]
