"""Exact model-set enumeration, gap statistics, convexity checks, windows."""

import random

import pytest

from qcx import (
    ChainBrokenError,
    Interval,
    MissingSeedsError,
    OutOfRangeError,
    ParameterNotAdmissibleError,
    PointSet,
    QuadRat,
    RingSpec,
    TooFewPointsError,
    check_convexity,
    enumerate_model_set,
    gap_histogram,
    reconstruct_window,
)

GOLDEN = RingSpec(1, 1)
SILVER = RingSpec(2, 1)
MINUS4 = RingSpec(4, -1)


def pts(ps):
    return [(p.a, p.b) for p in ps]


# -- intervals ---------------------------------------------------------------


def test_interval_semantics():
    w = Interval.unit(GOLDEN)
    assert w.contains(0) and w.contains(1) and w.contains(QuadRat(GOLDEN.one, 2))
    assert not w.contains(2) and not w.contains(-1)
    half_open = Interval(w.lo, w.hi, True, False)
    assert half_open.contains(0) and not half_open.contains(1)
    assert str(half_open) == "[0,0 .. 1,0)"
    point = Interval.closed(3, 3, GOLDEN)
    assert point.contains(3) and not point.contains(2)
    with pytest.raises(OutOfRangeError):
        Interval.closed(2, 1, GOLDEN)
    with pytest.raises(OutOfRangeError):
        Interval(w.lo, w.lo, True, False)  # degenerate must be closed
    with pytest.raises(OutOfRangeError, match="needs an explicit ring"):
        Interval(0, 1)
    with pytest.raises(OutOfRangeError, match="needs an explicit ring"):
        Interval(GOLDEN.zero, 1)
    from_ring_ints = Interval(GOLDEN.zero, GOLDEN.one)
    assert from_ring_ints == w and hash(from_ring_ints) == hash(w)


def test_interval_irrational_endpoints():
    tau = GOLDEN.beta
    w = Interval.closed(1 - tau, tau - 1)
    assert w.contains(0)
    assert w.contains(tau - 1) and not w.contains(QuadRat(GOLDEN.element(13, 0), 20))
    assert w.contains(QuadRat(GOLDEN.element(-3, 2), 4))  # (2*tau-3)/4 ~ 0.059


# -- enumeration oracles -----------------------------------------------------


def test_enumerate_golden_unit():
    ps = enumerate_model_set(GOLDEN, Interval.unit(GOLDEN), Interval.closed(0, 1, GOLDEN))
    assert pts(ps) == [(0, 0), (1, 0)]
    ps = enumerate_model_set(
        GOLDEN, Interval.unit(GOLDEN), Interval.closed(0, GOLDEN.element(1, 1), GOLDEN)
    )
    assert pts(ps) == [(0, 0), (1, 0), (1, 1)]


def test_enumerate_negative_window():
    w = Interval.closed(-1, 0, GOLDEN)
    ps = enumerate_model_set(GOLDEN, w, Interval.closed(-2, 0, GOLDEN))
    assert pts(ps) == [(-1, 0), (0, 0)]


def test_enumerate_minus_family():
    ps = enumerate_model_set(MINUS4, Interval.unit(MINUS4), Interval.closed(0, 5, MINUS4))
    assert pts(ps) == [(0, 0), (1, 0), (0, 1)]


def test_enumerate_open_ends():
    unit = Interval.unit(GOLDEN)
    span01 = Interval.closed(0, 1, GOLDEN)
    assert pts(enumerate_model_set(GOLDEN, Interval(unit.lo, unit.hi, True, False), span01)) == [(0, 0)]
    assert pts(enumerate_model_set(GOLDEN, Interval(unit.lo, unit.hi, False, True), span01)) == [(1, 0)]
    assert pts(enumerate_model_set(GOLDEN, unit, Interval(span01.lo, span01.hi, True, False))) == [(0, 0)]
    assert pts(enumerate_model_set(GOLDEN, unit, Interval(span01.lo, span01.hi, False, True))) == [(1, 0)]


def test_enumerate_against_brute_force():
    rng = random.Random(90125)
    rings = (GOLDEN, SILVER, MINUS4)
    for trial in range(21):
        ring = rings[trial % 3]
        den = rng.randint(1, 4)
        nums = sorted(rng.randint(-2 * den, 2 * den) for _ in range(2))
        w_lo, w_hi = (QuadRat(ring.element(n), den) for n in nums)
        degenerate = nums[0] == nums[1]
        window = Interval(
            w_lo, w_hi,
            degenerate or rng.random() < 0.7,
            degenerate or rng.random() < 0.7,
        )
        s_lo, s_hi = sorted(rng.randint(-10, 10) for _ in range(2))
        span = Interval.closed(s_lo, s_hi, ring)
        got = pts(enumerate_model_set(ring, window, span))
        expected = []
        for b in range(-7, 8):
            for a in range(-40, 41):
                x = ring.element(a, b)
                if span.contains(x) and window.contains(x.conj()):
                    expected.append(x)
        expected.sort()
        assert got == [(p.a, p.b) for p in expected], f"trial {trial} ring {ring}"


def test_pointset_protocol():
    ps = enumerate_model_set(GOLDEN, Interval.unit(GOLDEN), Interval.closed(0, 20, GOLDEN))
    assert len(ps) >= 3
    assert GOLDEN.one in ps and GOLDEN.element(1, 1) in ps
    assert GOLDEN.beta not in ps                    # conj(tau) = 1 - tau < 0
    values = list(ps)
    assert values == sorted(values)
    recs = ps.records()
    assert set(recs[0]) == {"a", "b", "value", "conj"}
    assert [r["a"] for r in recs] == [p.a for p in values]
    for p, c in zip(ps, ps.conj_values()):
        assert c == p.conj()


# -- gap statistics ----------------------------------------------------------


def test_gap_histogram_oracle():
    ps = enumerate_model_set(GOLDEN, Interval.unit(GOLDEN), Interval.closed(0, 5, GOLDEN))
    hist = gap_histogram(ps)
    assert hist == [(GOLDEN.one, 1), (GOLDEN.beta, 1)]


def test_gap_histogram_structure():
    ps = enumerate_model_set(GOLDEN, Interval.unit(GOLDEN), Interval.closed(0, 50, GOLDEN))
    hist = gap_histogram(ps)
    assert sum(n for _, n in hist) == len(ps) - 1
    gaps = [g for g, _ in hist]
    assert all(g.sign() > 0 for g in gaps)
    assert gaps == sorted(gaps)
    assert len(gaps) <= 3                           # closed unit window: at most three


def test_gap_histogram_needs_two_points():
    lone = enumerate_model_set(GOLDEN, Interval.unit(GOLDEN), Interval.closed(0, 0, GOLDEN))
    assert len(lone) == 1
    with pytest.raises(TooFewPointsError):
        gap_histogram(lone)


# -- convexity checking ------------------------------------------------------


def test_model_set_is_convex():
    tau = GOLDEN.beta
    ps = enumerate_model_set(GOLDEN, Interval.unit(GOLDEN), Interval.closed(0, 20, GOLDEN))
    report = check_convexity(ps, -tau)
    assert report.ok and report.pairs_checked == len(ps) * (len(ps) - 1)
    beta = MINUS4.beta
    ps4 = enumerate_model_set(MINUS4, Interval.unit(MINUS4), Interval.closed(0, 12, MINUS4))
    assert check_convexity(ps4, beta).ok          # conj(beta) = 4 - beta in [0, 1]


def test_bad_parameter_rejected():
    ps = enumerate_model_set(GOLDEN, Interval.unit(GOLDEN), Interval.closed(0, 5, GOLDEN))
    with pytest.raises(ParameterNotAdmissibleError):
        check_convexity(ps, 2 - GOLDEN.beta)        # conj = 1 + tau, outside [0, 1]


def test_missing_point_is_detected():
    tau = GOLDEN.beta
    span = Interval.closed(0, GOLDEN.element(2, 3), GOLDEN)  # up to tau^4
    full = enumerate_model_set(GOLDEN, Interval.unit(GOLDEN), span)
    hole = GOLDEN.element(1, 1)                     # drop the interior point 1 + tau
    assert hole in full
    broken = PointSet(GOLDEN, tuple(p for p in full if p != hole), span)
    report = check_convexity(broken, -tau, window=Interval.unit(GOLDEN))
    assert not report.ok
    assert all(v.combo == hole for v in report.violations)
    assert all(v.conj_in_window for v in report.violations)
    assert any((v.x, v.y) == (GOLDEN.zero, GOLDEN.one) for v in report.violations)


# -- window reconstruction ---------------------------------------------------


def test_reconstruct_window_seed_pair():
    rec = reconstruct_window([GOLDEN.zero, GOLDEN.one])
    assert rec.hull.lo == 0 and rec.hull.hi == 1
    assert rec.upper == () and rec.lower == ()


def test_reconstruct_window_chains():
    tau = GOLDEN.beta
    sample = [GOLDEN.element(2), tau, GOLDEN.one, GOLDEN.zero, GOLDEN.element(-1)]
    rec = reconstruct_window(sample)
    assert (rec.hull.lo, rec.hull.hi) == (QuadRat(GOLDEN.element(-1), 1), QuadRat(GOLDEN.element(2), 1))
    assert rec.upper == (tau, GOLDEN.element(2))
    assert rec.lower == (GOLDEN.element(-1),)


def test_reconstruct_window_gap_of_one_is_fine():
    rec = reconstruct_window([GOLDEN.zero, GOLDEN.one, GOLDEN.element(2)])
    assert rec.hull.hi == 2 and rec.upper == (GOLDEN.element(2),)


def test_reconstruct_window_broken_chain():
    with pytest.raises(ChainBrokenError) as exc:
        reconstruct_window([GOLDEN.zero, GOLDEN.one, GOLDEN.element(3)])
    assert exc.value.gap == 2


def test_reconstruct_window_needs_seeds():
    with pytest.raises(MissingSeedsError):
        reconstruct_window([])
    with pytest.raises(MissingSeedsError):
        reconstruct_window([GOLDEN.one, GOLDEN.beta])
    with pytest.raises(MissingSeedsError):
        reconstruct_window([GOLDEN.zero, GOLDEN.beta])
