"""Exact ring arithmetic: construction, automorphism, order, floors, printing."""

import random
import time
from math import isqrt

import pytest
from mpmath import mp, mpf, sqrt as mpsqrt

import qcx.quadring
from qcx import (
    OutOfRangeError,
    QuadInt,
    QuadRat,
    RingSpec,
    RingMismatchError,
    ring_make,
    verify_witness,
    witness_for,
)
from qcx.quadring import _floor_pair, _sign_pair

mp.dps = 50

GOLDEN = RingSpec(1, 1)       # beta = (1+sqrt5)/2
SILVER = RingSpec(2, 1)       # beta = 1+sqrt2
MINUS4 = RingSpec(4, -1)      # beta = 2+sqrt3
RINGS = [GOLDEN, SILVER, RingSpec(3, 1), MINUS4, RingSpec(5, -1), RingSpec(7, -1)]


def beta_mp(ring):
    return (ring.m + mpsqrt(mpf(ring.disc))) / 2


def to_mp(x):
    if isinstance(x, QuadRat):
        return (x.num.a + x.num.b * beta_mp(x.ring)) / x.den
    return x.a + x.b * beta_mp(x.ring)


# -- ring construction -------------------------------------------------------


def test_ring_validation():
    assert RingSpec(1, 1).disc == 5
    assert RingSpec(4, -1).disc == 12
    with pytest.raises(ValueError):
        RingSpec(0, 1)
    with pytest.raises(ValueError):
        RingSpec(2, -1)
    with pytest.raises(ValueError):
        RingSpec(3, -1)  # same ring as (1,+1)
    with pytest.raises(ValueError):
        RingSpec(1, 2)
    assert RingSpec.make(4, "-") == RingSpec(4, -1)
    assert ring_make(1, "+") == RingSpec(1, 1)
    with pytest.raises(ValueError):
        RingSpec.make(1, "x")


def test_ring_constants():
    assert GOLDEN.digit_max == 1
    assert SILVER.digit_max == 2
    assert MINUS4.digit_max == 3
    assert RingSpec(5, -1).digit_max == 4
    # discriminant is never a perfect square for an admitted ring
    for ring in RINGS:
        r = ring.disc
        s = int(r ** 0.5)
        assert all(k * k != r for k in (s - 1, s, s + 1))


def test_beta_is_unit():
    for ring in RINGS:
        assert ring.beta * ring.inv_beta == ring.one
        assert ring.beta.is_unit()
        assert ring.inv_beta.is_unit()
        # beta solves its defining equation
        assert ring.beta * ring.beta == ring.m * ring.beta + ring.eps


# -- element arithmetic ------------------------------------------------------


def test_basic_identities():
    tau = GOLDEN.beta
    assert tau * tau == 1 + tau                       # tau^2 = tau + 1
    assert (1 + tau) * (2 - tau) == 1                 # tau^2 * tau^-2 = 1
    b = MINUS4.beta
    assert b * b == 4 * b - 1
    assert MINUS4.inv_beta == 4 - b


def test_conjugation_is_automorphism():
    rng = random.Random(20240817)
    for ring in RINGS:
        for _ in range(2000):
            x = ring.element(rng.randint(-999, 999), rng.randint(-999, 999))
            y = ring.element(rng.randint(-999, 999), rng.randint(-999, 999))
            assert (x + y).conj() == x.conj() + y.conj()
            assert (x * y).conj() == x.conj() * y.conj()
            assert x.conj().conj() == x
            assert x.norm() == (x * x.conj()).a and (x * x.conj()).b == 0
            assert x.trace() == x + x.conj()
            assert (x * y).norm() == x.norm() * y.norm()


def test_pow_and_beta_shift():
    rng = random.Random(7)
    for ring in RINGS:
        x = ring.element(rng.randint(-9, 9), rng.randint(-9, 9))
        assert x ** 0 == 1
        assert x ** 3 == x * x * x
        y = ring.element(5, -2)
        assert y.mul_beta_pow(3) == y * ring.beta ** 3
        assert y.mul_beta_pow(-2).mul_beta_pow(2) == y
        with pytest.raises(ValueError):
            x ** -1


def test_division_and_divides():
    tau = GOLDEN.beta
    assert (1 + tau) / tau == tau
    q = GOLDEN.element(1) / 2
    assert isinstance(q, QuadRat) and q.den == 2
    # (4 - beta) has norm 3 in the (3,+1) ring and does not divide 2
    r3 = RingSpec(3, 1)
    s = r3.element(4, -1)
    assert s.norm() == 3
    assert s.divides(r3.element(2)) is None
    assert (r3.beta - 3).norm() == -1           # a unit divides everything
    assert (r3.beta - 3).divides(r3.element(2)) is not None
    # exact quotient comes back when division is exact
    x = MINUS4.element(7, -2) * MINUS4.element(3, 5)
    q = MINUS4.element(7, -2).divides(x)
    assert q == MINUS4.element(3, 5)
    with pytest.raises(ZeroDivisionError):
        MINUS4.zero.divides(x)


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        GOLDEN.beta + SILVER.beta
    # beta means different numbers in different rings; plain integers do not
    assert not (GOLDEN.beta == SILVER.beta)
    assert GOLDEN.one == SILVER.one
    assert GOLDEN.one == 1 and SILVER.one == 1


# -- exact order -------------------------------------------------------------


def test_sign_against_high_precision_floats():
    rng = random.Random(555)
    for ring in RINGS:
        bmp = beta_mp(ring)
        for _ in range(3000):
            a = rng.randint(-10**6, 10**6)
            b = rng.randint(-10**6, 10**6)
            x = ring.element(a, b)
            approx = a + b * bmp
            expect = 0 if (a, b) == (0, 0) else (1 if approx > 0 else -1)
            assert x.sign() == expect


def test_sign_near_zero_stress():
    # convergents of beta make a + b*beta tiny; exact sign must still resolve
    for ring in RINGS:
        x = ring.one
        for _ in range(40):
            x = x.mul_beta_pow(-1)   # beta^-40, positive but ~1e-17 and smaller
            assert x.sign() == 1
            assert (-x).sign() == -1


def test_total_order():
    tau = GOLDEN.beta
    vals = [GOLDEN.zero, GOLDEN.one, tau, 1 + tau, 2 - tau, GOLDEN.element(-1, 1)]
    ordered = sorted(vals)
    floats = sorted(float(v) for v in vals)
    assert [float(v) for v in ordered] == pytest.approx(floats)
    assert tau > 1 and tau < 2 and 2 - tau < 1


def test_floor_certified():
    rng = random.Random(99)
    for ring in RINGS:
        for _ in range(2000):
            x = ring.element(rng.randint(-10**5, 10**5), rng.randint(-10**5, 10**5))
            f = x.floor()
            assert (x - f).sign() >= 0
            assert (f + 1 - x).sign() > 0


def test_floor_examples():
    tau = GOLDEN.beta
    assert tau.floor() == 1
    assert (tau * tau).floor() == 2
    assert (-tau).floor() == -2
    b = MINUS4.beta
    assert b.floor() == 3
    assert (-b).floor() == -4
    assert (5 - b).floor() == 1
    assert GOLDEN.element(7).floor() == 7
    assert QuadRat(GOLDEN.element(1, 1), 2).floor() == 1   # (1+tau)/2 ~ 1.309


def fixed_point_floor(ring, a, b, den=1):
    """Reference floor from a 64-bit fixed-point sqrt(D), corrected one unit
    at a time; exact, but the steps grow like |b| / 2^64."""
    if b == 0:
        return a // den
    t = ((2 * a + b * ring.m) << 64) + b * isqrt(ring.disc << 128)
    n = t // ((den << 64) << 1)
    while _sign_pair(ring, a - n * den, b) < 0:
        n -= 1
    while _sign_pair(ring, a - (n + 1) * den, b) >= 0:
        n += 1
    return n


BENCH_RINGS = [ring_make(*key) for key in ((1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (7, -1), (6, -1))]


@pytest.mark.parametrize("ring", BENCH_RINGS, ids=[f"{r.m},{r.eps:+d}" for r in BENCH_RINGS])
def test_floor_matches_fixed_point_reference(ring):
    rng = random.Random(ring.m * 10 + ring.eps)
    for _ in range(3000):
        bits = rng.randint(1, 60)
        a = rng.randint(-(1 << bits), 1 << bits)
        b = rng.randint(-(1 << bits), 1 << bits)
        den = rng.randint(1, 1 << rng.randint(1, 60))
        assert _floor_pair(ring, a, b, den) == fixed_point_floor(ring, a, b, den), (a, b, den)


def test_floor_needs_no_correction_steps_at_any_size(monkeypatch):
    calls = []

    def counting_sign(ring, a, b):
        calls.append(1)
        return _sign_pair(ring, a, b)

    monkeypatch.setattr(qcx.quadring, "_sign_pair", counting_sign)
    rng = random.Random(50)
    for ring in BENCH_RINGS:
        for _ in range(200):
            a, b = rng.randint(-(10**50), 10**50), rng.randint(-(10**50), 10**50)
            den = rng.randint(1, 10**rng.randint(1, 40))
            calls.clear()
            n = _floor_pair(ring, a, b, den)
            assert len(calls) == 2           # the two certifying sign tests only
            x = QuadRat(ring.element(a, b), den)
            assert (x - n).sign() >= 0 and (n + 1 - x).sign() > 0


def test_witness_for_a_tiny_power_of_beta():
    # floor() of beta^-160 has coordinates near 10^33: the unit-step
    # correction of a 64-bit estimate did not finish within a minute
    x = GOLDEN.one.mul_beta_pow(-160)
    t0 = time.perf_counter()
    assert verify_witness(witness_for(GOLDEN, x), x)
    assert time.perf_counter() - t0 < 10


# -- rationals ---------------------------------------------------------------


def test_quadrat_normalization_and_arithmetic():
    half = GOLDEN.element(1) / 2
    third = QuadRat(GOLDEN.element(2, 2), 6)
    assert third.den == 3 and third.num == GOLDEN.element(1, 1)
    assert QuadRat(GOLDEN.element(2), -4).den == 2      # sign moves to numerator
    assert half + half == 1
    assert half * 2 == 1
    assert (half + third) * 6 == GOLDEN.element(3) + GOLDEN.element(2, 2)
    assert half < 1 and half > 0
    assert half.conj() == half
    assert not half.is_integral() and (half * 2).is_integral()
    tau = GOLDEN.beta
    assert QuadRat(tau, 1) / tau == 1
    with pytest.raises(ZeroDivisionError):
        half / 0
    with pytest.raises(ZeroDivisionError):
        QuadRat(tau, 0)


def test_quadrat_mixed_comparison():
    tau_half = QuadRat(GOLDEN.beta, 2)      # ~0.809
    assert tau_half < GOLDEN.one
    assert tau_half < 1
    assert GOLDEN.zero < tau_half
    assert hash(QuadRat(GOLDEN.element(2), 2)) == hash(GOLDEN.one)


def test_quadrat_equality_across_rings():
    # like QuadInt: rational values are equal in every ring, beta multiples never
    assert QuadRat(GOLDEN.beta) != SILVER.beta and SILVER.beta != QuadRat(GOLDEN.beta)
    assert QuadRat(GOLDEN.beta, 2) != QuadRat(SILVER.beta, 2)
    assert QuadRat(GOLDEN.element(6), 4) == QuadRat(SILVER.element(3), 2) == QuadRat(MINUS4.element(3), 2)
    assert QuadRat(GOLDEN.one) == SILVER.one and QuadRat(GOLDEN.element(4), 2) == 2
    assert hash(QuadRat(GOLDEN.element(3), 2)) == hash(QuadRat(SILVER.element(3), 2))
    mixed = [SILVER.beta, QuadRat(SILVER.beta, 3), MINUS4.one]
    assert QuadRat(GOLDEN.beta) not in mixed and QuadRat(GOLDEN.beta, 3) not in mixed
    assert QuadRat(GOLDEN.one) in mixed
    assert len({QuadRat(GOLDEN.element(1), 2), QuadRat(SILVER.element(1), 2), QuadRat(GOLDEN.beta, 2)}) == 2
    with pytest.raises(RingMismatchError):
        QuadRat(GOLDEN.beta) < SILVER.beta


# -- printing ----------------------------------------------------------------


def test_decimal_truncation():
    assert MINUS4.beta.decimal_str(4) == "3.7320"     # 3.73205..., truncated
    assert GOLDEN.beta.decimal_str(4) == "1.6180"
    assert GOLDEN.element(1, -1).decimal_str(4) == "-0.6180"
    assert GOLDEN.element(5).decimal_str(2) == "5.00"
    assert GOLDEN.zero.decimal_str(3) == "0.000"
    assert GOLDEN.beta.decimal_str(0) == "1"


def test_str_and_hash():
    x = GOLDEN.element(3, -2)
    assert str(x) == "3,-2"
    assert str(QuadRat(x, 5)) == "3,-2/5"
    assert str(QuadRat(x, 1)) == "3,-2"
    seen = {GOLDEN.zero, GOLDEN.one, GOLDEN.element(1)}
    assert len(seen) == 2


def test_float_views():
    tau = GOLDEN.beta
    assert float(tau) == pytest.approx(1.6180339887, abs=1e-9)
    assert tau.conj_float() == pytest.approx(-0.6180339887, abs=1e-9)
    assert float(to_mp(tau)) == pytest.approx(float(tau))


def test_immutability():
    x = GOLDEN.element(1, 2)
    with pytest.raises(AttributeError):
        x.a = 5
    with pytest.raises(AttributeError):
        QuadRat(x, 3).den = 1
