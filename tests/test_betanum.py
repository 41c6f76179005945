"""Greedy digit expansions, admissibility, and the digit-string codec."""

import random

import pytest

from qcx import (
    DigitString,
    DigitRangeError,
    NonPositiveError,
    NotFiniteError,
    OutOfRangeError,
    ParseError,
    RingSpec,
    admissible_digits,
    evaluate,
    expand_greedy,
    has_finite_expansion,
    is_admissible,
    iter_admissible,
    representation_of_one,
)

GOLDEN = RingSpec(1, 1)
SILVER = RingSpec(2, 1)
MINUS4 = RingSpec(4, -1)
MINUS5 = RingSpec(5, -1)


# -- digit strings -----------------------------------------------------------


def test_digitstring_normalization():
    ds = DigitString(GOLDEN, 3, (0, 1, 0, 1, 0))
    assert ds.top == 2 and ds.digits == (1, 0, 1) and ds.bottom == 0
    empty = DigitString(GOLDEN, 5, (0, 0))
    assert empty.digits == () and empty.value() == 0
    with pytest.raises(DigitRangeError):
        DigitString(GOLDEN, 0, (2,))


def test_digitstring_text_round_trip():
    ds = DigitString.parse(GOLDEN, "10.01")
    assert ds.top == 1 and ds.digits == (1, 0, 0, 1)
    assert str(ds) == "10.01"
    assert evaluate(ds) == 2                      # tau + tau^-2 = 2
    assert str(DigitString.parse(GOLDEN, "0.01")) == "0.01"
    assert str(DigitString(MINUS4, -1, (3, 2))) == "0.32"
    assert DigitString.parse(MINUS4, "3 2 . 1").digits == (3, 2, 1)
    with pytest.raises(ParseError):
        DigitString.parse(GOLDEN, "1.0.1")
    with pytest.raises(ParseError):
        DigitString.parse(GOLDEN, "")
    with pytest.raises(ParseError):
        DigitString.parse(GOLDEN, "1x0")


def test_wide_digits_use_spaced_text():
    r = RingSpec(12, 1)
    ds = DigitString(r, 1, (11, 0, 10))
    assert str(ds) == "11 0 . 10"
    back = DigitString.parse(r, str(ds))
    assert back == ds


def test_fraction_digits_padding():
    ds = expand_greedy(2 - GOLDEN.beta)           # 0.01
    assert ds.top == -2 and ds.digits == (1,)
    assert ds.fraction_digits() == (0, 1)
    with pytest.raises(OutOfRangeError):
        expand_greedy(GOLDEN.beta).fraction_digits()


# -- greedy expansion --------------------------------------------------------


def test_expansion_examples():
    tau = GOLDEN.beta
    assert str(expand_greedy(GOLDEN.one)) == "1"
    assert str(expand_greedy(tau)) == "10"
    assert str(expand_greedy(tau * tau)) == "100"
    assert str(expand_greedy(GOLDEN.element(2))) == "10.01"
    assert str(expand_greedy(2 - tau)) == "0.01"
    ds3 = expand_greedy(MINUS4.element(3))
    assert evaluate(ds3) == 3 and is_admissible(ds3)
    big = MINUS4.element(572, -153)               # ~0.64, four digits
    ds = expand_greedy(big)
    assert ds.top == -1 and ds.digits == (3, 2, 2, 2)
    assert evaluate(ds) == big


def test_expansion_rejects_nonpositive():
    with pytest.raises(NonPositiveError):
        expand_greedy(GOLDEN.zero)
    with pytest.raises(NonPositiveError):
        expand_greedy(GOLDEN.element(-1))


def test_not_finite_in_minus_family():
    x = MINUS4.beta - 3                           # norm -2
    assert x.norm() == -2 and x.sign() > 0
    with pytest.raises(NotFiniteError) as exc:
        expand_greedy(x)
    assert exc.value.norm == -2
    assert not has_finite_expansion(x)
    assert has_finite_expansion(1 - x)            # the complement expands


def test_finiteness_predicate():
    rng = random.Random(42)
    for _ in range(500):
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        x = GOLDEN.element(a, b)
        assert has_finite_expansion(x)            # plus family: always
        y = MINUS4.element(a, b)
        assert has_finite_expansion(y) == (y.norm() >= 0)


def test_round_trip_small_grid():
    for ring in (GOLDEN, SILVER, MINUS4):
        for a in range(-12, 13):
            for b in range(-12, 13):
                x = ring.element(a, b)
                if x.sign() <= 0:
                    continue
                if ring.eps == -1 and x.norm() < 0:
                    continue
                ds = expand_greedy(x)
                assert evaluate(ds) == x
                assert is_admissible(ds)


def test_complement_dichotomy_minus_family():
    # for x strictly inside (0,1) exactly one of x, 1-x expands finitely
    rng = random.Random(2718)
    seen = 0
    for ring in (MINUS4, MINUS5):
        for _ in range(400):
            b = rng.randint(-60, 60)
            if b == 0:
                continue
            # fractional part of b*beta lies strictly inside (0, 1)
            x = ring.element(0, b) - (ring.element(0, b)).floor()
            assert x.sign() > 0 and (1 - x).sign() > 0
            assert x.norm() != 0
            assert has_finite_expansion(x) != has_finite_expansion(1 - x)
            seen += 1
    assert seen > 500


def test_digit_budget_below_one_rejected():
    for x in (GOLDEN.element(5), GOLDEN.one, MINUS4.beta - 3):
        for budget in (0, -3):
            with pytest.raises(OutOfRangeError):
                expand_greedy(x, budget)


# -- the pair kernel against the element loop ----------------------------------

KERNEL_RINGS = tuple(RingSpec(m, eps) for m, eps in
                     ((1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (7, -1), (6, -1)))


def ref_expand(x, max_depth=64):
    """The greedy loop on ring elements, as expand_greedy ran it before its pair kernel."""
    if x.sign() <= 0:
        raise NonPositiveError(f"greedy expansion needs x > 0, got {x}")
    top = 0
    r = x
    if (r - 1).sign() >= 0:
        while True:
            down = r.mul_beta_pow(-1)
            if (down - 1).sign() < 0:
                break
            r = down
            top += 1
    else:
        while (r - 1).sign() < 0:
            r = r.mul_beta_pow(1)
            top -= 1
    digits = []
    while True:
        d = r.floor()
        digits.append(d)
        r = r - d
        if r.a == 0 and r.b == 0:
            break
        if len(digits) >= max_depth:
            raise NotFiniteError(
                f"no finite expansion of {x} within depth {max_depth} (norm {x.norm()})",
                norm=x.norm(),
            )
        r = r.mul_beta_pow(1)
    return DigitString(x.ring, top, tuple(digits))


def outcome(f, x, *budget):
    try:
        return f(x, *budget)
    except (NonPositiveError, NotFiniteError) as exc:
        return type(exc), str(exc), getattr(exc, "norm", None)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=str)
def test_expand_kernel_matches_reference(ring):
    rng = random.Random(31 * ring.m + ring.eps)
    xs = [ring.zero, ring.element(-1), ring.element(3, -1), -ring.beta]
    for bits in (6, 20, 70, 90):
        for _ in range(30):
            xs.append(ring.element(rng.randint(-2**bits, 2**bits), rng.randint(-2**bits, 2**bits)))
    xs += [-x for x in xs]
    finite = infinite = 0
    for x in xs:
        for budget in ((), (1,), (2,), (3,), (1000,)):
            got = outcome(expand_greedy, x, *budget)
            assert got == outcome(ref_expand, x, *budget), (x, budget)
        if x.sign() > 0 and has_finite_expansion(x):
            finite += 1
            assert evaluate(expand_greedy(x, 1000)) == x
        elif x.sign() > 0:
            infinite += 1
            assert outcome(expand_greedy, x, 1000)[2] == x.norm() < 0
    assert finite > 40 and (infinite > 40 if ring.eps == -1 else infinite == 0)


# -- admissibility -----------------------------------------------------------


def test_admissible_plus_family():
    assert admissible_digits(GOLDEN, (1, 0, 1))
    assert not admissible_digits(GOLDEN, (1, 1))
    assert admissible_digits(GOLDEN, (1,))        # string may end at the top digit
    assert admissible_digits(SILVER, (2, 0, 2, 0, 1))
    assert not admissible_digits(SILVER, (2, 1))
    assert not admissible_digits(SILVER, (2, 2))
    assert admissible_digits(SILVER, (1, 2))
    with pytest.raises(DigitRangeError):
        admissible_digits(GOLDEN, (2,))


def test_admissible_minus_family():
    # forbidden shape: (m-1) (m-2)^k (m-1)
    assert admissible_digits(MINUS4, (3, 2, 2, 2))
    assert not admissible_digits(MINUS4, (3, 2, 2, 3))
    assert not admissible_digits(MINUS4, (3, 3))
    assert not admissible_digits(MINUS4, (3, 2, 3))
    assert admissible_digits(MINUS4, (3, 0, 3))
    assert admissible_digits(MINUS4, (2, 2, 2))
    assert admissible_digits(MINUS4, (3, 2, 1, 3))
    assert not admissible_digits(MINUS5, (4, 3, 3, 4))
    assert admissible_digits(MINUS5, (4, 3, 3, 2, 4))


def test_greedy_output_is_admissible_and_unique():
    # distinct values give distinct strings; lexicographic order matches value order
    for ring, length in ((GOLDEN, 6), (MINUS4, 5)):
        strings = [s for s in iter_admissible(ring, length)]
        # lexicographic enumeration comes out sorted
        assert strings == sorted(strings)
        values = [DigitString(ring, -1, s).value() for s in strings]
        for u, v in zip(values, values[1:]):
            assert u < v


def test_admissible_strings_are_greedy_fixed_points():
    # every admissible fraction string is reproduced by expand_greedy
    for ring, length in ((SILVER, 4), (MINUS4, 4)):
        for s in iter_admissible(ring, length):
            if not any(s):
                continue
            ds = DigitString(ring, -1, s)
            x = ds.value()
            assert expand_greedy(x) == ds


# -- the expansion of one ----------------------------------------------------


def test_representation_of_one():
    assert representation_of_one(GOLDEN) == ((1, 1), ())
    assert representation_of_one(SILVER) == ((2, 1), ())
    assert representation_of_one(MINUS4) == ((3,), (2,))
    assert representation_of_one(MINUS5) == ((4,), (3,))


def test_representation_of_one_partial_sums():
    # prefix + k cycle repetitions converge to 1 from below
    for ring in (MINUS4, MINUS5):
        prefix, cycle = representation_of_one(ring)
        digits = list(prefix)
        for _ in range(6):
            x = DigitString(ring, -1, tuple(digits)).value()
            assert x.sign() > 0 and (1 - x).sign() > 0
            digits += list(cycle)
    for ring in (GOLDEN, SILVER):
        prefix, cycle = representation_of_one(ring)
        assert cycle == ()
        assert DigitString(ring, -1, prefix).value() == 1
