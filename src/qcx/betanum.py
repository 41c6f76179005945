"""Greedy beta-expansions and digit-string admissibility for Z[beta].

Digits of x > 0 are produced top-down: with k the largest exponent such that
beta^k <= x, the leading digit is floor(x / beta^k) and the remainder is fed
back through multiplication by beta.  Because beta is a unit, every remainder
stays inside Z[beta] and all steps are exact.  The digit loop runs on the
integer coordinates (a, b) of the remainder, with the exact sign and floor
kernels of ``quadring``; ``convexity.witness_for`` calls it the same way.

Admissibility follows the classical lexicographic criterion against the
expansion of 1, which here is

    eps = +1:   1 = m/beta + 1/beta^2                (digits m, 1)
    eps = -1:   1 = (m-1)/beta + (m-2)/beta^2 + ...  (digits (m-1), then (m-2) repeating)

For finite strings (padded by zeros) this reduces to a local rule: with
eps = +1 every digit m must be followed by 0; with eps = -1 no two digits
m-1 may be separated only by digits m-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DigitRangeError,
    NonPositiveError,
    NotFiniteError,
    OutOfRangeError,
    ParseError,
)
from .quadring import QuadInt, RingSpec, _floor_pair, _sign_pair

DEFAULT_MAX_DEPTH = 64


@dataclass(frozen=True)
class DigitString:
    """A finite beta-adic digit string: value = sum digits[i] * beta^(top - i).

    Stored normalized: no leading or trailing zero digit (``top`` is adjusted
    when leading zeros are stripped).  The zero value is the empty string.
    """

    ring: RingSpec
    top: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        digits = tuple(self.digits)
        cap = self.ring.digit_max
        for d in digits:
            if not 0 <= d <= cap:
                raise DigitRangeError(f"digit {d} outside 0..{cap}")
        top = self.top
        while digits and digits[0] == 0:
            digits = digits[1:]
            top -= 1
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        if not digits:
            top = 0
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "digits", digits)

    @property
    def bottom(self) -> int:
        """Exponent of the last stored digit (0 for the empty string)."""
        return self.top - len(self.digits) + 1 if self.digits else 0

    def value(self) -> QuadInt:
        """Exact value in Z[beta] (Horner evaluation, then a beta shift)."""
        acc = self.ring.zero
        for d in self.digits:
            acc = acc.mul_beta_pow(1) + d
        return acc.mul_beta_pow(self.bottom)

    def fraction_digits(self) -> tuple[int, ...]:
        """Digits at exponents -1, -2, ... for a purely fractional string."""
        if self.digits and self.top >= 0:
            raise OutOfRangeError(
                f"string has digits at exponent {self.top} >= 0; not purely fractional"
            )
        return (0,) * (-self.top - 1) + self.digits if self.digits else ()

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.digits:
            return "0"
        hi = max(self.top, 0)
        by_exp = {self.top - i: d for i, d in enumerate(self.digits)}
        whole = [by_exp.get(e, 0) for e in range(hi, -1, -1)]
        frac = [by_exp.get(e, 0) for e in range(-1, self.bottom - 1, -1)]
        if all(d <= 9 for d in self.digits):
            text = "".join(map(str, whole))
            if frac:
                text += "." + "".join(map(str, frac))
        else:
            text = " ".join(map(str, whole))
            if frac:
                text += " . " + " ".join(map(str, frac))
        return text

    @classmethod
    def parse(cls, ring: RingSpec, text: str) -> "DigitString":
        """Inverse of ``str``: '10.01', '0.2', '100', or space-separated digits."""
        text = text.strip()
        if not text:
            raise ParseError("empty digit string", 0)
        if " " in text or "," in text:
            tokens = text.replace(",", " ").split()
        else:
            tokens = list(text)
        whole: list[int] = []
        frac: list[int] = []
        seen_dot = False
        bucket = whole
        for i, tok in enumerate(tokens):
            if tok == ".":
                if seen_dot:
                    raise ParseError("second '.' in digit string", i)
                seen_dot = True
                bucket = frac
                continue
            if not tok.isdigit():
                raise ParseError(f"bad digit token {tok!r}", i)
            bucket.append(int(tok))
        if not whole and not frac:
            raise ParseError("no digits", 0)
        return cls(ring, len(whole) - 1 if whole else -1, tuple(whole + frac))


def representation_of_one(ring: RingSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Digits of 1 at exponents -1, -2, ... as (preperiodic prefix, repeating cycle).

    The cycle stays symbolic; it is never expanded.
    """
    if ring.eps == 1:
        return (ring.m, 1), ()
    return (ring.m - 1,), (ring.m - 2,)


def _expand_pair(
    ring: RingSpec, a: int, b: int, max_depth: int | None
) -> tuple[int, list[int] | None]:
    """Greedy expansion of a + b*beta > 0 on its integer coordinates.

    Returns (top, digits): the digits at exponents top, top-1, ..., the first
    and last of them nonzero.  ``digits`` is None when the expansion has not
    closed out after ``max_depth`` digits; None as budget means no budget, for
    callers that have decided finiteness beforehand.
    """
    m, eps = ring.m, ring.eps
    # locate top exponent: beta^top <= x < beta^(top+1), i.e. x*beta^(-top) in [1, beta)
    top = 0
    if _sign_pair(ring, a - 1, b) >= 0:
        while True:
            da, db = b - eps * m * a, eps * a  # x / beta
            if _sign_pair(ring, da - 1, db) < 0:
                break
            a, b = da, db
            top += 1
    else:
        while _sign_pair(ring, a - 1, b) < 0:
            a, b = eps * b, a + m * b  # x * beta
            top -= 1
    digits: list[int] = []
    while True:
        d = _floor_pair(ring, a, b)
        digits.append(d)
        a -= d
        if a == 0 and b == 0:
            return top, digits
        if len(digits) == max_depth:
            return top, None
        a, b = eps * b, a + m * b


def expand_greedy(x: QuadInt, max_depth: int = DEFAULT_MAX_DEPTH) -> DigitString:
    """Greedy expansion of x > 0; raises NotFiniteError if it does not close out
    within ``max_depth`` digits, and OutOfRangeError if ``max_depth`` < 1.

    The expansion of x in Z[beta] terminates for every x > 0 when eps = +1,
    and exactly when N(x) >= 0 when eps = -1; in the latter case the error's
    ``norm`` attribute certifies the failure.
    """
    if max_depth < 1:
        raise OutOfRangeError(f"digit budget must be at least 1, got {max_depth}")
    if x.sign() <= 0:
        raise NonPositiveError(f"greedy expansion needs x > 0, got {x}")
    top, digits = _expand_pair(x.ring, x.a, x.b, max_depth)
    if digits is None:
        raise NotFiniteError(
            f"no finite expansion of {x} within depth {max_depth} (norm {x.norm()})",
            norm=x.norm(),
        )
    return DigitString(x.ring, top, tuple(digits))


def admissible_digits(ring: RingSpec, digits: Sequence[int]) -> bool:
    """Local admissibility test on a raw digit sequence (most significant first)."""
    m = ring.m
    cap = ring.digit_max
    if ring.eps == 1:
        prev_was_max = False
        for d in digits:
            if not 0 <= d <= cap:
                raise DigitRangeError(f"digit {d} outside 0..{cap}")
            if prev_was_max and d != 0:
                return False
            prev_was_max = d == m
        return True
    hot = False  # inside a run (m-1)(m-2)* whose continuation is constrained
    for d in digits:
        if not 0 <= d <= cap:
            raise DigitRangeError(f"digit {d} outside 0..{cap}")
        if hot and d == m - 1:
            return False
        hot = d == m - 1 or (hot and d == m - 2)
    return True


def is_admissible(ds: DigitString) -> bool:
    """True iff the string could have been produced by the greedy algorithm."""
    return admissible_digits(ds.ring, ds.digits)


def has_finite_expansion(x: QuadInt) -> bool:
    """Membership in the set of finitely expandable numbers (closed under negation).

    For eps = +1 every ring element expands finitely; for eps = -1 exactly the
    elements of nonnegative norm do.
    """
    return True if x.ring.eps == 1 else x.norm() >= 0


def evaluate(ds: DigitString) -> QuadInt:
    """Functional alias for :meth:`DigitString.value`."""
    return ds.value()


def iter_admissible(ring: RingSpec, length: int) -> Iterable[tuple[int, ...]]:
    """All admissible digit tuples of exactly ``length`` positions, lexicographic.

    Tuples may carry leading/trailing zeros; used for exhaustive small scans.
    """
    cap = ring.digit_max
    m = ring.m
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], hot_or_max: bool) -> None:
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for d in range(cap + 1):
            if ring.eps == 1:
                if hot_or_max and d != 0:
                    continue
                rec(prefix + [d], d == m)
            else:
                if hot_or_max and d == m - 1:
                    continue
                rec(prefix + [d], d == m - 1 or (hot_or_max and d == m - 2))

    rec([], False)
    return out
