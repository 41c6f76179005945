"""Exact arithmetic in the quadratic rings Z[beta], beta^2 = m*beta + eps.

Here eps is +1 or -1 and beta = (m + sqrt(m*m + 4*eps)) / 2 is the larger
root, a Pisot number whose Galois conjugate beta' = m - beta has absolute
value < 1.  Because beta * beta' = -eps, beta is a unit of the ring, so
multiplication and division by any power of beta stay inside Z[beta].

Every element is stored as an exact integer pair (a, b) meaning a + b*beta.
All predicates -- sign, ordering, floor, interval membership -- are decided
with integer arithmetic only; floats appear exclusively in display helpers.
The key primitive is the comparison of beta with a rational p/q (q > 0):

    beta > p/q  <=>  m*q - 2*p >= 0  or  (2*p - m*q)^2 < q*q*D

with D = m*m + 4*eps.  D is never a perfect square, so the comparison is
never an equality and the sign of a + b*beta with b != 0 is never zero.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, cmp_to_key, total_ordering
from itertools import islice
from math import gcd, isqrt
from typing import Iterable, Union

from .errors import OutOfRangeError, RingMismatchError

log = logging.getLogger("qcx.quadring")

# Fixed-point scale of the sort keys of _sorted_pairs (certified exactly afterwards).
_SQRT_BITS = 64


@dataclass(frozen=True)
class RingSpec:
    """Structural constants of one ring Z[beta] with beta^2 = m*beta + eps."""

    m: int
    eps: int

    def __post_init__(self) -> None:
        if self.eps not in (1, -1):
            raise OutOfRangeError(f"sign must be +1 or -1, got {self.eps!r}")
        if self.eps == 1 and self.m < 1:
            raise OutOfRangeError(f"plus family needs m >= 1, got m={self.m}")
        if self.eps == -1 and self.m < 4:
            # m = 3 with eps = -1 would give beta = (3 + sqrt(5))/2, whose ring
            # coincides with the m = 1, eps = +1 ring; smaller m is not Pisot.
            raise OutOfRangeError(
                f"minus family needs m >= 4, got m={self.m} "
                "(m=3,- generates the same ring as m=1,+)"
            )
        # D is never a perfect square for the admitted (m, eps), which is what
        # makes exact sign decisions free of ties.
        assert isqrt(self.disc) ** 2 != self.disc

    @classmethod
    def make(cls, m: int, sign: Union[int, str]) -> "RingSpec":
        """Build a ring from m and a sign given as +1/-1 or '+'/'-'."""
        if isinstance(sign, str):
            if sign not in ("+", "-"):
                raise OutOfRangeError(f"sign must be '+' or '-', got {sign!r}")
            sign = 1 if sign == "+" else -1
        return cls(m, sign)

    # -- derived constants ------------------------------------------------

    @cached_property
    def disc(self) -> int:
        """Discriminant D = m^2 + 4*eps; sqrt(D) = 2*beta - m."""
        return self.m * self.m + 4 * self.eps

    @cached_property
    def beta_float(self) -> float:
        return (self.m + self.disc**0.5) / 2.0

    @cached_property
    def beta_conj_float(self) -> float:
        return (self.m - self.disc**0.5) / 2.0

    @cached_property
    def digit_max(self) -> int:
        """floor(beta): the largest greedy digit (m for eps=+1, m-1 for eps=-1)."""
        return self.m if self.eps == 1 else self.m - 1

    @cached_property
    def _sqrt_disc_scaled(self) -> int:
        # floor(sqrt(D) * 2^_SQRT_BITS), the slope of the _sorted_pairs sort key.
        return isqrt(self.disc << (2 * _SQRT_BITS))

    # -- element factories ------------------------------------------------

    def element(self, a: int, b: int = 0) -> "QuadInt":
        return QuadInt(self, a, b)

    @cached_property
    def zero(self) -> "QuadInt":
        return QuadInt(self, 0, 0)

    @cached_property
    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    @cached_property
    def beta(self) -> "QuadInt":
        return QuadInt(self, 0, 1)

    @cached_property
    def inv_beta(self) -> "QuadInt":
        """1/beta = eps*(beta - m), again a ring integer because beta is a unit."""
        return QuadInt(self, -self.eps * self.m, self.eps)

    def __str__(self) -> str:
        return f"Z[beta], beta^2 = {self.m}*beta {'+' if self.eps == 1 else '-'} 1"


def ring_make(m: int, sign: Union[int, str]) -> RingSpec:
    """Convenience alias for :meth:`RingSpec.make`."""
    return RingSpec.make(m, sign)


# ---------------------------------------------------------------------------
# integer kernels (shared by QuadInt, QuadRat and the hot loops elsewhere)
# ---------------------------------------------------------------------------


def _sign_pair(ring: RingSpec, a: int, b: int) -> int:
    """Exact sign of a + b*beta, in {-1, 0, +1} (0 only when a = b = 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        # sign equals the sign of beta - (-a)/b
        t = -2 * a - ring.m * b
        if t < 0:
            return 1
        return 1 if b * b * ring.disc > t * t else -1
    q = -b
    # sign equals -sign(beta - a/q)
    t = 2 * a - ring.m * q
    if t < 0:
        return -1
    return -1 if q * q * ring.disc > t * t else 1


def _floor_pair(ring: RingSpec, a: int, b: int, den: int = 1) -> int:
    """Exact floor of (a + b*beta) / den for den > 0.

    2*den*x = 2a + m*b + b*sqrt(D), and with r = isqrt(D*b*b) the last term
    lies in [r, r + 1) for b > 0 and in (-r - 1, -r] for b < 0 (D*b*b is not
    a square).  So the estimate below is the floor at any size of the
    coordinates; the exact sign tests then certify n <= x < n + 1.
    """
    if b == 0:
        return a // den
    r = isqrt(ring.disc * b * b)
    n = (2 * a + ring.m * b + (r if b > 0 else -r - 1)) // (2 * den)
    # certify: x - n >= 0 and x - (n + 1) < 0
    while _sign_pair(ring, a - n * den, b) < 0:
        n -= 1
    while _sign_pair(ring, a - (n + 1) * den, b) >= 0:
        n += 1
    return n


def _decimal_pair(ring: RingSpec, a: int, b: int, den: int, digits: int) -> str:
    """Decimal rendering of (a + b*beta)/den, truncated toward zero."""
    if digits < 0:
        raise OutOfRangeError(f"decimal digit count must be nonnegative, got {digits}")
    neg = _sign_pair(ring, a, b) < 0
    if neg:
        a, b = -a, -b
    scale = 10**digits
    n = _floor_pair(ring, a * scale, b * scale, den)
    whole, frac = divmod(n, scale)
    sign = "-" if neg and n else ""
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


# ---------------------------------------------------------------------------
# ring integers
# ---------------------------------------------------------------------------


@total_ordering
class QuadInt:
    """An element a + b*beta of Z[beta], with exact integer coordinates."""

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: RingSpec, a: int, b: int = 0):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QuadInt is immutable")

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "QuadInt | None":
        if isinstance(other, QuadInt):
            # identity first: the dataclass __eq__ of RingSpec is the slow path
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    f"operands from different rings: {self.ring} vs {other.ring}"
                )
            return other
        if isinstance(other, int):
            return QuadInt(self.ring, other, 0)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.ring, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.ring, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.ring, o.a - self.a, o.b - self.b)

    def __neg__(self):
        return QuadInt(self.ring, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self.ring
        a, b, c, d = self.a, self.b, o.a, o.b
        # (a + b*beta)(c + d*beta) with beta^2 = m*beta + eps
        return QuadInt(r, a * c + r.eps * b * d, a * d + b * c + r.m * b * d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise OutOfRangeError("negative powers leave the ring; divide explicitly")
        out, base = self.ring.one, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other) -> "QuadRat":
        if isinstance(other, int):
            return QuadRat(self, other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        return QuadRat(self * o.conj(), n)

    def __rtruediv__(self, other) -> "QuadRat":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- Galois structure -------------------------------------------------

    def conj(self) -> "QuadInt":
        """Image under the ring automorphism beta -> beta' = m - beta."""
        return QuadInt(self.ring, self.a + self.b * self.ring.m, -self.b)

    def norm(self) -> int:
        """Field norm N(x) = x * conj(x) = a^2 + m*a*b - eps*b^2."""
        return self.a * self.a + self.ring.m * self.a * self.b - self.ring.eps * self.b * self.b

    def trace(self) -> int:
        """Field trace x + conj(x) = 2*a + m*b."""
        return 2 * self.a + self.ring.m * self.b

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def divides(self, x: "QuadInt") -> "QuadInt | None":
        """Quotient x / self when it lies in the ring, else None.

        Works through the automorphism: x / d = x * conj(d) / N(d), which is a
        ring integer exactly when N(d) divides both coordinates.
        """
        o = self._coerce(x)
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero divides nothing")
        p = o * self.conj()
        if p.a % n or p.b % n:
            return None
        return QuadInt(self.ring, p.a // n, p.b // n)

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        return _sign_pair(self.ring, self.a, self.b)

    def floor(self) -> int:
        return _floor_pair(self.ring, self.a, self.b, 1)

    def __eq__(self, other):
        if isinstance(other, QuadInt):
            if self.ring is other.ring or self.ring == other.ring:
                return self.a == other.a and self.b == other.b
            # rational integers are ring-independent; beta multiples are not
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, int):
            return self.a == other and self.b == 0
        return NotImplemented

    def __lt__(self, other):
        if type(other) is QuadInt and other.ring is self.ring:  # sort fast path
            return _sign_pair(self.ring, self.a - other.a, self.b - other.b) < 0
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sign_pair(self.ring, self.a - o.a, self.b - o.b) < 0

    def __hash__(self):
        if self.b == 0:  # match hash(int) so x == n implies equal hashes
            return hash(self.a)
        return hash((self.ring.m, self.ring.eps, self.a, self.b))

    # -- beta scaling and display -----------------------------------------

    def mul_beta_pow(self, k: int) -> "QuadInt":
        """Multiply by beta^k (k may be negative; beta is a unit)."""
        a, b = self.a, self.b
        m, eps = self.ring.m, self.ring.eps
        if k >= 0:
            for _ in range(k):
                a, b = eps * b, a + m * b
        else:
            for _ in range(-k):
                a, b = b - eps * m * a, eps * a
        return QuadInt(self.ring, a, b)

    def decimal_str(self, digits: int = 4) -> str:
        """Decimal approximation truncated toward zero, e.g. '1.6180'."""
        return _decimal_pair(self.ring, self.a, self.b, 1, digits)

    def __float__(self) -> float:
        return self.a + self.b * self.ring.beta_float

    def conj_float(self) -> float:
        return self.a + self.b * self.ring.beta_conj_float

    def __repr__(self) -> str:
        return f"QuadInt({self.ring.m}, {self.ring.eps:+d}; {self.a}, {self.b})"

    def __str__(self) -> str:
        return f"{self.a},{self.b}"


def _quadints(ring: RingSpec, pairs: Iterable, oa: int = 0, ob: int = 0) -> list[QuadInt]:
    """The elements (a + oa) + (b + ob)*beta of ``ring``, set slot by slot, not by __init__."""
    new, set_ring = object.__new__, QuadInt.ring.__set__
    set_a, set_b = QuadInt.a.__set__, QuadInt.b.__set__
    out = []
    for a, b in pairs:
        p = new(QuadInt)
        set_ring(p, ring)
        set_a(p, a + oa)
        set_b(p, b + ob)
        out.append(p)
    return out


def _sorted_pairs(ring: RingSpec, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The pairs (a, b) in exact increasing order of a + b*beta.

    A sort on the integer key 2^(_SQRT_BITS+1) * x, rounded with an error below
    |b|, puts in order every two elements whose values differ by more than
    that error.  One exact sign test per adjacent pair then certifies the
    order; if any test fails, an exact comparison sort of the nearly sorted
    list repairs it.  Either way the final order is decided by exact integer
    sign tests, never by the key alone.
    """
    m, sqrt_disc = ring.m, ring._sqrt_disc_scaled
    keys = [((2 * a + m * b) << _SQRT_BITS) + b * sqrt_disc for a, b in pairs]
    out = [pairs[i] for i in sorted(range(len(pairs)), key=keys.__getitem__)]
    for (xa, xb), (ya, yb) in zip(out, islice(out, 1, None)):
        if _sign_pair(ring, ya - xa, yb - xb) <= 0:
            if log.isEnabledFor(logging.DEBUG):
                log.debug("exact repair sort: %d points, first failed certificate at %d",
                          len(out), out.index((xa, xb)))
            out.sort(key=cmp_to_key(lambda x, y: _sign_pair(ring, x[0] - y[0], x[1] - y[1])))
            break
    return out


# ---------------------------------------------------------------------------
# field elements with denominators
# ---------------------------------------------------------------------------


@total_ordering
class QuadRat:
    """An element of Q(beta) stored as num/den with num in Z[beta], den > 0.

    Representations are normalized: den > 0 and gcd(num.a, num.b, den) = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QuadInt, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(abs(num.a), abs(num.b)), den)
        if g > 1:
            num = QuadInt(num.ring, num.a // g, num.b // g)
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QuadRat is immutable")

    @property
    def ring(self) -> RingSpec:
        return self.num.ring

    def _coerce(self, other) -> "QuadRat | None":
        if isinstance(other, QuadRat):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError("operands from different rings")
            return other
        if isinstance(other, QuadInt):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError("operands from different rings")
            return QuadRat(other, 1)
        if isinstance(other, int):
            return QuadRat(QuadInt(self.ring, other, 0), 1)
        return None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRat(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRat(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QuadRat(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRat(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            return QuadRat(self.num, self.den * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.num.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        return QuadRat(self.num * o.num.conj() * o.den, self.den * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- structure / order -------------------------------------------------

    def conj(self) -> "QuadRat":
        return QuadRat(self.num.conj(), self.den)

    def sign(self) -> int:
        return self.num.sign()

    def floor(self) -> int:
        return _floor_pair(self.ring, self.num.a, self.num.b, self.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def __eq__(self, other):
        # representations are normalized, so equal values have equal (num, den);
        # QuadInt.__eq__ on the numerators handles other rings like QuadInt does
        if isinstance(other, QuadRat):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (QuadInt, int)):
            return self.den == 1 and self.num == other
        return NotImplemented

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __hash__(self):
        if self.den == 1:  # match the QuadInt hash when the value is integral
            return hash(self.num)
        return hash((self.num, self.den))

    def decimal_str(self, digits: int = 4) -> str:
        return _decimal_pair(self.ring, self.num.a, self.num.b, self.den, digits)

    def __float__(self) -> float:
        return float(self.num) / self.den

    def conj_float(self) -> float:
        return self.num.conj_float() / self.den

    def __repr__(self) -> str:
        return f"QuadRat({self.num!r} / {self.den})"

    def __str__(self) -> str:
        return f"{self.num.a},{self.num.b}" + (f"/{self.den}" if self.den != 1 else "")
