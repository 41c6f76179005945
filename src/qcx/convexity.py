"""Two-point convex combinations over Z[beta]: closures, witnesses, certificates.

The binary operation with parameter s is  x, y -> s*x + (1-s)*y.  On the
window side the useful parameters are s' = i/beta for 1 <= i <= floor(beta);
each such operation is a genuine convex combination, so iterating it from the
seed pair {c, c+1} can only produce points of the interval [c, c+1].  The
central construction of this module proves the converse: every ring element
of [0, 1] is reachable, and the reachability certificate is a *witness tree*
whose leaves name the two seeds and whose internal nodes carry op indices.

Main entry points
-----------------
- ``apply_op`` / ``closure_bfs``: forward generation.
- ``witness_for`` / ``verify_witness``: certificate construction and checking.
- ``reduce_witness`` / ``find_rewrite_template``: rewriting all op indices
  below the cap floor((m+-1)/2) using exact operator identities.
- ``flatten_to_binomial``: the normal form sum b_i s^i (1-s)^(n-i) with
  0 <= b_i <= C(n, i) for single-parameter witnesses.
- ``divisibility_filter`` / ``classify_forcing`` / ``forcing_sweep`` /
  ``characterizing_params``: arithmetic certificates deciding which
  parameters can force or characterize model sets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, reduce
from itertools import chain, compress, count, repeat
from math import comb, gcd, isqrt
from operator import add, or_
from typing import Iterable, Sequence, Union

from .betanum import expand_greedy, has_finite_expansion
from .errors import (
    BudgetExceededError,
    DepthTooSmallError,
    DigitRangeError,
    MissingSeedsError,
    MixedParameterError,
    NoRewriteError,
    NotInRingError,
    OutOfRangeError,
    OutOfWindowError,
    ParseError,
    RingMismatchError,
)
from .modelset import Interval, PointSet, _same_ring
from .quadring import QuadInt, QuadRat, RingSpec, _quadints, _sign_pair, _sorted_pairs

log = logging.getLogger("qcx.convexity")

Scalar = Union[QuadInt, QuadRat, int]

# Witness.to_dict and the CLI refuse witnesses unrolling to more nodes.
_SERIALIZE_LIMIT = 200_000


# ---------------------------------------------------------------------------
# witness trees
# ---------------------------------------------------------------------------


class Leaf:
    """A seed reference: index 0 or 1 into the witness seed pair."""

    __slots__ = ("idx",)

    def __init__(self, idx: int):
        self.idx = idx

    def __repr__(self) -> str:
        return f"Leaf({self.idx})"


class Node:
    """left ⊢ right with weight op/beta on the left operand."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: int, left, right):
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"Node({self.op}, {self.left!r}, {self.right!r})"


LEAF_ZERO = Leaf(0)
LEAF_ONE = Leaf(1)

TreeNode = Union[Leaf, Node]


def same_tree(a: TreeNode, b: TreeNode) -> bool:
    """Structural equality of two witness trees."""
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        return a.idx == b.idx
    if isinstance(a, Node) and isinstance(b, Node):
        return a.op == b.op and same_tree(a.left, b.left) and same_tree(a.right, b.right)
    return False


def _pair_shift_down(m: int, eps: int, a: int, b: int) -> tuple[int, int]:
    # (a + b*beta)/beta, exact because beta is a unit
    return b - eps * m * a, eps * a


def _evaluator(ring: RingSpec, leaf0: tuple[int, int], leaf1: tuple[int, int], memo: dict):
    """Memoised exact evaluation of witness nodes as (a, b) pairs.

    Returns ``rec(node)``; node = right + op*(left-right)/beta, a leaf is
    ``leaf1`` if its index is nonzero and ``leaf0`` otherwise.  Every node
    evaluated, leaves included, is a key of ``memo``; callers sharing one
    memo share the work on common subtrees.
    """
    m, eps = ring.m, ring.eps

    def rec(n) -> tuple[int, int]:
        v = memo.get(n)
        if v is not None:
            return v
        if isinstance(n, Leaf):
            v = leaf1 if n.idx else leaf0
        else:
            la, lb = rec(n.left)
            ra, rb = rec(n.right)
            da, db = n.op * (la - ra), n.op * (lb - rb)
            v = (ra + db - eps * m * da, rb + eps * da)
        memo[n] = v
        return v

    return rec


def _check_index(n: TreeNode, dmax: int) -> None:
    """Raise DigitRangeError unless ``n`` is leaf 0 or 1 or has op index 1..dmax."""
    if isinstance(n, Leaf):
        if n.idx not in (0, 1):
            raise DigitRangeError(f"leaf index {n.idx} must be 0 or 1")
    elif not 1 <= n.op <= dmax:
        raise DigitRangeError(f"op index {n.op} outside 1..{dmax}")


def _in_hull(ring: RingSpec, values: Iterable[tuple[int, int]], lo: tuple[int, int],
             hi: tuple[int, int]) -> bool:
    """Whether every (a, b) pair of ``values`` lies in [lo, hi]; each distinct
    pair is tested once, as witness DAGs repeat values."""
    la, lb = lo
    ha, hb = hi
    for a, b in set(values):
        if _sign_pair(ring, a - la, b - lb) < 0 or _sign_pair(ring, ha - a, hb - b) < 0:
            return False
    return True


def _field(d, key: str, kind: type = int):
    """``d[key]`` of exactly type ``kind``; ParseError if it is missing or of another type."""
    if type(d) is not dict:
        raise ParseError(f"witness: expected an object with a {key!r} field, not {type(d).__name__}")
    if key not in d:
        raise ParseError(f"witness needs a {key!r} field")
    v = d[key]
    if type(v) is not kind:
        raise ParseError(f"witness field {key!r} must be {kind.__name__}, not {type(v).__name__}")
    return v


@dataclass(frozen=True, eq=False)
class Witness:
    """A generation certificate over the translated seed pair {c, c+1}.

    ``seeds`` is the base pair (normally 0 and 1); ``offset`` is c.  A leaf
    with index k denotes the value seeds[k] + offset.
    """

    ring: RingSpec
    root: TreeNode
    seeds: tuple[QuadInt, QuadInt] = None  # type: ignore[assignment]
    offset: QuadInt = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.seeds is None:
            object.__setattr__(self, "seeds", (self.ring.zero, self.ring.one))
        if self.offset is None:
            object.__setattr__(self, "offset", self.ring.zero)

    def _leaf_pairs(self) -> tuple[tuple[int, int], tuple[int, int]]:
        s0 = self.seeds[0] + self.offset
        s1 = self.seeds[1] + self.offset
        return (s0.a, s0.b), (s1.a, s1.b)

    def evaluate(self) -> QuadInt:
        a, b = _evaluator(self.ring, *self._leaf_pairs(), {})(self.root)
        return self.ring.element(a, b)

    def evaluate_conj(self) -> QuadInt:
        """Direct-side value: the Galois conjugate of the window-side value."""
        return self.evaluate().conj()

    def op_indices(self) -> set[int]:
        seen: set[int] = set()
        visited: set[int] = set()

        def rec(n) -> None:
            if isinstance(n, Leaf) or id(n) in visited:
                return
            visited.add(id(n))
            seen.add(n.op)
            rec(n.left)
            rec(n.right)

        rec(self.root)
        return seen

    def depth(self) -> int:
        memo: dict = {}

        def rec(n) -> int:
            if isinstance(n, Leaf):
                return 0
            d = memo.get(n)
            if d is None:
                d = 1 + max(rec(n.left), rec(n.right))
                memo[n] = d
            return d

        return rec(self.root)

    def tree_size(self) -> int:
        """Number of nodes when the internal DAG is unrolled to a tree."""
        memo: dict = {}

        def rec(n) -> int:
            if isinstance(n, Leaf):
                return 1
            c = memo.get(n)
            if c is None:
                c = 1 + rec(n.left) + rec(n.right)
                memo[n] = c
            return c

        return rec(self.root)

    # -- serialization ----------------------------------------------------

    def to_dict(self, size_limit: int = _SERIALIZE_LIMIT) -> dict:
        if self.tree_size() > size_limit:
            raise OutOfRangeError(
                f"witness unrolls to more than {size_limit} nodes; refusing to serialize"
            )

        def rec(n) -> dict:
            if isinstance(n, Leaf):
                return {"leaf": n.idx}
            return {"op": n.op, "left": rec(n.left), "right": rec(n.right)}

        return {
            "ring": {"m": self.ring.m, "sign": "+" if self.ring.eps == 1 else "-"},
            "seeds": [{"a": s.a, "b": s.b} for s in self.seeds],
            "offset": {"a": self.offset.a, "b": self.offset.b},
            "root": rec(self.root),
        }

    @classmethod
    def from_dict(cls, data) -> "Witness":
        """Inverse of ``to_dict``.  Raises ParseError for a missing field or
        one of the wrong type and DigitRangeError for a leaf index other than
        0 or 1 or an op index outside 1..digit_max."""
        spec = _field(data, "ring", dict)
        ring = RingSpec.make(_field(spec, "m"), _field(spec, "sign", str))
        dmax = ring.digit_max

        def pair(d) -> QuadInt:
            return ring.element(_field(d, "a"), _field(d, "b"))

        def rec(d) -> TreeNode:
            if type(d) is dict and "leaf" in d:
                leaf = Leaf(_field(d, "leaf"))
                _check_index(leaf, dmax)
                return LEAF_ONE if leaf.idx else LEAF_ZERO
            n = Node(_field(d, "op"), rec(_field(d, "left", dict)), rec(_field(d, "right", dict)))
            _check_index(n, dmax)
            return n

        seeds = tuple(pair(s) for s in _field(data, "seeds", list))
        if len(seeds) != 2:
            raise MissingSeedsError("witness needs exactly two seeds")
        offset = pair(_field(data, "offset", dict))
        return cls(ring, rec(_field(data, "root", dict)), seeds, offset)


# ---------------------------------------------------------------------------
# forward generation
# ---------------------------------------------------------------------------


def apply_op(s: Scalar, x: Scalar, y: Scalar):
    """The combination s*x + (1-s)*y, exact in whatever ring the operands share."""
    return s * x + (1 - s) * y


@dataclass(frozen=True)
class ParamSet:
    """A finite family of direct-side parameters s (window side: conj(s))."""

    ring: RingSpec
    params: tuple[QuadInt, ...]

    def __post_init__(self) -> None:
        if not self.params:
            raise MissingSeedsError("parameter set must be nonempty")
        for p in self.params:
            if p.ring != self.ring:
                raise RingMismatchError("parameter from a different ring")

    def window_values(self) -> tuple[QuadInt, ...]:
        return tuple(p.conj() for p in self.params)


def closure_bfs(
    seeds: Iterable[QuadInt],
    params: Union[ParamSet, QuadInt, Iterable[QuadInt]],
    depth: int,
    span: Interval | None = None,
    node_cap: int = 1_000_000,
) -> PointSet:
    """The points reached from ``seeds`` in ``depth`` rounds; each round applies
    every parameter s to every ordered pair x, y known at its start.

    Intermediate values are never discarded (they keep generating) and the
    optional ``span`` filter applies to the returned set only.  Raises
    BudgetExceededError in the round whose accumulated set outgrows
    ``node_cap``.

    Points are handled as integer pairs (a, b), translated so that the first
    seed is the origin (s*x + (1-s)*y commutes with translation).  When every
    parameter is convex on one side (s in [0, 1] for all, or conj(s) in [0, 1]
    for all, decided by exact sign tests) the points lie in a strip of the
    lattice.  A round then keys points by L(a, b) = p*a + q*b, injective on
    its candidates and nearly consecutive along the strip, and finds the keys
    of all s*x + (1-s)*y as an exact sumset: one big-number product of
    slot-encoded key sets per parameter, all known points by all known
    points (``_sumset_round``).
    Parameter sets without a common side, and rounds where a sumset would
    cost more time or memory than the pair loop (see ``_SUMSET_SPARSITY``),
    run the pair loop (``_pair_round``).  The pairs are filtered by ``span``,
    ordered by one certified key sort (``quadring._sorted_pairs``; translation
    keeps its order) and built into ring elements in a single pass.
    """
    seed_list = list(seeds)
    if not seed_list:
        raise MissingSeedsError("closure needs at least one seed")
    if depth < 0:
        raise OutOfRangeError("depth must be nonnegative")
    if node_cap < 0:
        raise OutOfRangeError("node cap must be nonnegative")
    ring = seed_list[0].ring
    if isinstance(params, ParamSet):
        param_list = list(params.params)
    elif isinstance(params, QuadInt):
        param_list = [params]
    else:
        param_list = list(params)
    if not param_list:
        raise MissingSeedsError("closure needs at least one parameter")
    for v in seed_list + param_list:
        if v.ring != ring:
            raise RingMismatchError("seeds and parameters must share one ring")

    param_pairs = [(p.a, p.b) for p in param_list]
    side = _strip_side(ring, param_pairs)
    oa, ob = seed_list[0].a, seed_list[0].b
    order = list(dict.fromkeys((s.a - oa, s.b - ob) for s in seed_list))
    frontier_len = len(order)  # order[-frontier_len:] is new since last round
    debug = log.isEnabledFor(logging.DEBUG)
    for round_no in range(1, depth + 1):
        if not frontier_len:
            break
        path = "sumset"
        step = _sumset_round(ring, order, frontier_len, param_pairs, side) if side else None
        if step is None:
            path = "pairs"
            step = _pair_round(ring, order, frontier_len, param_pairs, node_cap, round_no)
        fresh, candidates, bits = step
        order.extend(fresh)
        frontier_len = len(fresh)
        if len(order) > node_cap:
            raise BudgetExceededError(f"closure exceeded {node_cap} points at round {round_no}")
        if debug:
            log.debug("closure round %d: %d new, %d total, %s path, %d candidates, %d key bits",
                      round_no, frontier_len, len(order), path, candidates, bits)

    if span is not None:
        _same_ring(ring, span.lo.ring)
        order = [(a, b) for a, b in order if span.contains_pair(a + oa, b + ob)]
    points = _quadints(ring, _sorted_pairs(ring, order), oa, ob)
    if span is None:  # the seeds are never empty, so neither are the points
        span = Interval.closed(points[0], points[-1])
    return PointSet(ring, tuple(points), span)


# A round runs the pair loop where a sumset would take more time or memory:
# where its products have more digits than _DIGITS_PER_PAIR times the pairs
# the loop would form (a candidate of the loop costs about what a product
# digit does), or where its factors span more than _SUMSET_SPARSITY key
# slots per key, which bounds the memory of a sumset by the number of points.
# The rule prices two products per parameter, of new x by known y and of
# known x by new y; a round makes one, of all known x by all known y, which
# costs less than the two, so the rule is conservative.
_DIGITS_PER_PAIR = 1
_SUMSET_SPARSITY = 256

# decimal digit -> 1 if it is nonzero, else 0
_NONZERO = bytes.maketrans(b"0123456789", b"\x00" + b"\x01" * 9)


def _strip_side(ring: RingSpec, param_pairs: list[tuple[int, int]]) -> int:
    """-1 if conj(s) lies in [0, 1] for every parameter s, +1 if s does, else 0.

    On side -1 the conjugates of a closure stay in the hull of the conjugated
    seeds, on side +1 the points stay in the hull of the seeds; either way the
    points lie in a strip of the (a, b) lattice."""
    m = ring.m

    def unit(a: int, b: int) -> bool:
        return _sign_pair(ring, a, b) >= 0 and _sign_pair(ring, 1 - a, -b) >= 0

    if all(unit(pa + m * pb, -pb) for pa, pb in param_pairs):
        return -1
    if all(unit(pa, pb) for pa, pb in param_pairs):
        return 1
    return 0


def _slot_digits(keys: list[int], lo: int, hi: int, width: int) -> str:
    """The decimal digits of the sum of 10^(width*(k - lo)) over the keys."""
    digits = bytearray(b"0") * ((hi - lo + 1) * width)
    for k in keys:
        digits[(hi - k + 1) * width - 1] = 49  # b"1"
    return digits.decode()


def _sumset_round(ring: RingSpec, order: list[tuple[int, int]], frontier_len: int,
                  param_pairs: list[tuple[int, int]], side: int):
    """The new points of one round as a strip sumset, or None where the pair
    loop is cheaper.

    Returns ``(new_points, candidates, key_bits)``; ``candidates`` is None
    unless the ``qcx.convexity`` logger is enabled for DEBUG.  Each point has
    the key L(a, b) = p*a + q*b with p = 2*bmax + 1, bmax a bound on |b| over
    the combinations of any two known points, and gcd(p, q) = 1, so L is
    injective on them (a collision would need p | db); q ~ p*beta (side +1)
    or p*beta' (side -1) makes the keys of the strip nearly consecutive
    integers.  L is linear, so the keys of s*x + (1-s)*y are the sums of
    those of s*x and (1-s)*y: for each parameter, one product of two
    slot-encoded numbers counts them for every known x and y.  Two points
    known before the round combine to a known point (formed in the round in
    which the later of them was new), so the product finds exactly the new
    points of the pairs with a new point.  A slot counts at most n pairs, and
    has enough decimal digits for n, so none carries.
    """
    # imported here, not with the module: it would add about 1 ms to every
    # import of qcx.  Its products of long numbers run in O(n log n).
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal

    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX)  # never rounds
    m, eps = ring.m, ring.eps
    n = len(order)
    new = n - frontier_len
    bmax = 0
    for pa, pb in param_pairs:
        c = pa + m * pb  # b-coordinate of s*x is pb*a + c*b, of (1-s)*x is -pb*a + (1-c)*b
        bmax = max(bmax, max(abs(pb * a + c * b) for a, b in order)
                   + max(abs((1 - c) * b - pb * a) for a, b in order))
    p = 2 * bmax + 1
    q = (p * m + side * isqrt(p * p * ring.disc)) >> 1  # beta, beta' = (m +- sqrt(D))/2
    while gcd(p, q) != 1:
        q += 1
    factors = []
    for pa, pb in param_pairs:
        # L(s*x) = alpha*a + delta*b and L((1-s)*x) = L(x) - L(s*x)
        alpha, delta = p * pa + q * pb, p * eps * pb + q * (pa + m * pb)
        ks = [alpha * a + delta * b for a, b in order]
        kr = [(p - alpha) * a + (q - delta) * b for a, b in order]
        lo_x, hi_x, lo_y, hi_y = min(ks), max(ks), min(kr), max(kr)
        # the rule prices the products of new x by known y and of known x by
        # new y, with slots of len(str(frontier_len)) digits
        kx, ky = ks[new:], kr[new:]
        span = max(max(kx) - min(kx) + hi_y - lo_y, hi_x - lo_x + max(ky) - min(ky)) + 1
        if (span * len(str(frontier_len)) > _DIGITS_PER_PAIR * frontier_len * n
                or span > _SUMSET_SPARSITY * (frontier_len + n)):
            return None
        factors.append((ks, kr, lo_x, hi_x, lo_y, hi_y))
    debug = log.isEnabledFor(logging.DEBUG)
    width = len(str(n))  # 10^width > any slot count
    origin = min(lo_x + lo_y for _, _, lo_x, _, lo_y, _ in factors)
    acc = acc_new = 0
    for ks, kr, lo_x, hi_x, lo_y, hi_y in factors:
        prod = exact.multiply(Decimal(_slot_digits(ks, lo_x, hi_x, width)),
                              Decimal(_slot_digits(kr, lo_y, hi_y, width)))
        shift = 8 * width * (lo_x + lo_y - origin)
        acc |= _digit_flags(prod) << shift
        if debug:
            # the pairs with a new point: all pairs less the pairs of two old
            # points, slot by slot; no slot goes below zero, so none borrows
            old = exact.multiply(Decimal(_slot_digits(ks[:new], lo_x, hi_x, width)),
                                 Decimal(_slot_digits(kr[:new], lo_y, hi_y, width)))
            acc_new |= _digit_flags(exact.subtract(prod, old)) << shift
    hit = _slot_flags(acc, width)
    candidates = _slot_flags(acc_new, width).count(1) if debug else None
    # every known x is x |- x, so each known key is a slot of the product
    for a, b in order:
        hit[p * a + q * b - origin] = 0
    # key = p*a + q*b with -bmax <= b <= bmax, so b + bmax = key/q mod p
    q_inv = pow(q, -1, p)
    fresh = [((key - q * b) // p, b) for key in compress(count(origin), hit)
             for b in ((key * q_inv + bmax) % p - bmax,)]
    return fresh, candidates, p.bit_length()


def _digit_flags(prod) -> int:
    """One byte per decimal digit of the integer ``prod``, 1 where the digit
    is nonzero."""
    return int.from_bytes(str(prod).encode().translate(_NONZERO), "big")


def _slot_flags(flags: int, width: int) -> bytearray:
    """One byte per slot of ``width`` digit bytes, 1 where some digit of the
    slot is nonzero."""
    slots = -(-flags.bit_length() // (8 * width))
    digits = flags.to_bytes(slots * width, "little")
    return bytearray(reduce(or_, (int.from_bytes(digits[j::width], "little")
                                  for j in range(width))).to_bytes(slots, "little"))


def _pair_round(ring: RingSpec, order: list[tuple[int, int]], frontier_len: int,
                param_pairs: list[tuple[int, int]], node_cap: int, round_no: int):
    """The new points of one round by the loop over all new x known pairs.

    Returns ``(new_points, candidates, key_bits)``.  Dedup keys are
    a*stride + b with stride = 2^key_bits set from the largest coordinate so
    far, so that every candidate of this round has |b| < stride/4 and keys
    decode without wrapping.
    """
    m, eps = ring.m, ring.eps
    # A candidate p*x + (1-p)*y has coordinates of magnitude at most
    # growth * mag when those of x and y are at most mag:
    # |p*x| <= (|pa| + (m+1)|pb|) * mag and |(1-p)*y| <= (1 + |pa| + (m+1)|pb|) * mag.
    growth = 3
    for pa, pb in param_pairs:
        growth = max(growth, 1 + 2 * (abs(pa) + (m + 1) * abs(pb)))
    mag = max(map(abs, chain.from_iterable(order)))
    bits = (growth * mag).bit_length() + 2
    stride = 1 << bits
    half = stride >> 1
    mask = stride - 1

    def keys(pa: int, pb: int) -> list[int]:
        # keys of (pa + pb*beta) * (a + b*beta) for every (a, b) in order
        return [(pa * a + eps * pb * b) * stride + pa * b + pb * a + m * pb * b for a, b in order]

    n = len(order)
    # x |- x = x for each new x, as the sumset counts it among the candidates
    seen = {a * stride + b for a, b in order[n - frontier_len:]}
    seen_update = seen.update
    for pa, pb in param_pairs:
        # z = p*x + (1-p)*y and its reflection w = (1-p)*x + p*y; one pass
        # over unordered pairs covers both orders of x |- y.  Keys are
        # linear in the coordinates, so key(z) = key(p*x) + key((1-p)*y)
        # and each candidate costs one integer add.
        kp = keys(pa, pb)
        kq = keys(1 - pa, -pb)
        for i in range(n - frontier_len, n):
            # x = order[i] is new; y runs over the points before it
            seen_update(map(add, repeat(kp[i]), kq[:i]))
            seen_update(map(add, repeat(kq[i]), kp[:i]))
            if len(seen) > node_cap:
                raise BudgetExceededError(f"closure exceeded {node_cap} points at round {round_no}")
    fresh = []
    for key in seen.difference(a * stride + b for a, b in order):
        b = key & mask
        if b >= half:
            b -= stride
        fresh.append(((key - b) >> bits, b))
    return fresh, len(seen), bits


# ---------------------------------------------------------------------------
# witness construction
# ---------------------------------------------------------------------------


def _tree_from_digits(ring: RingSpec, digits: Sequence[int]) -> TreeNode:
    """Witness tree for sum digits[i]/beta^(i+1) from an admissible string.

    Walks the digit string once, composing the affine maps that send the seed
    pair into ever finer subintervals.  ``m0`` and ``m1`` are the current
    images of the seeds 0 and 1; consuming digit d refines them so that after
    the whole string ``m0`` evaluates to the truncated sum.  The minus family
    digit m-1 cannot be expressed directly (its op index would need to exceed
    floor(beta)); it is absorbed by rewriting x = (m-1)/beta + z/beta as
    1/beta * z' + (1 - 1/beta) * 1 with z' the tail bumped by one, which
    surfaces as a wrapper node applied at the end.
    """
    m, eps = ring.m, ring.eps
    ds = list(digits)
    if not ds or ds[-1] == 0:
        raise DigitRangeError("digit string must be nonempty with nonzero last digit")
    wraps: list[TreeNode] = []
    m0: TreeNode = LEAF_ZERO
    m1: TreeNode = LEAF_ONE
    i = 0
    n = len(ds)
    while True:
        c = ds[i]
        if not 0 <= c <= ring.digit_max:
            raise DigitRangeError(f"digit {c} outside 0..{ring.digit_max}")
        if i == n - 1:
            node: TreeNode = Node(c, m1, m0)
            break
        if eps == 1 and c == m:
            # admissible strings follow a top digit with 0; consume both
            if ds[i + 1] != 0:
                raise DigitRangeError("digit m must be followed by 0")
            m0 = Node(m, m1, m0)
            i += 2
            continue
        if eps == -1 and c == m - 1:
            wraps.append(m1)
            if ds[i + 1] >= m - 1:
                raise DigitRangeError("digit m-1 directly followed by m-1")
            ds[i + 1] += 1
            i += 1
            continue
        if c:
            m0, m1 = Node(c, m1, m0), Node(c + 1, m1, m0)
        else:
            m1 = Node(1, m1, m0)
        i += 1
    while wraps:
        node = Node(1, node, wraps.pop())
    return node


def _as_ring_element(ring: RingSpec, x) -> QuadInt:
    if isinstance(x, QuadInt):
        if x.ring != ring:
            raise RingMismatchError("value from a different ring")
        return x
    if isinstance(x, QuadRat):
        if not x.is_integral():
            raise NotInRingError(f"{x} is not a ring integer")
        if x.ring != ring:
            raise RingMismatchError("value from a different ring")
        return x.num
    if isinstance(x, int):
        return ring.element(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a ring element")


def witness_for(ring: RingSpec, target, offset=None) -> Witness:
    """Construct a verified witness generating ``target`` from {c, c+1}.

    ``offset`` is the translation c (default: floor of the target, clamped so
    the target lies in [c, c+1]).  In the minus family a target whose
    fractional part has no finite expansion is certified through its
    complement: the complement always has one, and swapping the two leaf
    references turns a witness for 1 - x into a witness for x.
    """
    t = _as_ring_element(ring, target)
    if offset is None:
        off = t.floor()
        # put targets that are exact integers at the left end of their pair
        c = ring.element(off)
    else:
        c = _as_ring_element(ring, offset)
    frac = t - c
    sl = frac.sign() if (frac.a, frac.b) != (0, 0) else 0
    one_minus = 1 - frac
    sr = one_minus.sign() if (one_minus.a, one_minus.b) != (0, 0) else 0
    if sl < 0 or sr < 0:
        raise OutOfWindowError(f"target {t} outside [{c} .. {c + 1}]")
    if sl == 0:
        root: TreeNode = LEAF_ZERO
    elif sr == 0:
        root = LEAF_ONE
    elif has_finite_expansion(frac):
        digits = list(expand_greedy(frac).fraction_digits())
        root = _tree_from_digits(ring, digits)
    else:
        digits = list(expand_greedy(one_minus).fraction_digits())
        root = _substituter(LEAF_ZERO, LEAF_ONE, {})(_tree_from_digits(ring, digits))
    w = Witness(ring, root, (ring.zero, ring.one), c)
    if not verify_witness(w, t):  # pragma: no cover - construction invariant
        raise AssertionError(f"constructed witness failed verification for {t}")
    return w


def verify_witness(w: Witness, claimed) -> bool:
    """Exact check: the witness evaluates to ``claimed`` and every
    intermediate value stays inside the convex hull of its seed pair.
    Raises DigitRangeError for a leaf index other than 0 or 1 or an op
    index outside 1..digit_max."""
    ring = w.ring
    t = _as_ring_element(ring, claimed)
    l0, l1 = w._leaf_pairs()
    memo: dict = {}
    value = _evaluator(ring, l0, l1, memo)(w.root)
    dmax = ring.digit_max
    for n in memo:
        _check_index(n, dmax)
    if _sign_pair(ring, l1[0] - l0[0], l1[1] - l0[1]) < 0:
        l0, l1 = l1, l0
    return _in_hull(ring, memo.values(), l0, l1) and value == (t.a, t.b)


# ---------------------------------------------------------------------------
# op index reduction
# ---------------------------------------------------------------------------


def index_cap(ring: RingSpec) -> int:
    """Largest op index i with i/beta <= 1/2: every index can be rewritten
    down to this cap (minus family rings with even m also need a searched
    template for the middle index)."""
    if ring.eps == 1:
        return (ring.m + 1) // 2
    return (ring.m - 1) // 2


def _op_coeff_pair(ring: RingSpec, i: int) -> tuple[int, int]:
    # i/beta as an (a, b) pair
    return _pair_shift_down(ring.m, ring.eps, i, 0)


def _formal_coefficient(ring: RingSpec, root: TreeNode) -> tuple[int, int]:
    """Left-leaf coefficient of a tree over formal seeds: value with
    leaf1 -> 1, leaf0 -> 0.  A tree computes c*x + (1-c)*y; this returns c."""
    return _evaluator(ring, (0, 0), (1, 0), {})(root)


def _substituter(for_one: TreeNode, for_zero: TreeNode, memo: dict):
    """Memoised leaf substitution: ``rec(tree)`` is ``tree`` with leaf 1
    replaced by ``for_one`` and leaf 0 by ``for_zero``; shared subtrees
    stay shared through ``memo``."""

    def rec(n) -> TreeNode:
        r = memo.get(n)
        if r is None:
            if isinstance(n, Leaf):
                r = for_one if n.idx else for_zero
            else:
                r = Node(n.op, rec(n.left), rec(n.right))
            memo[n] = r
        return r

    return rec


@lru_cache(maxsize=None)
def _template_search(
    ring: RingSpec, j: int, cap: int, max_depth: int, state_cap: int, work_budget: int
) -> TreeNode | None:
    """Bounded BFS in coefficient space for a tree over ops 1..cap whose
    left-leaf coefficient equals j/beta.  Deterministic; returns None when
    the budgets run out before the coefficient is reached."""
    m, eps = ring.m, ring.eps
    target = _op_coeff_pair(ring, j)
    states: dict[tuple[int, int], TreeNode] = {
        (1, 0): LEAF_ONE,
        (0, 0): LEAF_ZERO,
    }
    if target in states:
        return states[target]
    order = [(1, 0), (0, 0)]
    frontier = list(order)
    work = 0
    for depth in range(max_depth):
        new: list[tuple[int, int]] = []
        for xa, xb in frontier:
            for ya, yb in order:
                for pair in ((xa, xb, ya, yb), (ya, yb, xa, xb)):
                    ca, cb, da_, db_ = pair
                    for i in range(1, cap + 1):
                        work += 1
                        if work > work_budget:
                            log.debug("template search for %d/beta: work budget out", j)
                            return None
                        # c = y + i*(x - y)/beta in coefficient space
                        sa, sb = _pair_shift_down(m, eps, i * (ca - da_), i * (cb - db_))
                        z = (da_ + sa, db_ + sb)
                        if z in states:
                            continue
                        node = Node(i, states[(ca, cb)], states[(da_, db_)])
                        if z == target:
                            return node
                        states[z] = node
                        new.append(z)
                        if len(states) > state_cap:
                            log.debug("template search for %d/beta: state cap out", j)
                            return None
        if not new:
            return None
        order.extend(new)
        frontier = new
    return None


def find_rewrite_template(
    ring: RingSpec,
    j: int,
    max_index: int | None = None,
    max_depth: int = 8,
    state_cap: int = 20_000,
    work_budget: int = 2_000_000,
) -> TreeNode | None:
    """Search for a tree computing x ⊢_j y using only op indices <= cap.

    Returns the template (leaves: leaf1 = x, leaf0 = y) or None when the
    bounded search exhausts its budgets.  Found templates are verified
    exactly before being returned.
    """
    if not 1 <= j <= ring.digit_max:
        raise OutOfRangeError(f"op index {j} outside 1..{ring.digit_max}")
    cap = index_cap(ring) if max_index is None else max_index
    if cap < 1:
        raise OutOfRangeError("index cap must be at least 1")
    tmpl = _template_search(ring, j, cap, max_depth, state_cap, work_budget)
    if tmpl is not None and _formal_coefficient(ring, tmpl) != _op_coeff_pair(ring, j):
        raise AssertionError("template search returned an unverified tree")
    return tmpl


@lru_cache(maxsize=None)
def _checked_rewrite(ring: RingSpec, cap: int, i: int) -> tuple:
    """Verified rewrite rule for op index i under the given cap.

    Returns a descriptor consumed by ``_apply_rewrite``:
      ("direct",)          i <= cap, keep as is;
      ("pair_plus", k)     plus family, via (x ⊢_{k+1} y) ⊢_1 (x ⊢_k y) = y ⊢_{m-k} x;
      ("pair_minus", k)    minus family, via (x ⊢_k y) ⊢_1 (x ⊢_{k+1} y) = y ⊢_{m-1-k} x;
      ("template", tree)   searched template.
    Each rule is checked once, symbolically, before being cached.
    """
    if i <= cap:
        return ("direct",)
    kind: tuple | None = None
    if ring.eps == 1:
        k = ring.m - i
        if 0 <= k and k + 1 <= cap:
            kind = ("pair_plus", k)
    else:
        k = ring.m - 1 - i
        if 0 <= k and k + 1 <= cap:
            kind = ("pair_minus", k)
    if kind is None:
        tmpl = find_rewrite_template(ring, i, cap)
        if tmpl is None:
            raise NoRewriteError(
                f"no rewrite found for op index {i} under cap {cap}", index=i
            )
        kind = ("template", tmpl)
    built = _apply_rewrite(kind, LEAF_ONE, LEAF_ZERO)
    if _formal_coefficient(ring, built) != _op_coeff_pair(ring, i):
        raise AssertionError(f"rewrite rule for index {i} failed symbolic check")
    return kind


def _apply_rewrite(kind: tuple, left: TreeNode, right: TreeNode) -> TreeNode:
    tag = kind[0]
    if tag == "pair_plus":
        k = kind[1]
        inner = left if k == 0 else Node(k, right, left)
        return Node(1, Node(k + 1, right, left), inner)
    if tag == "pair_minus":
        k = kind[1]
        inner = left if k == 0 else Node(k, right, left)
        return Node(1, inner, Node(k + 1, right, left))
    if tag == "template":
        return _substituter(left, right, {})(kind[1])
    raise AssertionError(f"unknown rewrite tag {tag!r}")  # pragma: no cover


def _reducer(ring: RingSpec, cap: int, memo: dict):
    """Memoised op index reduction: ``rec(tree)`` rewrites every op index
    above ``cap`` by its ``_checked_rewrite`` rule, looked up once per index.
    Unchanged subtrees are returned as they are."""
    rules: dict = {}

    def rec(n) -> TreeNode:
        r = memo.get(n)
        if r is None:
            if isinstance(n, Leaf):
                r = n
            else:
                kind = rules.get(n.op)
                if kind is None:
                    kind = rules[n.op] = _checked_rewrite(ring, cap, n.op)
                if kind[0] == "direct":
                    nl, nr = rec(n.left), rec(n.right)
                    r = n if nl is n.left and nr is n.right else Node(n.op, nl, nr)
                else:
                    r = _apply_rewrite(kind, rec(n.left), rec(n.right))
            memo[n] = r
        return r

    return rec


def reduce_witness(w: Witness, max_index: int | None = None) -> Witness:
    """Rewrite every op index above the cap, preserving the exact value.

    Raises NoRewriteError when an index admits neither a closed-form rule
    nor a searched template within the default budgets.
    """
    ring = w.ring
    cap = index_cap(ring) if max_index is None else max_index
    if cap < 1:
        raise OutOfRangeError("index cap must be at least 1")
    reduced = Witness(ring, _reducer(ring, cap, {})(w.root), w.seeds, w.offset)
    if not verify_witness(reduced, w.evaluate()):  # pragma: no cover - rewrite invariant
        raise AssertionError("reduced witness failed verification")
    return reduced


# ---------------------------------------------------------------------------
# binomial normal form
# ---------------------------------------------------------------------------


def flatten_to_binomial(w: Witness, n: int) -> list[int]:
    """Coefficients b_0..b_n with value = sum b_k s^k (1-s)^(n-k).

    Only defined for witnesses using a single op index i0 (s = i0/beta).
    Each b_k counts seed-1 leaves weighted by path multiplicities, so
    0 <= b_k <= C(n, k) automatically; the expansion is re-evaluated
    exactly against the witness value before returning.
    """
    if n < 0:
        raise OutOfRangeError("exponent must be nonnegative")
    ops = w.op_indices()
    if len(ops) > 1:
        raise MixedParameterError(
            f"witness mixes op indices {sorted(ops)}; binomial form needs one"
        )
    d = w.depth()
    if n < d:
        raise DepthTooSmallError(f"exponent {n} below witness depth {d}")
    i0 = next(iter(ops)) if ops else 1

    # node -> {(s_exp, t_exp): count of seed-1 leaves}, t tracking (1-s)
    memo: dict = {}

    def rec(node) -> dict[tuple[int, int], int]:
        if isinstance(node, Leaf):
            return {(0, 0): 1} if node.idx else {}
        poly = memo.get(node)
        if poly is None:
            poly = {}
            for (a, b), cnt in rec(node.left).items():
                key = (a + 1, b)
                poly[key] = poly.get(key, 0) + cnt
            for (a, b), cnt in rec(node.right).items():
                key = (a, b + 1)
                poly[key] = poly.get(key, 0) + cnt
            memo[node] = poly
        return poly

    coeffs = [0] * (n + 1)
    for (a, b), cnt in rec(w.root).items():
        # pad s^a (1-s)^b with (s + (1-s))^(n-a-b)
        rest = n - a - b
        for k in range(a, a + rest + 1):
            coeffs[k] += cnt * comb(rest, k - a)
    for k, c in enumerate(coeffs):
        if not 0 <= c <= comb(n, k):  # pragma: no cover - structural invariant
            raise AssertionError(f"binomial coefficient b_{k} = {c} out of bounds")

    ring = w.ring
    s = ring.element(i0).mul_beta_pow(-1)
    t = 1 - s
    total = ring.zero
    spow = [ring.one]
    tpow = [ring.one]
    for _ in range(n):
        spow.append(spow[-1] * s)
        tpow.append(tpow[-1] * t)
    for k, c in enumerate(coeffs):
        if c:
            total = total + c * spow[k] * tpow[n - k]
    if total != w.evaluate() - w.offset:  # pragma: no cover - structural invariant
        raise AssertionError("binomial form does not re-evaluate to the witness value")
    return coeffs


# ---------------------------------------------------------------------------
# divisibility certificates and forcing classification
# ---------------------------------------------------------------------------


class Divisibility(Enum):
    """Outcome of the two-sided divisibility test used to pinch closures."""

    DIVIDES_Y = "DividesY"
    DIVIDES_Y_MINUS_1 = "DividesYMinus1"
    BOTH = "Both"
    NEITHER = "Neither"


def divisibility_filter(y: QuadInt, s_w: QuadInt) -> Divisibility:
    """Which of y, y-1 the window parameter s_w divides in Z[beta].

    Every point of the closure of {0, 1} under a single parameter s_w
    satisfies s_w | y or s_w | y - 1 when s_w in {1/beta, 1 - 1/beta}
    generates a forcing pair; NEITHER certifies non-membership.
    """
    ring = y.ring
    if s_w.ring is not ring and s_w.ring != ring:
        raise RingMismatchError("value and parameter must share one ring")
    # s_w | x  <=>  N(s_w) divides both coordinates of x * conj(s_w); the test
    # for y - 1 subtracts conj(s_w) from the product for y.
    m = ring.m
    c, d = s_w.a + s_w.b * m, -s_w.b  # conj(s_w)
    n = s_w.norm()
    if n == 0:
        raise ZeroDivisionError("zero divides nothing")
    a, b = y.a, y.b
    pa = a * c + ring.eps * b * d
    pb = a * d + b * c + m * b * d
    dy = not (pa % n or pb % n)
    dy1 = not ((pa - c) % n or (pb - d) % n)
    if dy and dy1:
        return Divisibility.BOTH
    if dy:
        return Divisibility.DIVIDES_Y
    if dy1:
        return Divisibility.DIVIDES_Y_MINUS_1
    return Divisibility.NEITHER


def classify_forcing(ring: RingSpec) -> list[QuadInt]:
    """Window parameters s_w in {1/beta, 1 - 1/beta} with s_w | 2 and
    (1 - s_w) | 2: exactly these force interval model sets from two seeds."""
    inv = ring.inv_beta
    out = []
    for cand in (inv, 1 - inv):
        if cand.divides(2) is not None and (1 - cand).divides(2) is not None:
            out.append(cand)
    return out


@dataclass(frozen=True)
class SweepRow:
    """One ring's forcing verdict with the parameters on both sides."""

    ring: RingSpec
    window_side: tuple[QuadInt, ...]
    direct_side: tuple[QuadInt, ...]

    @property
    def forcing(self) -> bool:
        return bool(self.window_side)


def forcing_sweep(max_m: int) -> list[SweepRow]:
    """Classify every admitted ring with m <= max_m; plus family first."""
    if max_m < 4:
        raise OutOfRangeError("sweep needs max_m >= 4 to cover both families")
    rows = []
    for eps in (1, -1):
        lo = 1 if eps == 1 else 4
        for m in range(lo, max_m + 1):
            ring = RingSpec(m, eps)
            window = tuple(classify_forcing(ring))
            rows.append(SweepRow(ring, window, tuple(p.conj() for p in window)))
    return rows


def characterizing_params(ring: RingSpec) -> ParamSet:
    """The direct-side family conj(i/beta), i = 1..cap: the smallest s-convex
    parameter set whose closure of two consecutive integers fills the ring
    points of the interval between them."""
    inv = ring.inv_beta
    params = tuple((ring.element(i) * inv).conj() for i in range(1, index_cap(ring) + 1))
    return ParamSet(ring, params)


# ---------------------------------------------------------------------------
# bulk completeness scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a full witness sweep over one ring.

    ``targets`` counts the ring elements of [0, 1] whose expansion fits in
    ``max_len`` digits (the endpoints 0 and 1 included); ``complements``
    counts the minus-family values certified through 1 - x.  ``failures`` is
    the number of targets whose witness, reduced witness, or index bound
    check did not hold; a correct implementation reports zero.
    """

    ring: RingSpec
    max_len: int
    cap: int
    targets: int
    complements: int
    failures: int
    max_op_index: int
    nodes: int
    first_failure: str | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def scan_witness_completeness(
    ring: RingSpec, max_len: int = 6, max_index: int | None = None
) -> ScanReport:
    """Witness, verify, reduce, and re-verify every ring element of [0, 1]
    with expansion length at most ``max_len`` (minus family: complements too).

    Equivalent to running ``witness_for`` / ``verify_witness`` /
    ``reduce_witness`` per element, and built from the same parts: the
    evaluator, the reducer and the leaf substituter (for complements) of
    those functions, each with one memo shared by all targets of the ring,
    and the same seed hull check, made once over every value evaluated.
    Only the walk is its own: a depth-first search over admissible digit
    strings that extends the witness DAG of a prefix by one digit, as
    ``_tree_from_digits`` does for a whole string, so the targets share
    their common subtrees.  ``nodes`` counts the distinct DAG nodes
    evaluated, leaves included.
    """
    if max_len < 1:
        raise OutOfRangeError("max_len must be at least 1")
    m, eps = ring.m, ring.eps
    cap = index_cap(ring) if max_index is None else max_index
    if cap < 1:
        raise OutOfRangeError("index cap must be at least 1")
    dmax = ring.digit_max

    # 1/beta^k pairs for incremental target values
    invpow = [(1, 0)]
    for _ in range(max_len):
        invpow.append(_pair_shift_down(m, eps, *invpow[-1]))

    failures = 0
    first_failure: str | None = None

    val: dict = {}
    ev = _evaluator(ring, (0, 0), (1, 0), val)
    rd = _reducer(ring, cap, {})
    sw = _substituter(LEAF_ZERO, LEAF_ONE, {})

    mix: dict = {LEAF_ZERO: 0, LEAF_ONE: 0}

    def mi(n) -> int:
        r = mix.get(n)
        if r is None:
            r = max(n.op, mi(n.left), mi(n.right))
            mix[n] = r
        return r

    targets = 2  # the endpoints, witnessed by bare leaves
    complements = 0
    max_op_seen = 0

    def fail(msg: str) -> None:
        nonlocal failures, first_failure
        failures += 1
        if first_failure is None:
            first_failure = msg

    wraps: list[TreeNode] = []

    def check(ta: int, tb: int, e: int, m1, m0) -> None:
        nonlocal targets, complements, max_op_seen
        node: TreeNode = Node(e, m1, m0)
        for wnode in reversed(wraps):
            node = Node(1, node, wnode)
        targets += 1
        top = mi(node)
        if top > max_op_seen:
            max_op_seen = top
        if ev(node) != (ta, tb):
            fail(f"witness for {ta},{tb} evaluates wrong")
            return
        rnode = rd(node)
        if ev(rnode) != (ta, tb):
            fail(f"reduced witness for {ta},{tb} evaluates wrong")
        elif mi(rnode) > cap:
            fail(f"reduced witness for {ta},{tb} keeps index {mi(rnode)} > {cap}")
        if eps == -1:
            ca, cb = 1 - ta, -tb
            snode = sw(node)
            complements += 1
            if ev(snode) != (ca, cb):
                fail(f"complement witness for {ca},{cb} evaluates wrong")
                return
            rsnode = rd(snode)
            if ev(rsnode) != (ca, cb):
                fail(f"reduced complement witness for {ca},{cb} evaluates wrong")
            elif mi(rsnode) > cap:
                fail(f"reduced complement for {ca},{cb} keeps index {mi(rsnode)} > {cap}")

    def dfs(depth: int, m0, m1, va: int, vb: int, after_max: bool, hot: bool, pending: int) -> None:
        ipa, ipb = invpow[depth + 1]
        more = depth + 1 < max_len
        for c in range(dmax + 1):
            if eps == 1:
                if after_max and c:
                    break
            elif hot and c == m - 1:
                continue
            nva, nvb = va + c * ipa, vb + c * ipb
            e = c + pending
            if c:
                check(nva, nvb, e, m1, m0)
            if not more:
                continue
            if eps == 1:
                if after_max:
                    dfs(depth + 1, m0, m1, nva, nvb, False, False, 0)
                elif c == m:
                    dfs(depth + 1, Node(m, m1, m0), m1, nva, nvb, True, False, 0)
                elif c:
                    dfs(depth + 1, Node(c, m1, m0), Node(c + 1, m1, m0), nva, nvb, False, False, 0)
                else:
                    dfs(depth + 1, m0, Node(1, m1, m0), nva, nvb, False, False, 0)
            else:
                nhot = c == m - 1 or (hot and c == m - 2)
                if e == m - 1:
                    wraps.append(m1)
                    dfs(depth + 1, m0, m1, nva, nvb, False, nhot, 1)
                    wraps.pop()
                elif e:
                    dfs(depth + 1, Node(e, m1, m0), Node(e + 1, m1, m0), nva, nvb, False, nhot, 0)
                else:
                    dfs(depth + 1, m0, Node(1, m1, m0), nva, nvb, False, nhot, 0)

    dfs(0, LEAF_ZERO, LEAF_ONE, 0, 0, False, False, 0)

    if not _in_hull(ring, val.values(), (0, 0), (1, 0)):
        fail("an intermediate witness value left the seed hull")
    log.info(
        "scan %s len<=%d: %d targets, %d complements, %d failures, %d nodes",
        ring, max_len, targets, complements, failures, len(val),
    )
    return ScanReport(
        ring=ring,
        max_len=max_len,
        cap=cap,
        targets=targets,
        complements=complements,
        failures=failures,
        max_op_index=max_op_seen,
        nodes=len(val),
        first_failure=first_failure,
    )
