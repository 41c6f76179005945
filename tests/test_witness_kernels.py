"""Shared witness kernels against reference copies of the per-node walks.

``verify_witness`` and ``reduce_witness`` evaluate, check and rewrite through
memoised factories that ``scan_witness_completeness`` shares.  The reference
copies below walk each witness on their own, checking indices and the seed
hull with ring-element comparisons at every node, as the functions did before
those factories existed; results and verdicts must agree exactly.  The scan
reports are pinned to the figures the private-walk scan produced.
"""

import random

import pytest

from qcx import (
    LEAF_ONE,
    LEAF_ZERO,
    DigitRangeError,
    Leaf,
    Node,
    RingSpec,
    Witness,
    reduce_witness,
    scan_witness_completeness,
    verify_witness,
    witness_for,
)
from qcx.convexity import _checked_rewrite, _in_hull, index_cap

RINGS = tuple(RingSpec(m, eps) for m, eps in
              ((1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (6, -1), (7, -1)))


# -- reference copies --------------------------------------------------------


def ref_eval(ring, root, leaf0, leaf1):
    m, eps = ring.m, ring.eps
    memo = {}

    def rec(n):
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

    return rec(root)


def ref_leaf_pairs(w):
    s0, s1 = w.seeds[0] + w.offset, w.seeds[1] + w.offset
    return (s0.a, s0.b), (s1.a, s1.b)


def ref_verify(w, claimed):
    ring = w.ring
    l0, l1 = ref_leaf_pairs(w)
    m, eps = ring.m, ring.eps
    lo = min(ring.element(*l0), ring.element(*l1))
    hi = max(ring.element(*l0), ring.element(*l1))
    dmax = ring.digit_max
    memo = {}
    ok = True

    def rec(n):
        nonlocal ok
        v = memo.get(n)
        if v is not None:
            return v
        if isinstance(n, Leaf):
            if n.idx not in (0, 1):
                raise DigitRangeError(f"leaf index {n.idx} must be 0 or 1")
            v = l1 if n.idx else l0
        else:
            if not 1 <= n.op <= dmax:
                raise DigitRangeError(f"op index {n.op} outside 1..{dmax}")
            la, lb = rec(n.left)
            ra, rb = rec(n.right)
            da, db = n.op * (la - ra), n.op * (lb - rb)
            v = (ra + db - eps * m * da, rb + eps * da)
            val = ring.element(*v)
            if val < lo or hi < val:
                ok = False
        memo[n] = v
        return v

    a, b = rec(w.root)
    return ok and (a, b) == (claimed.a, claimed.b)


def ref_instantiate(tmpl, for_one, for_zero):
    memo = {}

    def rec(n):
        if isinstance(n, Leaf):
            return for_one if n.idx else for_zero
        r = memo.get(n)
        if r is None:
            r = Node(n.op, rec(n.left), rec(n.right))
            memo[n] = r
        return r

    return rec(tmpl)


def ref_apply_rewrite(kind, left, right):
    tag = kind[0]
    if tag == "pair_plus":
        k = kind[1]
        inner = left if k == 0 else Node(k, right, left)
        return Node(1, Node(k + 1, right, left), inner)
    if tag == "pair_minus":
        k = kind[1]
        inner = left if k == 0 else Node(k, right, left)
        return Node(1, inner, Node(k + 1, right, left))
    assert tag == "template"
    return ref_instantiate(kind[1], left, right)


def ref_reduce(w):
    ring = w.ring
    cap = index_cap(ring)
    memo = {}

    def rec(n):
        if isinstance(n, Leaf):
            return n
        r = memo.get(n)
        if r is None:
            kind = _checked_rewrite(ring, cap, n.op)
            if kind[0] == "direct":
                nl, nr = rec(n.left), rec(n.right)
                r = n if nl is n.left and nr is n.right else Node(n.op, nl, nr)
            else:
                r = ref_apply_rewrite(kind, rec(n.left), rec(n.right))
            memo[n] = r
        return r

    reduced = Witness(ring, rec(w.root), w.seeds, w.offset)
    value = ring.element(*ref_eval(ring, w.root, *ref_leaf_pairs(w)))
    assert ref_verify(reduced, value)
    return reduced


# -- differential tests ------------------------------------------------------


def targets(ring, count=40):
    rng = random.Random(1000 * ring.m + ring.eps)
    out = []
    for _ in range(count):
        x = ring.element(rng.randint(-30, 30), rng.randint(-30, 30))
        out += [x, 1 - x]
    return out


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_verify_and_reduce_match_reference(ring):
    for x in targets(ring):
        w = witness_for(ring, x)
        assert verify_witness(w, x) is ref_verify(w, x) is True
        wrong = x + 1
        assert verify_witness(w, wrong) is ref_verify(w, wrong) is False
        r, ref = reduce_witness(w), ref_reduce(w)
        assert r.to_dict() == ref.to_dict()
        assert verify_witness(r, x) is ref_verify(r, x) is True
        # seeds in descending order take the other branch of the hull check
        flipped = Witness(ring, w.root, (ring.one, ring.zero), w.offset)
        v = flipped.evaluate()
        assert verify_witness(flipped, v) is ref_verify(flipped, v) is True
        assert reduce_witness(flipped).to_dict() == ref_reduce(flipped).to_dict()


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_tampered_witnesses_rejected_like_reference(ring):
    x = targets(ring, 1)[0]
    w = witness_for(ring, x)
    for root in (
        Node(0, LEAF_ONE, LEAF_ZERO),
        Node(ring.digit_max + 1, LEAF_ONE, LEAF_ZERO),
        Node(1, Node(ring.digit_max + 1, LEAF_ONE, LEAF_ZERO), LEAF_ZERO),
        Leaf(2),
        Node(1, LEAF_ONE, Leaf(2)),
    ):
        bad = Witness(ring, root, w.seeds, w.offset)
        with pytest.raises(DigitRangeError):
            ref_verify(bad, x)
        with pytest.raises(DigitRangeError):
            verify_witness(bad, x)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_hull_check_matches_element_comparisons(ring):
    # valid op indices never leave the hull, so probe the check directly
    rng = random.Random(7 * ring.m - ring.eps)
    for _ in range(200):
        lo, hi, v = (ring.element(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3))
        lo, hi = min(lo, hi), max(lo, hi)
        expect = lo <= v <= hi
        pairs = [(lo.a, lo.b), (hi.a, hi.b), (v.a, v.b)]
        assert _in_hull(ring, pairs, pairs[0], pairs[1]) is expect


# -- scan report pins ---------------------------------------------------------

# (m, eps, max_len): (targets, complements, nodes, max_op_index)
SCAN_PINS = {
    (1, 1, 1): (3, 0, 3, 1), (1, 1, 2): (4, 0, 5, 1),
    (1, 1, 3): (6, 0, 9, 1), (1, 1, 4): (9, 0, 15, 1),
    (2, 1, 1): (4, 0, 6, 2), (2, 1, 2): (8, 0, 20, 2),
    (2, 1, 3): (18, 0, 59, 2), (2, 1, 4): (42, 0, 157, 2),
    (3, 1, 1): (5, 0, 7, 3), (3, 1, 2): (14, 0, 31, 3),
    (3, 1, 3): (44, 0, 121, 3), (3, 1, 4): (143, 0, 439, 3),
    (4, -1, 1): (5, 3, 16, 3), (4, -1, 2): (16, 14, 104, 3),
    (4, -1, 3): (57, 55, 484, 3), (4, -1, 4): (210, 208, 2052, 3),
    (5, -1, 1): (6, 4, 20, 4), (5, -1, 2): (25, 23, 156, 4),
    (5, -1, 3): (116, 114, 910, 4), (5, -1, 4): (552, 550, 4936, 4),
    (6, -1, 1): (7, 5, 34, 5), (6, -1, 2): (36, 34, 308, 5),
    (6, -1, 3): (205, 203, 2068, 5), (6, -1, 4): (1190, 1188, 13078, 5),
    (7, -1, 1): (8, 6, 30, 6), (7, -1, 2): (49, 47, 308, 6),
    (7, -1, 3): (330, 328, 2462, 6), (7, -1, 4): (2256, 2254, 18642, 6),
}


@pytest.mark.parametrize("key", sorted(SCAN_PINS), ids=lambda k: "%d%+d-len%d" % k)
def test_scan_report_pinned(key):
    m, eps, ln = key
    rep = scan_witness_completeness(RingSpec(m, eps), max_len=ln)
    got = (rep.targets, rep.complements, rep.nodes, rep.max_op_index)
    assert got == SCAN_PINS[key]
    assert rep.failures == 0 and rep.first_failure is None
