"""Shared witness kernels against reference copies of the per-node walks.

``verify_witness`` and ``reduce_witness`` evaluate, check and rewrite through
memoised factories that ``scan_witness_completeness`` shares.  The reference
copies below walk each witness on their own, checking indices and the seed
hull with ring-element comparisons at every node, as the functions did before
those factories existed; results and verdicts must agree exactly.  The scan
reports are pinned to the figures the private-walk scan produced, and the
scan, whose memos hold only the live prefixes, is compared with a reference
copy that keeps one memo per ring for the whole walk.
"""

import logging
import random

import pytest

import qcx.convexity
from qcx import (
    LEAF_ONE,
    LEAF_ZERO,
    DigitRangeError,
    Leaf,
    Node,
    RingMismatchError,
    RingSpec,
    ScanReport,
    Witness,
    expand_greedy,
    has_finite_expansion,
    reduce_witness,
    scan_witness_completeness,
    verify_witness,
    witness_for,
)
from qcx.convexity import (
    _checked_rewrite,
    _evaluator,
    _in_hull,
    _pair_shift_down,
    _reducer,
    _substituter,
    _tree_from_digits,
    index_cap,
)

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


def ref_witness(ring, t, offset=None):
    """witness_for on ring elements, through expand_greedy, fraction_digits and
    _tree_from_digits, as it ran before its pair glue (with a budget that does
    not bind on the targets here)."""
    c = ring.element(t.floor()) if offset is None else ring.element(0) + offset
    frac = t - c
    if frac == 0:
        root = LEAF_ZERO
    elif frac == 1:
        root = LEAF_ONE
    elif has_finite_expansion(frac):
        root = _tree_from_digits(ring, list(expand_greedy(frac, 10_000).fraction_digits()))
    else:
        digits = list(expand_greedy(1 - frac, 10_000).fraction_digits())
        root = _substituter(LEAF_ZERO, LEAF_ONE, {})(_tree_from_digits(ring, digits))
    return Witness(ring, root, (ring.zero, ring.one), c)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_witness_for_matches_digit_reference(ring):
    # beta^-100 + beta^-1 and its complement expand past the default 64 digits
    long = ring.inv_beta ** 100 + ring.inv_beta
    for x in targets(ring) + [long, 1 - long]:
        w = witness_for(ring, x)
        assert w.to_dict() == ref_witness(ring, x).to_dict()
        assert witness_for(ring, x, w.offset).to_dict() == w.to_dict()
    for n in (-2, 0, 3):
        for c in (n, n - 1):
            x = ring.element(n)
            assert witness_for(ring, x, c).to_dict() == ref_witness(ring, x, c).to_dict()


def test_mixed_ring_witness_rejected():
    golden, silver = RINGS[0], RINGS[1]
    w = witness_for(golden, golden.element(2, -1))
    for seeds, offset in (
        (w.seeds, silver.zero),
        ((silver.zero, silver.one), golden.zero),
        ((golden.zero, silver.one), golden.zero),
    ):
        bad = Witness(golden, w.root, seeds, offset)
        with pytest.raises(RingMismatchError):
            bad.evaluate()
        with pytest.raises(RingMismatchError):
            verify_witness(bad, golden.element(2, -1))


def test_reduce_witness_record_names_each_rule(caplog):
    # digits 3 4 1 2: op 3 needs the searched template, ops 4 and 5 the pair rules
    ring = RingSpec(6, -1)
    x = ring.element(2740, -470)
    w = witness_for(ring, x)
    with caplog.at_level(logging.DEBUG, logger="qcx.convexity"):
        caplog.clear()
        r = reduce_witness(w)
    recs = [rec for rec in caplog.records if rec.msg.startswith("reduce_witness")]
    assert [rec.getMessage() for rec in recs] == [
        "reduce_witness Z[beta], beta^2 = 6*beta - 1 cap 2: op 1 direct, op 2 direct, "
        "op 3 template, op 4 pair_minus 1, op 5 pair_minus 0; 9 nodes -> 19"
    ]
    assert [rec.levelname for rec in recs] == ["DEBUG"]
    assert verify_witness(r, x) and max(r.op_indices()) == 2


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


# -- scan against a whole-memo reference ---------------------------------------


def ref_scan(ring, max_len):
    """The scan with one memo per ring kept for the whole walk and one hull
    check at the end; returns the report and the set of values evaluated."""
    m, eps = ring.m, ring.eps
    cap = index_cap(ring)
    dmax = ring.digit_max
    invpow = [(1, 0)]
    for _ in range(max_len):
        invpow.append(_pair_shift_down(m, eps, *invpow[-1]))
    val = {}
    ev = _evaluator(ring, (0, 0), (1, 0), val)
    rd = _reducer(ring, cap, {})
    sw = _substituter(LEAF_ZERO, LEAF_ONE, {})
    mix = {LEAF_ZERO: 0, LEAF_ONE: 0}

    def mi(n):
        r = mix.get(n)
        if r is None:
            r = mix[n] = max(n.op, mi(n.left), mi(n.right))
        return r

    st = {"targets": 2, "complements": 0, "failures": 0, "top": 0, "first": None}

    def fail(msg):
        st["failures"] += 1
        if st["first"] is None:
            st["first"] = msg

    wraps = []

    def check(ta, tb, e, m1, m0):
        node = Node(e, m1, m0)
        for wnode in reversed(wraps):
            node = Node(1, node, wnode)
        st["targets"] += 1
        st["top"] = max(st["top"], mi(node))
        if ev(node) != (ta, tb):
            return fail(f"witness for {ta},{tb} evaluates wrong")
        rnode = rd(node)
        if ev(rnode) != (ta, tb):
            fail(f"reduced witness for {ta},{tb} evaluates wrong")
        elif mi(rnode) > cap:
            fail(f"reduced witness for {ta},{tb} keeps index {mi(rnode)} > {cap}")
        if eps == -1:
            ca, cb = 1 - ta, -tb
            snode = sw(node)
            st["complements"] += 1
            if ev(snode) != (ca, cb):
                return fail(f"complement witness for {ca},{cb} evaluates wrong")
            rsnode = rd(snode)
            if ev(rsnode) != (ca, cb):
                fail(f"reduced complement witness for {ca},{cb} evaluates wrong")
            elif mi(rsnode) > cap:
                fail(f"reduced complement for {ca},{cb} keeps index {mi(rsnode)} > {cap}")

    def dfs(depth, m0, m1, va, vb, after_max, hot, pending):
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
    report = ScanReport(ring, max_len, cap, st["targets"], st["complements"], st["failures"],
                        st["top"], len(val), st["first"])
    return report, set(val.values())


REF_SCANS = [(r.m, r.eps, 5) for r in RINGS] + [(m, 1, 6) for m in (1, 2, 3)]


@pytest.mark.parametrize("key", REF_SCANS, ids=lambda k: "%d%+d-len%d" % k)
def test_scan_matches_whole_memo_reference(key):
    m, eps, ln = key
    ring = RingSpec(m, eps)
    assert scan_witness_completeness(ring, ln) == ref_scan(ring, ln)[0]


def scan_records(caplog, ring, ln):
    with caplog.at_level(logging.DEBUG, logger="qcx.convexity"):
        caplog.clear()
        rep = scan_witness_completeness(ring, ln)
    return rep, [r for r in caplog.records if r.msg.startswith("scan ")]


def test_scan_records_pin_nodes_and_live_entries(caplog):
    rep, recs = scan_records(caplog, RingSpec(4, -1), 3)
    head = "scan Z[beta], beta^2 = 4*beta - 1 len<=3: "
    assert [r.getMessage() for r in recs] == [
        head + "57 targets, 55 complements, 0 failures, 484 nodes",
        head + "at most 140 live nodes, 484 released",
    ]
    assert [r.levelname for r in recs] == ["INFO", "DEBUG"]
    assert rep.nodes == 484


def test_scan_live_entries_stay_flat(caplog):
    # the nodes grow about sevenfold per digit, the live entries by a few hundred
    peaks = {}
    for ln in (4, 5, 6):
        rep, recs = scan_records(caplog, RingSpec(7, -1), ln)
        peak, released = recs[-1].args[-2:]
        assert released == rep.nodes
        peaks[ln] = peak
    assert rep.nodes == 1_010_446
    assert peaks[4] <= peaks[5] <= peaks[6] < 2 * peaks[4] < rep.nodes // 500


def test_scan_hull_check_sees_every_value(monkeypatch):
    for ring, ln in ((RingSpec(2, 1), 5), (RingSpec(4, -1), 4), (RingSpec(7, -1), 3)):
        seen = []

        def record(ring_, values, lo, hi):
            seen.append(list(values))
            return _in_hull(ring_, seen[-1], lo, hi)

        monkeypatch.setattr(qcx.convexity, "_in_hull", record)
        rep = scan_witness_completeness(ring, ln)
        ref, values = ref_scan(ring, ln)
        assert rep == ref
        assert sum(map(len, seen)) == rep.nodes
        assert set().union(*seen) == values


def test_scan_reports_a_batch_outside_the_hull(monkeypatch):
    calls = []

    def third_fails(ring_, values, lo, hi):
        calls.append(None)
        return len(calls) != 3

    monkeypatch.setattr(qcx.convexity, "_in_hull", third_fails)
    rep = scan_witness_completeness(RingSpec(4, -1), 3)
    assert len(calls) > 3
    assert not rep.ok and rep.failures == 1
    assert rep.first_failure == "an intermediate witness value left the seed hull"
