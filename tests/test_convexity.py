"""Witness trees, closures, rewrites, binomial pinching, forcing classification."""

import random

import pytest

from qcx import (
    LEAF_ONE,
    LEAF_ZERO,
    BudgetExceededError,
    DepthTooSmallError,
    DigitRangeError,
    DigitString,
    Divisibility,
    Interval,
    Leaf,
    MissingSeedsError,
    MixedParameterError,
    Node,
    NotInRingError,
    OutOfRangeError,
    OutOfWindowError,
    ParamSet,
    ParseError,
    QuadRat,
    RingMismatchError,
    RingSpec,
    Witness,
    apply_op,
    characterizing_params,
    classify_forcing,
    closure_bfs,
    divisibility_filter,
    enumerate_model_set,
    find_rewrite_template,
    flatten_to_binomial,
    forcing_sweep,
    index_cap,
    iter_admissible,
    reduce_witness,
    same_tree,
    scan_witness_completeness,
    verify_witness,
    witness_for,
)

GOLDEN = RingSpec(1, 1)
SILVER = RingSpec(2, 1)
BRONZE = RingSpec(3, 1)
MINUS4 = RingSpec(4, -1)
MINUS5 = RingSpec(5, -1)
MINUS7 = RingSpec(7, -1)
ALL_RINGS = (GOLDEN, SILVER, BRONZE, MINUS4, MINUS5, MINUS7)


# -- tree primitives ---------------------------------------------------------


def test_tree_primitives():
    assert LEAF_ZERO.idx == 0 and LEAF_ONE.idx == 1
    n = Node(2, LEAF_ONE, LEAF_ZERO)
    assert same_tree(n, Node(2, LEAF_ONE, LEAF_ZERO))
    assert not same_tree(n, Node(1, LEAF_ONE, LEAF_ZERO))
    assert not same_tree(n, Node(2, LEAF_ZERO, LEAF_ONE))
    assert not same_tree(n, LEAF_ONE)
    with pytest.raises(AttributeError):
        n.extra = 1                                  # __slots__: no stray fields


def test_index_cap_values():
    assert [index_cap(r) for r in ALL_RINGS] == [1, 1, 2, 1, 2, 3]


# -- witness construction ----------------------------------------------------


def test_pinned_tree_simple_fraction():
    # 2 - tau = tau^-2, digits 0 1
    w = witness_for(GOLDEN, GOLDEN.element(2, -1))
    assert same_tree(w.root, Node(1, Node(1, LEAF_ONE, LEAF_ZERO), LEAF_ZERO))
    assert w.evaluate() == GOLDEN.element(2, -1)
    assert w.offset == GOLDEN.zero and w.seeds == (GOLDEN.zero, GOLDEN.one)


def test_pinned_tree_wrapped_run():
    # digits 3 2 in the m=4 minus ring trigger the hot-run wrapper
    x = MINUS4.element(3, 0).mul_beta_pow(-1) + MINUS4.element(2).mul_beta_pow(-2)
    w = witness_for(MINUS4, x)
    assert same_tree(w.root, Node(1, Node(3, LEAF_ONE, LEAF_ZERO), LEAF_ONE))
    assert w.evaluate() == x


def test_pinned_tree_top_digit_absorbs_zero():
    # digits 2 0 1 in the m=2 plus ring: the top digit eats its forced zero
    x = SILVER.element(2).mul_beta_pow(-1) + SILVER.one.mul_beta_pow(-3)
    w = witness_for(SILVER, x)
    assert same_tree(w.root, Node(1, LEAF_ONE, Node(2, LEAF_ONE, LEAF_ZERO)))
    assert w.evaluate() == x


def test_pinned_tree_complement():
    # beta - 3 has negative norm; its witness goes through 1 - x
    x = MINUS4.beta - 3
    assert x.norm() < 0
    w = witness_for(MINUS4, x)
    assert same_tree(w.root, Node(1, LEAF_ZERO, LEAF_ONE))
    assert w.evaluate() == x and w.evaluate_conj() == x.conj()


def test_witness_for_long_expansions():
    # beta^-100 + beta^-1 and its complement have expansions past 64 digits
    for ring in (GOLDEN, MINUS4):
        t = ring.inv_beta ** 100 + ring.inv_beta
        for x in (t, 1 - t):
            w = witness_for(ring, x)
            assert verify_witness(w, x) and w.depth() >= 50
            r = reduce_witness(w)
            assert verify_witness(r, x) and max(r.op_indices()) <= index_cap(ring)


def test_integer_targets_are_leaves():
    w = witness_for(GOLDEN, 5)
    assert w.root is LEAF_ZERO and w.offset == 5 and w.evaluate() == 5
    w = witness_for(GOLDEN, 1, offset=GOLDEN.zero)
    assert w.root is LEAF_ONE and w.evaluate() == 1


def test_explicit_offset():
    x = MINUS4.element(572, -153) + 2
    w = witness_for(MINUS4, x)
    assert w.offset == 2
    assert w.evaluate() == x
    assert w.depth() == 4 and w.op_indices() <= {1, 2, 3}
    with pytest.raises(OutOfWindowError):
        witness_for(GOLDEN, 5, offset=GOLDEN.zero)
    with pytest.raises(OutOfWindowError):
        witness_for(GOLDEN, GOLDEN.element(-1), offset=GOLDEN.zero)


def test_target_coercion():
    assert witness_for(GOLDEN, QuadRat(GOLDEN.element(4), 2)).evaluate() == 2
    with pytest.raises(NotInRingError):
        witness_for(GOLDEN, QuadRat(GOLDEN.one, 2))
    with pytest.raises(RingMismatchError):
        witness_for(GOLDEN, SILVER.one)
    with pytest.raises(TypeError):
        witness_for(GOLDEN, 1.5)


def test_verify_witness():
    x = GOLDEN.element(2, -1)
    w = witness_for(GOLDEN, x)
    assert verify_witness(w, x)
    assert not verify_witness(w, GOLDEN.one)
    bad = Witness(GOLDEN, Node(99, LEAF_ONE, LEAF_ZERO))
    with pytest.raises(DigitRangeError):
        verify_witness(bad, x)
    zero_op = Witness(GOLDEN, Node(0, LEAF_ONE, LEAF_ZERO))
    with pytest.raises(DigitRangeError):
        verify_witness(zero_op, x)


def test_witness_serialization():
    w = witness_for(GOLDEN, GOLDEN.element(2, -1))
    d = w.to_dict()
    assert d == {
        "ring": {"m": 1, "sign": "+"},
        "seeds": [{"a": 0, "b": 0}, {"a": 1, "b": 0}],
        "offset": {"a": 0, "b": 0},
        "root": {
            "op": 1,
            "left": {"op": 1, "left": {"leaf": 1}, "right": {"leaf": 0}},
            "right": {"leaf": 0},
        },
    }
    back = Witness.from_dict(d)
    assert back.ring == w.ring and back.offset == w.offset and back.seeds == w.seeds
    assert same_tree(back.root, w.root)
    assert back.evaluate() == w.evaluate()
    with pytest.raises(DigitRangeError):
        Witness.from_dict({**d, "root": {"leaf": 2}})
    for op in (0, GOLDEN.digit_max + 1):
        with pytest.raises(DigitRangeError):
            Witness.from_dict({**d, "root": {"op": op, "left": {"leaf": 1}, "right": {"leaf": 0}}})
    for bad in ({}, [1], {**d, "offset": [0, 0]}, {**d, "root": {"op": "1"}},
                {**d, "seeds": [{"a": 0, "b": 0}, {"a": 1}]}):
        with pytest.raises(ParseError):
            Witness.from_dict(bad)


def test_serialization_guard_on_huge_dags():
    root = LEAF_ONE
    for _ in range(40):
        root = Node(1, root, root)                   # DAG: 2^41 - 1 unrolled nodes
    w = Witness(GOLDEN, root)
    assert w.tree_size() == 2 ** 41 - 1 and w.depth() == 40
    assert w.evaluate() == 1                         # still cheap on the shared DAG
    with pytest.raises(OutOfRangeError):
        w.to_dict()


def test_random_round_trip_all_rings():
    rng = random.Random(20240911)
    for ring in ALL_RINGS:
        cap = index_cap(ring)
        for _ in range(60):
            x = ring.element(rng.randint(-25, 25), rng.randint(-25, 25))
            w = witness_for(ring, x)
            assert verify_witness(w, x)
            r = reduce_witness(w)
            assert verify_witness(r, x)
            assert max(r.op_indices(), default=1) <= cap
            assert r.offset == w.offset


# -- closures ----------------------------------------------------------------


def test_closure_depth_one_oracle():
    tau = GOLDEN.beta
    got = closure_bfs([GOLDEN.zero, GOLDEN.one], -tau, 1)
    assert [(p.a, p.b) for p in got] == [(0, -1), (0, 0), (1, 0), (1, 1)]
    assert list(closure_bfs([GOLDEN.zero, GOLDEN.one], -tau, 0)) == [GOLDEN.zero, GOLDEN.one]


def test_closure_span_filter():
    tau = GOLDEN.beta
    got = closure_bfs(
        [GOLDEN.zero, GOLDEN.one], -tau, 3, span=Interval.unit(GOLDEN)
    )
    assert GOLDEN.zero in got and GOLDEN.one in got
    for p in got:
        assert p.sign() >= 0 and (1 - p).sign() >= 0


def test_closure_budget_and_validation():
    tau = GOLDEN.beta
    with pytest.raises(BudgetExceededError):
        closure_bfs([GOLDEN.zero, GOLDEN.one], -tau, 3, node_cap=5)
    with pytest.raises(MissingSeedsError):
        closure_bfs([], -tau, 2)
    with pytest.raises(MissingSeedsError):
        closure_bfs([GOLDEN.zero, GOLDEN.one], [], 2)
    with pytest.raises(RingMismatchError):
        closure_bfs([GOLDEN.zero, GOLDEN.one], SILVER.beta, 2)
    with pytest.raises(OutOfRangeError):
        closure_bfs([GOLDEN.zero], -tau, -1)


def test_closure_accepts_param_set():
    ps = characterizing_params(BRONZE)
    window_side = ps.window_values()
    got = closure_bfs([BRONZE.zero, BRONZE.one], window_side, 3)
    sizes = [len(closure_bfs([BRONZE.zero, BRONZE.one], window_side, d)) for d in (1, 2, 3)]
    assert sizes[0] < sizes[1] < sizes[2]
    for p in got:
        assert p.sign() >= 0 and (1 - p).sign() >= 0  # window params keep [0, 1]
    for v in window_side:
        assert v in got


def test_closure_inside_model_set():
    tau = GOLDEN.beta
    cl = closure_bfs([GOLDEN.zero, GOLDEN.one], -tau, 4)
    for p in cl:
        c = p.conj()
        assert c.sign() >= 0 and (1 - c).sign() >= 0
    ms = enumerate_model_set(GOLDEN, Interval.unit(GOLDEN), cl.span)
    for p in cl:
        assert p in ms
    beta = MINUS4.beta
    cl4 = closure_bfs([MINUS4.zero, MINUS4.one], beta, 3)
    ms4 = enumerate_model_set(MINUS4, Interval.unit(MINUS4), cl4.span)
    for p in cl4:
        assert p in ms4


def test_closure_respects_conjugation():
    # applying the automorphism to seeds and parameters conjugates the closure
    cases = ((GOLDEN, -GOLDEN.beta), (MINUS4, MINUS4.beta))
    for ring, p in cases:
        a = closure_bfs([ring.zero, ring.one], p, 3)
        b = closure_bfs([ring.zero, ring.one], p.conj(), 3)
        assert {(q.a, q.b) for q in b} == {((c := q.conj()).a, c.b) for q in a}


# -- rewriting ---------------------------------------------------------------


def test_reduce_pinned_plus_pair():
    w = Witness(SILVER, Node(2, LEAF_ONE, LEAF_ZERO))
    r = reduce_witness(w)
    assert same_tree(r.root, Node(1, Node(1, LEAF_ZERO, LEAF_ONE), LEAF_ONE))
    assert r.evaluate() == w.evaluate()


def test_reduce_pinned_minus_pair():
    w = Witness(MINUS4, Node(3, LEAF_ONE, LEAF_ZERO))
    r = reduce_witness(w)
    assert same_tree(r.root, Node(1, LEAF_ONE, Node(1, LEAF_ZERO, LEAF_ONE)))
    assert r.evaluate() == w.evaluate()


def test_reduce_pinned_template():
    w = Witness(MINUS4, Node(2, LEAF_ONE, LEAF_ZERO))
    r = reduce_witness(w)
    assert same_tree(r.root, Node(1, LEAF_ZERO, Node(1, LEAF_ZERO, LEAF_ONE)))
    assert r.evaluate() == w.evaluate() == 2 * MINUS4.inv_beta


def test_reduce_is_identity_below_cap():
    w = witness_for(GOLDEN, GOLDEN.element(2, -1))
    r = reduce_witness(w)
    assert r.root is w.root                          # nothing to rewrite: same DAG
    with pytest.raises(OutOfRangeError):
        reduce_witness(w, max_index=0)


def test_reduce_preserves_digit_witnesses():
    x = MINUS4.element(572, -153)
    w = witness_for(MINUS4, x)
    assert max(w.op_indices()) == 3
    r = reduce_witness(w)
    assert max(r.op_indices()) == 1 == index_cap(MINUS4)
    assert verify_witness(r, x)


def test_find_rewrite_template_direct():
    t = find_rewrite_template(MINUS4, 1)
    assert same_tree(t, Node(1, LEAF_ONE, LEAF_ZERO))


def test_find_rewrite_template_pinned():
    t = find_rewrite_template(MINUS4, 2)
    assert same_tree(t, Node(1, LEAF_ZERO, Node(1, LEAF_ZERO, LEAF_ONE)))
    again = find_rewrite_template(MINUS4, 2)
    assert same_tree(t, again)                       # deterministic search
    assert find_rewrite_template(MINUS4, 2, max_depth=1) is None
    with pytest.raises(OutOfRangeError):
        find_rewrite_template(MINUS4, 4)             # above digit_max = 3
    with pytest.raises(OutOfRangeError):
        find_rewrite_template(MINUS4, 0)


def test_even_minus_ring_middle_index():
    # m = 6: indices 4, 5 have closed-form pair rewrites, the middle index 3
    # needs a searched template; record whatever the bounded search decides
    ring = RingSpec(6, -1)
    t = find_rewrite_template(ring, 3)
    if t is not None:
        w = Witness(ring, t)
        assert w.evaluate() == 3 * ring.inv_beta
        assert max(w.op_indices()) <= index_cap(ring) == 2


# -- binomial pinching -------------------------------------------------------


def test_flatten_basic_shapes():
    w = Witness(GOLDEN, Node(1, LEAF_ONE, LEAF_ZERO))
    assert flatten_to_binomial(w, 1) == [0, 1]
    assert flatten_to_binomial(Witness(GOLDEN, LEAF_ONE), 2) == [1, 2, 1]
    sq = Witness(GOLDEN, Node(1, Node(1, LEAF_ONE, LEAF_ZERO), LEAF_ZERO))
    assert flatten_to_binomial(sq, 2) == [0, 0, 1]
    assert flatten_to_binomial(Witness(GOLDEN, LEAF_ZERO), 3) == [0, 0, 0, 0]


def test_flatten_re_evaluates_exactly():
    from math import comb

    x = GOLDEN.element(2, -1) + 1                    # offset witness, ops all 1
    w = witness_for(GOLDEN, x)
    for n in (w.depth(), w.depth() + 2):
        coeffs = flatten_to_binomial(w, n)
        assert all(0 <= c <= comb(n, k) for k, c in enumerate(coeffs))
        s = GOLDEN.inv_beta
        total = GOLDEN.zero
        for k, c in enumerate(coeffs):
            total = total + c * s ** k * (1 - s) ** (n - k)
        assert total + w.offset == x


def test_flatten_rejections():
    mixed = witness_for(SILVER, SILVER.element(2).mul_beta_pow(-1) + SILVER.one.mul_beta_pow(-3))
    assert mixed.op_indices() == {1, 2}
    with pytest.raises(MixedParameterError):
        flatten_to_binomial(mixed, 5)
    deep = witness_for(GOLDEN, GOLDEN.element(2, -1))
    with pytest.raises(DepthTooSmallError):
        flatten_to_binomial(deep, 1)
    with pytest.raises(OutOfRangeError):
        flatten_to_binomial(deep, -1)


# -- divisibility and forcing ------------------------------------------------


def test_divisibility_filter():
    ring = BRONZE
    y = 2 * ring.inv_beta ** 2                       # the pinch target 2/beta^2
    assert y == ring.element(20, -6)
    s = ring.element(4, -1)                          # norm 3, non-unit
    assert divisibility_filter(y, s) is Divisibility.NEITHER
    assert divisibility_filter(y, y) is Divisibility.DIVIDES_Y
    assert divisibility_filter(y, y - 1) is Divisibility.DIVIDES_Y_MINUS_1
    assert divisibility_filter(y, ring.inv_beta) is Divisibility.BOTH  # unit
    assert divisibility_filter(y, ring.element(2)) is Divisibility.DIVIDES_Y
    with pytest.raises(RingMismatchError):
        divisibility_filter(y, GOLDEN.one)
    assert Divisibility.NEITHER.value == "Neither"
    assert Divisibility.DIVIDES_Y_MINUS_1.value == "DividesYMinus1"


def test_classify_forcing_pinned():
    b1, b2, b4 = GOLDEN.beta, SILVER.beta, MINUS4.beta
    assert classify_forcing(GOLDEN) == [b1 - 1, 2 - b1]
    assert classify_forcing(SILVER) == [b2 - 2, 3 - b2]
    assert classify_forcing(MINUS4) == [4 - b4, b4 - 3]
    assert classify_forcing(BRONZE) == []
    assert classify_forcing(MINUS5) == []
    assert classify_forcing(MINUS7) == []


def test_forcing_sweep():
    rows = forcing_sweep(30)
    assert len(rows) == 30 + 27                      # plus m 1..30, minus m 4..30
    forcing = [r for r in rows if r.forcing]
    assert [(r.ring.m, r.ring.eps) for r in forcing] == [(1, 1), (2, 1), (4, -1)]
    by_ring = {(r.ring.m, r.ring.eps): r for r in forcing}
    assert [(p.a, p.b) for p in by_ring[(1, 1)].direct_side] == [(0, -1), (1, 1)]
    assert [(p.a, p.b) for p in by_ring[(2, 1)].direct_side] == [(0, -1), (1, 1)]
    assert [(p.a, p.b) for p in by_ring[(4, -1)].direct_side] == [(0, 1), (1, -1)]
    for r in rows:
        assert len(r.window_side) == len(r.direct_side)
        for w, d in zip(r.window_side, r.direct_side):
            assert w.conj() == d
    with pytest.raises(OutOfRangeError):
        forcing_sweep(3)


def test_characterizing_params_pinned():
    assert [(p.a, p.b) for p in characterizing_params(GOLDEN).params] == [(0, -1)]
    assert [(p.a, p.b) for p in characterizing_params(BRONZE).params] == [(0, -1), (0, -2)]
    assert [(p.a, p.b) for p in characterizing_params(MINUS5).params] == [(0, 1), (0, 2)]
    assert [(p.a, p.b) for p in characterizing_params(MINUS7).params] == [(0, 1), (0, 2), (0, 3)]
    ps = characterizing_params(MINUS4)
    assert ps.window_values() == (MINUS4.inv_beta,)


def test_param_set_validation():
    with pytest.raises(MissingSeedsError):
        ParamSet(GOLDEN, ())
    with pytest.raises(RingMismatchError):
        ParamSet(GOLDEN, (SILVER.one,))
    assert apply_op(-GOLDEN.beta, GOLDEN.zero, GOLDEN.one) == GOLDEN.element(1, 1)


# -- bulk scan ---------------------------------------------------------------


def test_scan_small_plus_ring():
    rep = scan_witness_completeness(GOLDEN, max_len=4)
    assert rep.ok and rep.failures == 0 and rep.first_failure is None
    assert rep.targets == 9                          # 7 fractional values + endpoints
    assert rep.complements == 0
    assert rep.max_op_index <= rep.cap == 1
    assert rep.nodes > 0
    with pytest.raises(OutOfRangeError):
        scan_witness_completeness(GOLDEN, max_len=0)
    with pytest.raises(OutOfRangeError):
        scan_witness_completeness(GOLDEN, max_len=2, max_index=0)


def test_scan_counts_match_enumeration():
    for ring, ln in ((GOLDEN, 6), (MINUS4, 6), (MINUS5, 4)):
        rep = scan_witness_completeness(ring, max_len=ln)
        distinct = len(iter_admissible(ring, ln)) - 1  # drop the all-zero string
        assert rep.targets == distinct + 2             # plus the two endpoints
        assert rep.complements == (distinct if ring.eps == -1 else 0)
        assert rep.ok


def test_scan_cross_validated_against_public_api():
    ring, ln = MINUS4, 3
    rep = scan_witness_completeness(ring, max_len=ln)
    cap = index_cap(ring)
    values = set()
    for s in iter_admissible(ring, ln):
        if any(s):
            values.add(DigitString(ring, -1, s).value())
    assert rep.targets == len(values) + 2
    for x in values:
        for t in (x, 1 - x):
            w = witness_for(ring, t, offset=ring.zero)
            assert verify_witness(w, t)
            r = reduce_witness(w)
            assert verify_witness(r, t)
            assert max(r.op_indices(), default=1) <= cap
