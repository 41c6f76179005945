"""closure_bfs, the exact sort helper and the integer divisibility filter,
each checked against a plain reference implementation kept in this file."""

import collections
import functools
import logging
import math
import random

import pytest

import qcx.convexity
from qcx import (
    BudgetExceededError,
    Divisibility,
    Interval,
    QuadRat,
    RingMismatchError,
    RingSpec,
    characterizing_params,
    closure_bfs,
    divisibility_filter,
    ring_make,
)
from qcx.quadring import _sorted_pairs

RINGS = [ring_make(*key) for key in ((1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (7, -1))]
IDS = [f"{r.m},{r.eps:+d}" for r in RINGS]
BENCH_RINGS = RINGS + [ring_make(6, -1)]


def naive_rounds(seeds, params, depth):
    """The point sets after rounds 0..depth: each round applies every
    parameter to every ordered pair of the points known at its start, in
    QuadInt arithmetic."""
    sets = [set(seeds)]
    for _ in range(depth):
        cur = list(sets[-1])
        sets.append(sets[-1] | {s * x + (1 - s) * y for s in params for x in cur for y in cur})
    return sets


def exact_order(points):
    return sorted(points, key=functools.cmp_to_key(lambda x, y: (x - y).sign()))


def _cases():
    for ring, rid in zip(RINGS, IDS):
        inv = ring.inv_beta
        # direct-side weights in [0, 1] and their conjugates (window side)
        for s in (inv, 1 - inv, inv.conj(), (1 - inv).conj()):
            yield ring, (s,), 4, f"{rid} s={s}"
        yield ring, characterizing_params(ring).params, 3, f"{rid} char"


CASES = list(_cases())


# module settings that send every round of a closure whose parameters share a
# side down one path; "rule" leaves the choice to closure_bfs
PATHS = {
    "rule": {},
    "pairs": {"_SUMSET_SPARSITY": 0},
    "sumset": {"_SUMSET_SPARSITY": math.inf, "_DIGITS_PER_PAIR": math.inf},
}


def take_path(mp, path):
    for name, value in PATHS[path].items():
        mp.setattr(qcx.convexity, name, value)


@pytest.mark.parametrize("ring,params,depth,label", CASES, ids=[c[3] for c in CASES])
def test_closure_matches_naive_reference(ring, params, depth, label, monkeypatch):
    base = [ring.zero, ring.one]
    p_arg = params[0] if len(params) == 1 else params
    for d, ref in enumerate(naive_rounds(base, params, depth)):
        want = [(p.a, p.b) for p in exact_order(ref)]
        for path in PATHS:
            with monkeypatch.context() as mp:
                take_path(mp, path)
                got = closure_bfs(base, p_arg, d)
                assert [(p.a, p.b) for p in got.points] == want, (label, d, path)
                assert got.span.lo == got.points[0] and got.span.hi == got.points[-1]
                # s*(x+c) + (1-s)*(y+c) = s*x + (1-s)*y + c, so translated seeds
                # give the translated closure, however large c is
                for c in (ring.element(3, -2), ring.element(-7, 5),
                          ring.element(10**15, -(10**15))):
                    moved = closure_bfs([x + c for x in base], p_arg, d)
                    assert [(p.a - c.a, p.b - c.b) for p in moved.points] == want, (label, d, c)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_closure_of_translated_seeds_direct(ring):
    # small offsets run through the reference itself, not only by translation
    s = 1 - ring.inv_beta
    for c in (ring.element(2, 1), ring.element(-4, 3)):
        seeds = [c, c + 1]
        ref = naive_rounds(seeds, (s,), 3)[-1]
        got = closure_bfs(seeds, s, 3)
        assert list(got.points) == exact_order(ref)


def test_closure_span_filter_matches_reference():
    ring = RINGS[0]
    s = ring.element(0, -1)
    ref = naive_rounds([ring.zero, ring.one], (s,), 4)[-1]
    span = Interval.closed(QuadRat(ring.element(-2), 1), QuadRat(ring.element(1, 1), 1))
    got = closure_bfs([ring.zero, ring.one], s, 4, span=span)
    assert list(got.points) == exact_order(p for p in ref if span.contains(p))
    assert got.span == span
    # a span of another ring is refused, as Interval.contains refuses its points
    with pytest.raises(RingMismatchError):
        closure_bfs([ring.zero, ring.one], s, 4, span=Interval.unit(RINGS[1]))


@pytest.mark.parametrize("ring", RINGS[:4], ids=IDS[:4])
def test_budget_raised_at_the_same_node_cap(ring, monkeypatch):
    s = ring.element(0, -1)
    sizes = [len(pts) for pts in naive_rounds([ring.zero, ring.one], (s,), 4)]
    for path in PATHS:
        with monkeypatch.context() as mp:
            take_path(mp, path)
            for r in range(1, 5):
                size = sizes[r]
                # one point fewer than round r reaches: raised in round r, not before
                with pytest.raises(BudgetExceededError, match=f"at round {r}$"):
                    closure_bfs([ring.zero, ring.one], s, 4, node_cap=size - 1)
                # exactly what round r reaches: round r completes
                assert len(closure_bfs([ring.zero, ring.one], s, r, node_cap=size)) == size


def round_records(caplog, *args, **kwargs):
    """closure_bfs(*args, **kwargs) and its per-round debug records, as
    (round, new, total, path, candidates, key bits) tuples."""
    with caplog.at_level(logging.DEBUG, logger="qcx.convexity"):
        caplog.clear()
        got = closure_bfs(*args, **kwargs)
    recs = [r.args for r in caplog.records if r.msg.startswith("closure round")]
    return got, recs


def test_round_records_pin_the_counts(caplog):
    ring = RINGS[0]
    _, recs = round_records(caplog, [ring.zero, ring.one], ring.element(0, -1), 4)
    # round, new, total, path, distinct candidates (x |- x included), key bits;
    # the first two rounds form fewer pairs than a sumset would need digits
    assert recs == [
        (1, 2, 4, "pairs", 4, 5),
        (2, 6, 10, "pairs", 8, 5),
        (3, 22, 32, "sumset", 30, 6),
        (4, 88, 120, "sumset", 118, 8),
    ]
    msg = "closure round 4: 88 new, 120 total, sumset path, 118 candidates, 8 key bits"
    assert caplog.messages[-1] == msg


def test_both_paths_report_the_same_counts(caplog, monkeypatch):
    ring = RINGS[0]
    args = ([ring.zero, ring.one], ring.element(0, -1), 5)
    runs = {}
    for path in ("pairs", "sumset"):
        with monkeypatch.context() as mp:
            take_path(mp, path)
            _, runs[path] = round_records(caplog, *args)
        assert [r[3] for r in runs[path]] == [path] * 5
    # the same rounds, new points, totals and distinct candidates
    assert [r[:3] + r[4:5] for r in runs["pairs"]] == [r[:3] + r[4:5] for r in runs["sumset"]]


def test_golden_depth_8_by_sumset(caplog):
    ring = RINGS[0]
    s = ring.element(0, -1)
    got, recs = round_records(caplog, [ring.zero, ring.one], s, 8)
    assert len(got) == 37_890
    assert [r[3] for r in recs] == ["pairs"] * 2 + ["sumset"] * 6
    with pytest.raises(BudgetExceededError, match="at round 8$"):
        closure_bfs([ring.zero, ring.one], s, 8, node_cap=37_889)


def test_round_records_pin_the_direct_side(caplog):
    # 1/beta is convex on the direct side; rounds 3 and 4 run the sumset
    ring = ring_make(4, -1)
    s = ring.inv_beta
    base = [ring.zero, ring.one]
    _, recs = round_records(caplog, base, s, 4)
    assert recs == [
        (1, 2, 4, "pairs", 4, 7),
        (2, 8, 12, "pairs", 10, 9),
        (3, 44, 56, "sumset", 54, 7),
        (4, 290, 346, "sumset", 344, 9),
    ]
    # round 4 combines the 56 points known at its start, 44 of them new.  The
    # candidates are the distinct points of the pairs with a new point; the
    # pairs of two old points hit known points that no such pair does, which
    # a product of all known points by all known points counts as well
    known = naive_rounds(base, (s,), 3)
    old, cur = known[2], list(known[3])
    with_new = {s * x + (1 - s) * y for x in cur for y in cur if x not in old or y not in old}
    every = {s * x + (1 - s) * y for x in cur for y in cur}
    assert len(with_new) == 344
    assert every - with_new and every - with_new <= known[3]


def two_product_round(ring, order, frontier_len, param_pairs, side):
    """The strip sumset round as two products per parameter, new x by known y
    and known x by new y, decoded through a set of hit keys: the new points
    in key order, the distinct candidates and the key bits."""
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal

    multiply = Context(prec=MAX_PREC, Emax=MAX_EMAX).multiply
    m, eps = ring.m, ring.eps
    n = len(order)
    new = n - frontier_len
    bmax = 0
    for pa, pb in param_pairs:
        c = pa + m * pb
        bmax = max(bmax, max(abs(pb * a + c * b) for a, b in order)
                   + max(abs((1 - c) * b - pb * a) for a, b in order))
    p = 2 * bmax + 1
    q = (p * m + side * math.isqrt(p * p * ring.disc)) >> 1
    while math.gcd(p, q) != 1:
        q += 1
    width = len(str(frontier_len))

    def slots(keys, lo):
        digits = bytearray(b"0") * ((max(keys) - lo + 1) * width)
        for k in keys:
            digits[-1 - (k - lo) * width] = ord("1")
        return Decimal(digits.decode())

    hits = set()
    for pa, pb in param_pairs:
        alpha, delta = p * pa + q * pb, p * eps * pb + q * (pa + m * pb)
        ks = [alpha * a + delta * b for a, b in order]
        kr = [(p - alpha) * a + (q - delta) * b for a, b in order]
        for xs, ys in ((ks[new:], kr), (ks, kr[new:])):
            lo = min(xs) + min(ys)
            text = str(multiply(slots(xs, min(xs)), slots(ys, min(ys))))[::-1]
            hits.update(lo + j for j in range(0, -(-len(text) // width))
                        if text[j * width:(j + 1) * width].strip("0"))
    q_inv = pow(q, -1, p)
    fresh = []
    for key in sorted(hits - {p * a + q * b for a, b in order}):
        b = (key * q_inv + bmax) % p - bmax
        fresh.append(((key - q * b) // p, b))
    return fresh, len(hits), p.bit_length()


def test_one_product_round_matches_two_products(caplog, monkeypatch):
    take_path(monkeypatch, "sumset")
    cases = [
        ((1, 1), "neg_beta", 6, ((0, 0), (1, 0))),
        ((1, 1), "neg_beta", 4, ((0, 0), (1, 0), (-3, 2))),
        ((4, -1), "inv_beta", 4, ((0, 0), (1, 0))),
        ((3, 1), "char", 3, ((0, 0), (1, 0))),
        ((5, -1), "char", 3, ((0, 0), (1, 0))),
    ]
    sides, wider = set(), 0
    for key, family, depth, seeds in cases:
        ring = ring_make(*key)
        params = {"neg_beta": [ring.element(0, -1)], "inv_beta": [ring.inv_beta],
                  "char": list(characterizing_params(ring).params)}[family]
        pairs = [(s.a, s.b) for s in params]
        side = qcx.convexity._strip_side(ring, pairs)
        sides.add(side)
        order, frontier_len = list(seeds), len(seeds)
        for round_no in range(1, depth + 1):
            args = (ring, order, frontier_len, pairs, side)
            want = two_product_round(*args)
            with caplog.at_level(logging.INFO, logger="qcx.convexity"):
                quiet = qcx.convexity._sumset_round(*args)
            with caplog.at_level(logging.DEBUG, logger="qcx.convexity"):
                counted = qcx.convexity._sumset_round(*args)
            label = (key, family, len(seeds), round_no)
            assert counted == want, label
            assert quiet == (want[0], None, want[2]), label
            # slots grow to len(str(n)) digits where the two products had
            # len(str(frontier_len))
            wider += len(str(len(order))) > len(str(frontier_len))
            order = order + want[0]
            frontier_len = len(want[0])
    assert sides == {-1, 1} and wider >= 2


def test_sumset_slots_hold_counts_up_to_n(caplog, monkeypatch):
    # 32 known points of which the last 5 count as new: some key is formed by
    # more pairs of known points than one digit, the slot width of 5, holds
    take_path(monkeypatch, "sumset")
    ring = RINGS[0]
    s = ring.element(0, -1)
    pts = list(closure_bfs([ring.zero, ring.one], s, 3).points)
    every = collections.Counter(s * x + (1 - s) * y for x in pts for y in pts)
    assert max(every.values()) >= 10
    with caplog.at_level(logging.DEBUG, logger="qcx.convexity"):
        fresh, candidates, _ = qcx.convexity._sumset_round(
            ring, [(p.a, p.b) for p in pts], 5, [(s.a, s.b)], -1)
    assert sorted(fresh) == sorted((z.a, z.b) for z in set(every) - set(pts))
    new = pts[-5:]
    assert candidates == len({s * x + (1 - s) * y for x in pts for y in pts
                              if x in new or y in new})


@pytest.mark.parametrize("level,per_param", [(logging.INFO, 1), (logging.DEBUG, 2)])
def test_products_per_parameter_and_round(level, per_param, caplog, monkeypatch):
    # with logging off one product of all known points by all known points;
    # the debug count of candidates adds one of the old points by themselves
    take_path(monkeypatch, "sumset")
    real = qcx.convexity._slot_digits
    calls = []
    monkeypatch.setattr(qcx.convexity, "_slot_digits",
                        lambda *args: calls.append(args) or real(*args))
    ring = ring_make(3, 1)
    params = characterizing_params(ring)
    assert len(params.params) == 2
    with caplog.at_level(level, logger="qcx.convexity"):
        got = closure_bfs([ring.zero, ring.one], params, 3)
    assert len(got) == 390
    assert len(calls) == 2 * per_param * len(params.params) * 3  # two factors a product


@pytest.mark.parametrize("key,params,depth,seeds", [
    ((1, 1), "neg_beta", 7, ((0, 0), (1, 0))),
    ((1, 1), "neg_beta", 6, ((0, 0), (1, 0), (-3, 2))),
    ((3, 1), "char", 4, ((0, 0), (1, 0))),
    ((5, -1), "char", 4, ((0, 0), (1, 0))),
    ((4, -1), "inv_beta", 5, ((0, 0), (1, 0))),
], ids=["1,+ -beta", "1,+ -beta three seeds", "3,+ char", "5,- char", "4,- 1/beta"])
def test_sumset_matches_pair_loop_on_large_rounds(key, params, depth, seeds, caplog, monkeypatch):
    # the window side (conj(s) in [0, 1]) for -beta and char, the direct side
    # (s in [0, 1]) for 1/beta
    ring = ring_make(*key)
    s = {"neg_beta": ring.element(0, -1), "inv_beta": ring.inv_beta}.get(params)
    s = s or characterizing_params(ring)
    seeds = [ring.element(a, b) for a, b in seeds]
    # the last round multiplies numbers of tens of thousands of digits
    got, recs = round_records(caplog, seeds, s, depth)
    assert recs[-1][3] == "sumset"
    with monkeypatch.context() as mp:
        take_path(mp, "pairs")
        assert list(got.points) == list(closure_bfs(seeds, s, depth).points)


def test_mixed_sides_run_the_pair_loop(caplog):
    # -beta is convex on the window side only, 1/beta on the direct side only
    ring = RINGS[0]
    params = (ring.element(0, -1), ring.inv_beta)
    base = [ring.zero, ring.one]
    got, recs = round_records(caplog, base, params, 3)
    assert [r[3] for r in recs] == ["pairs"] * 3
    assert list(got.points) == exact_order(naive_rounds(base, params, 3)[-1])


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_three_seeds_match_reference(ring, monkeypatch):
    seeds = [ring.zero, ring.one, ring.element(-3, 2)]
    inv = ring.inv_beta
    for s in (inv, inv.conj()):  # one direct-side, one window-side parameter
        want = exact_order(naive_rounds(seeds, (s,), 3)[-1])
        for path in PATHS:
            with monkeypatch.context() as mp:
                take_path(mp, path)
                assert list(closure_bfs(seeds, s, 3).points) == want, (s, path)


def test_far_apart_seeds_fall_back_to_the_pair_loop(caplog, monkeypatch):
    # seeds 10^15 apart spread the strip keys over about 10^30 slots for a
    # few dozen points; even where the pair loop were slower, a sumset would
    # need more memory than the sparsity bound allows
    ring = RINGS[0]
    s = ring.element(0, -1)
    seeds = [ring.zero, ring.element(10**15)]
    want = exact_order(naive_rounds(seeds, (s,), 3)[-1])
    monkeypatch.setattr(qcx.convexity, "_DIGITS_PER_PAIR", math.inf)
    got, recs = round_records(caplog, seeds, s, 3)
    assert [r[3] for r in recs] == ["pairs"] * 3
    assert list(got.points) == want


def _tiny_unit(ring):
    """(m - beta)^k: a unit whose value lies strictly between 0 and 2^-64 in
    absolute value, with coordinates of about 20 digits."""
    conj_beta = abs(ring.beta_conj_float)
    k = math.ceil(64 * math.log(2) / -math.log(conj_beta)) + 1
    d = ring.element(ring.m, -1) ** k
    scale = 1 << 64
    assert (ring.element(d.a * scale - 1, d.b * scale)).sign() < 0
    assert (ring.element(d.a * scale + 1, d.b * scale)).sign() > 0
    return d


def sort_as_pairs(ring, points):
    """The points sorted by ``_sorted_pairs`` on their coordinates."""
    return [ring.element(a, b) for a, b in _sorted_pairs(ring, [(p.a, p.b) for p in points])]


def _stress_points(ring):
    """Values near 10^30 packed closer than the resolution of the sort key."""
    rng = random.Random(ring.m * 10 + ring.eps)
    d = _tiny_unit(ring)
    base = ring.element(10**30 + 7, -3 * 10**29)
    pts = {base + d * j + d * d * i for j in range(-20, 21) for i in range(-3, 4)}
    pts |= {base + rng.randint(-50, 50) for _ in range(40)}
    pts = list(pts)
    rng.shuffle(pts)
    return pts


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_sort_stress_values_closer_than_key_resolution(ring):
    pts = _stress_points(ring)
    want = exact_order(pts)
    assert sort_as_pairs(ring, pts) == want
    # the fixed-point key alone cannot order this set, so the exact pass is
    # what the result above rests on
    m, sd = ring.m, ring._sqrt_disc_scaled
    by_key = sorted(pts, key=lambda p: ((2 * p.a + m * p.b) << 64) + p.b * sd)
    assert by_key != want


def test_sort_helper_on_plain_input():
    ring = RINGS[3]
    rng = random.Random(5)
    pts = list({ring.element(rng.randint(-500, 500), rng.randint(-500, 500)) for _ in range(800)})
    assert sort_as_pairs(ring, pts) == exact_order(pts)
    assert sort_as_pairs(ring, []) == []


def exact_pair_order(ring, pairs):
    return sorted(pairs, key=functools.cmp_to_key(
        lambda x, y: (ring.element(*x) - ring.element(*y)).sign()))


@pytest.mark.parametrize("ring", BENCH_RINGS, ids=[f"{r.m},{r.eps:+d}" for r in BENCH_RINGS])
def test_sorted_pairs_match_exact_comparison_sort(ring):
    rng = random.Random(f"pairs/{ring.m}/{ring.eps}")
    for bound in (3, 500, 10**25):
        pairs = list({(rng.randint(-bound, bound), rng.randint(-bound, bound))
                      for _ in range(600)})
        assert _sorted_pairs(ring, pairs) == exact_pair_order(ring, pairs), bound
    # the key-defeating set, given as pairs; the input list is left as it was
    pairs = [(p.a, p.b) for p in _stress_points(ring)]
    given = list(pairs)
    assert _sorted_pairs(ring, pairs) == exact_pair_order(ring, pairs)
    assert pairs == given
    assert _sorted_pairs(ring, []) == [] and _sorted_pairs(ring, [(2, -1)]) == [(2, -1)]


def test_repair_sort_logs_one_record(caplog):
    ring = RINGS[0]
    pairs = [(p.a, p.b) for p in _stress_points(ring)]
    plain = [(a, b) for a in range(-30, 30) for b in range(-30, 30)]
    with caplog.at_level(logging.DEBUG, logger="qcx.quadring"):
        caplog.clear()
        _sorted_pairs(ring, pairs)
        recs = [r for r in caplog.records if r.name == "qcx.quadring"]
        assert len(recs) == 1 and recs[0].msg.startswith("exact repair sort")
        count, first = recs[0].args
        assert count == len(pairs)
        # the first failed certificate is the first out-of-order neighbour of
        # the key sort, and every pair before it is in exact order
        m, sd = ring.m, ring._sqrt_disc_scaled
        by_key = sorted(pairs, key=lambda p: ((2 * p[0] + m * p[1]) << 64) + p[1] * sd)
        assert by_key[:first + 1] == exact_pair_order(ring, by_key[:first + 1])
        assert by_key[first:first + 2] != exact_pair_order(ring, by_key[first:first + 2])
        caplog.clear()
        _sorted_pairs(ring, plain)
        closure_bfs([ring.zero, ring.one], ring.element(0, -1), 5)
        assert not [r for r in caplog.records if r.name == "qcx.quadring"]


def reference_filter(y, s):
    dy = s.divides(y) is not None
    dy1 = s.divides(y - 1) is not None
    if dy and dy1:
        return Divisibility.BOTH
    if dy:
        return Divisibility.DIVIDES_Y
    if dy1:
        return Divisibility.DIVIDES_Y_MINUS_1
    return Divisibility.NEITHER


def all_rings(max_m):
    return [RingSpec(m, 1) for m in range(1, max_m + 1)] + [
        RingSpec(m, -1) for m in range(4, max_m + 1)
    ]


def test_divisibility_filter_matches_divides_definition():
    rng = random.Random(20261020)
    seen = set()
    for ring in all_rings(8):
        inv = ring.inv_beta
        # the two forcing candidates, plus non-units so that NEITHER occurs
        divisors = [inv, 1 - inv, ring.element(2), ring.element(1, 1), ring.element(4, -1)]
        for s in divisors:
            for _ in range(60):
                y = ring.element(rng.randint(-300, 300), rng.randint(-300, 300))
                if rng.random() < 0.4:  # multiples hit the divisible branches
                    y = s * ring.element(rng.randint(-9, 9), rng.randint(-9, 9)) + rng.randint(0, 1)
                got = divisibility_filter(y, s)
                assert got is reference_filter(y, s), (ring, s, y)
                seen.add(got)
    assert seen == set(Divisibility)


def test_divisibility_filter_errors():
    golden, silver = RINGS[0], RINGS[1]
    with pytest.raises(RingMismatchError, match="share one ring"):
        divisibility_filter(golden.element(2, 1), silver.inv_beta)
    with pytest.raises(ZeroDivisionError):
        divisibility_filter(golden.element(2, 1), golden.zero)
    # an equal ring built separately is the same ring
    assert divisibility_filter(RingSpec(1, 1).element(2, 1), golden.inv_beta) is Divisibility.BOTH


def test_ring_checks_accept_equal_rings_and_keep_their_errors():
    a, b, other = RingSpec(3, 1), RingSpec(3, 1), RingSpec(2, 1)
    assert a is not b
    assert a.element(1, 2) + b.element(3, 4) == a.element(4, 6)
    assert a.element(1, 2) < b.element(1, 3)
    assert QuadRat(a.element(1, 2), 3) + QuadRat(b.element(1), 3) == QuadRat(a.element(2, 2), 3)
    with pytest.raises(RingMismatchError, match="operands from different rings: Z.beta"):
        a.element(1, 2) + other.element(1, 2)
    with pytest.raises(RingMismatchError, match="^operands from different rings$"):
        QuadRat(a.element(1, 2), 3) + other.element(1, 2)
