"""Generation certificates: per-target witness pipelines, binomial flattening,
greedy-expansion round trips and one bulk completeness scan per ring.

Per target: ``witness_for`` -> ``verify_witness`` -> ``reduce_witness`` ->
``verify_witness``, and in the minus family the same for the complement
1 - y.  Golden-ring targets are also flattened with ``flatten_to_binomial``.
Targets come from the six standard rings plus (6,-), whose middle op index
needs the searched rewrite template.  The seed draws admissible digit strings
(the same number of each length 1..10 in every ring and round) and integer
offsets, and the corner of each expansion grid.

The scans repeat every round with the same (ring, length): their cost grows
about fivefold per extra digit in the minus family, and (7,-) at length 8
exhausted 8 GB, so the lengths stay at or below 6.
"""

from __future__ import annotations

import random
from math import comb

from harness import Op
from workloads.common import admissible_count, fraction_value, random_admissible
from qcx import (
    expand_greedy,
    flatten_to_binomial,
    index_cap,
    reduce_witness,
    ring_make,
    scan_witness_completeness,
    verify_witness,
    witness_for,
)

ITEM = "a certified target (pipeline targets, complements and scan targets)"

RINGS = ((1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (7, -1), (6, -1))
TARGETS_PER_RING = 60      # per round; lengths 1..10, six of each
TINY_TARGETS_PER_RING = 4
MAX_LEN = 10
SCAN_LEN = {(1, 1): 6, (2, 1): 6, (3, 1): 6, (4, -1): 5, (5, -1): 4, (7, -1): 4, (6, -1): 4}
TINY_SCAN_LEN = 2
GRID_RINGS = ((2, 1), (5, -1), (7, -1))
GRID = 10                  # expand_greedy grid: GRID x GRID coordinate pairs per ring


def warm_up() -> None:
    for key in RINGS:
        ring = ring_make(*key)
        scan_witness_completeness(ring, 1)  # fills the cached rewrite rules
        y = fraction_value(ring, [1, 1])
        w = reduce_witness(witness_for(ring, y))
        verify_witness(w, y)
        expand_greedy(y)
        if key == (1, 1):
            flatten_to_binomial(w, w.depth())


def _pipeline(lib, ring, y, golden):
    w = lib.call("convexity.witness_for", witness_for, ring, y)
    ok = lib.call("convexity.verify_witness", verify_witness, w, y)
    rw = lib.call("convexity.reduce_witness", reduce_witness, w)
    ok_r = lib.call("convexity.verify_witness", verify_witness, rw, y)
    coeffs = None
    if golden:
        n = rw.depth()
        coeffs = lib.call("convexity.flatten_to_binomial", flatten_to_binomial, rw, n)
    return ok, ok_r, rw, coeffs


def _run_target(lib, ring, y, c):
    out = [_pipeline(lib, ring, y, ring.m == 1 and ring.eps == 1)]
    if c is not None:
        out.append(_pipeline(lib, ring, c, False))
    return out


def _run_grid(lib, xs):
    return [lib.call("betanum.expand_greedy", expand_greedy, x,
                     work=lambda ds: {"digits": len(ds.digits)}) for x in xs]


class Workload:
    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.rings = [ring_make(*key) for key in RINGS]

    def make_round(self, r: int) -> list[Op]:
        rng = random.Random(f"certify/{self.seed}/{r}")
        per_ring = TINY_TARGETS_PER_RING if self.tiny else TARGETS_PER_RING
        ops = []
        for ring in self.rings:
            cap = index_cap(ring)
            for k in range(per_ring):
                length = 1 + k % MAX_LEN
                y = fraction_value(ring, random_admissible(ring, length, rng)) + rng.randint(-5, 5)
                c = 1 - y if ring.eps == -1 else None
                ops.append(Op(
                    run=lambda lib, ring=ring, y=y, c=c: _run_target(lib, ring, y, c),
                    check=lambda res, ring=ring, y=y, c=c, cap=cap:
                        self._check_target(res, ring, y, c, cap),
                    count=len,
                    label=f"ring {ring.m},{ring.eps} target {y}",
                ))
        for key in GRID_RINGS:
            ring = ring_make(*key)
            a0, b0 = rng.randint(-40, 30), rng.randint(-40, 30)
            side = 3 if self.tiny else GRID
            xs = [ring.element(a, b) for a in range(a0, a0 + side) for b in range(b0, b0 + side)]
            # positive, and finitely expandable (minus family: nonnegative norm)
            xs = [x for x in xs if x.sign() > 0 and (ring.eps == 1 or x.norm() >= 0)]
            ops.append(Op(
                run=lambda lib, xs=xs: _run_grid(lib, xs),
                check=lambda res, xs=xs: self._check_grid(res, xs),
                count=lambda res: 0,
                latency=False,
                label=f"expand grid in ring {key} at {a0},{b0}",
            ))
        for ring in self.rings:
            length = TINY_SCAN_LEN if self.tiny else SCAN_LEN[(ring.m, ring.eps)]
            ops.append(Op(
                run=lambda lib, ring=ring, n=length: lib.call(
                    "convexity.scan_witness_completeness", scan_witness_completeness, ring, n,
                    work=lambda rep: {"targets": rep.targets, "nodes": rep.nodes,
                                      "failures": rep.failures}),
                check=lambda rep, ring=ring, n=length: self._check_scan(rep, ring, n),
                count=lambda rep: rep.targets + rep.complements,
                latency=False,
                label=f"scan ring {ring.m},{ring.eps} length {length}",
            ))
        return ops

    @staticmethod
    def _check_target(res, ring, y, c, cap):
        for (ok, ok_r, rw, coeffs), target in zip(res, (y, c)):
            if not (ok and ok_r):
                return f"verify_witness rejected the witness for {target}"
            top = max(rw.op_indices(), default=0)
            if top > cap:
                return f"reduced witness for {target} keeps op index {top} > {cap}"
            if coeffs is not None:
                n = len(coeffs) - 1
                if any(not 0 <= b <= comb(n, k) for k, b in enumerate(coeffs)):
                    return f"binomial coefficients of {target} out of bounds"
                s = ring.inv_beta  # the only op index in a reduced golden witness is 1
                terms = (b * s ** k * (1 - s) ** (n - k) for k, b in enumerate(coeffs))
                total = sum(terms, ring.zero)
                if total != target - rw.offset:
                    return f"binomial form of {target} does not re-evaluate"
        return None

    @staticmethod
    def _check_grid(res, xs):
        for x, ds in zip(xs, res):
            ring = x.ring
            acc = ring.zero
            for d in ds.digits:
                acc = acc * ring.beta + d
            bottom = ds.top - len(ds.digits) + 1
            value = acc * (ring.beta ** bottom if bottom >= 0 else ring.inv_beta ** -bottom)
            if value != x:
                return f"expansion {ds} of {x} evaluates to {value}"
        return None if len(res) == len(xs) else "missing expansions"

    @staticmethod
    def _check_scan(rep, ring, n):
        want = admissible_count(ring, n) + 1
        if rep.failures:
            return f"scan reported {rep.failures} failures: {rep.first_failure}"
        if rep.targets != want:
            return f"scan covered {rep.targets} targets, expected {want}"
        if rep.complements != (rep.targets - 2 if ring.eps == -1 else 0):
            return f"scan covered {rep.complements} complements"
        return None
