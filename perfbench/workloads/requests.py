"""Small mixed commands through the in-process command line, one client in a
closed loop: each request is ``qcx.cli.main(argv)`` with standard output
captured, and the next is sent when it returns.

Each request does well under a millisecond of library work, so argument
parsing and per-call fixed costs dominate and this workload alone measures
the ``cli`` layer.  Every round sends the same number of each command; the
seed draws the arguments and the order.  With tracing on, the library
functions that ``qcx.cli`` dispatches to are wrapped for the traced rounds,
so ``cli.main`` splits into ``cli.parse`` (``build_parser`` and
``parse_args``), the library call and the rest (its self time).
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from harness import Op
from qcx import (
    DigitString,
    Divisibility,
    Interval,
    Witness,
    characterizing_params,
    cli,
    index_cap,
    ring_make,
    verify_witness,
)
from workloads.common import box_scan, fraction_value, random_admissible

ITEM = "a request"

# requests of each command in one round (200 in all)
MIX = (
    ("expand", 40), ("admissible", 25), ("ring-info", 15), ("witness", 30),
    ("classify", 25), ("modelset", 20), ("closure", 15), ("sweep", 10), ("params", 20),
)
TINY_EACH = 2
RINGS = ((1, 1), (2, 1), (3, 1), (4, -1), (5, -1), (7, -1), (6, -1))
FORCING = {(1, 1), (2, 1), (4, -1)}

# closure requests: (ring, family, depth) -> point count of the closure of {0, 1}
CLOSURES = {
    ((1, 1), "neg_beta", 4): 120, ((1, 1), "neg_beta", 5): 488,
    ((1, 1), "forcing", 5): 488, ((2, 1), "forcing", 4): 234,
    ((4, -1), "forcing", 4): 346, ((3, 1), "char", 3): 390,
    ((5, -1), "char", 2): 42,
}

# the functions qcx.cli calls, wrapped in traced rounds
DISPATCH = (
    "expand_greedy", "admissible_digits", "enumerate_model_set", "check_convexity",
    "gap_histogram", "closure_bfs", "witness_for", "reduce_witness",
    "flatten_to_binomial", "divisibility_filter", "classify_forcing", "forcing_sweep",
    "characterizing_params", "index_cap",
)
# work counts recorded for the dispatched calls, as the other workloads record them
WORK = {
    "closure_bfs": lambda ps: {"points": len(ps)},
    "enumerate_model_set": lambda ps: {"points": len(ps)},
    "check_convexity": lambda rep: {"pairs": rep.pairs_checked},
    "expand_greedy": lambda ds: {"digits": len(ds.digits)},
}


def _pair(x) -> str:
    return f"{x.a},{x.b}"


def _sign(eps: int) -> str:
    return "+" if eps == 1 else "-"


def _ring_args(ring) -> list[str]:
    return ["--m", str(ring.m), "--sign", _sign(ring.eps)]


def _any_ring(rng: random.Random):
    eps = rng.choice((1, -1))
    return ring_make(rng.randint(1 if eps == 1 else 4, 12), eps)


def _invoke(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


@contextlib.contextmanager
def _traced_cli(lib):
    """Route qcx.cli's parser construction, argument parsing and library calls
    through the tracer, and restore them afterwards."""
    saved = {name: getattr(cli, name) for name in DISPATCH + ("build_parser",)}

    def wrap(name, fn):
        layer = fn.__module__.rpartition(".")[2] + "." + name
        return lambda *a, **k: lib.call(layer, fn, *a, work=WORK.get(name), **k)

    def build_parser():
        with lib.span("cli.parse", tag="cli.build_parser"):
            parser = saved["build_parser"]()
        parse_args = parser.parse_args

        def traced_parse_args(*a, **k):
            with lib.span("cli.parse", tag="cli.parse_args"):
                return parse_args(*a, **k)

        parser.parse_args = traced_parse_args
        return parser

    try:
        for name in DISPATCH:
            setattr(cli, name, wrap(name, saved[name]))
        cli.build_parser = build_parser
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def _run_request(lib, argv):
    if not lib.traced:
        return _invoke(argv)
    with _traced_cli(lib), lib.span("cli.main", tag=f"cli.{argv[0]}"):
        return _invoke(argv)


def warm_up() -> None:
    for argv in (["ring-info", "--m", "1", "--sign", "+"],
                 ["expand", "--m", "2", "--sign", "+", "--x=5,-1"],
                 ["witness", "--m", "6", "--sign", "-", "--target=0,1", "--reduce"]):
        _invoke(argv)
    for key in RINGS:
        ring = ring_make(*key)
        characterizing_params(ring)


class Workload:
    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.rings = [ring_make(*key) for key in RINGS]
        self.expected: dict[tuple, str] = {}

    def make_round(self, r: int) -> list[Op]:
        rng = random.Random(f"requests/{self.seed}/{r}")
        kinds = [k for k, n in MIX for _ in range(TINY_EACH if self.tiny else n)]
        rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            argv, check = getattr(self, "_" + kind.replace("-", "_"))(rng)
            ops.append(Op(
                run=lambda lib, argv=argv: _run_request(lib, argv),
                check=check,
                count=lambda res: 1,
                label=" ".join(argv),
            ))
        return ops

    # -- one generator per command: (argv, check(result) -> error or None) --

    def _expand(self, rng):
        ring = rng.choice(self.rings)
        while True:
            x = ring.element(rng.randint(-60, 60), rng.randint(-60, 60))
            if x.sign() > 0 and (ring.eps == 1 or x.norm() >= 0):
                break
        fmt = rng.choice(("plain", "json"))
        argv = ["expand", *_ring_args(ring), f"--x={_pair(x)}", "--format", fmt]

        def check(res):
            code, out = res
            if code != 0:
                return f"exit {code}"
            text = json.loads(out)["text"] if fmt == "json" else out.strip()
            value = DigitString.parse(ring, text).value()
            return None if value == x else f"{text} evaluates to {value}, not {x}"

        return argv, check

    def _admissible(self, rng):
        ring = rng.choice(self.rings)
        digits = random_admissible(ring, rng.randint(2, 12), rng)
        ok = rng.random() < 0.6
        if not ok:
            # plant a violation: m then a nonzero digit, or m-1 (m-2)* m-1
            i = rng.randrange(len(digits) - 1)
            if ring.eps == 1:
                digits[i], digits[i + 1] = ring.m, rng.randint(1, ring.m)
            else:
                digits[i], digits[i + 1] = ring.m - 1, ring.m - 1
        argv = ["admissible", *_ring_args(ring),
                "--digits", ",".join(map(str, digits))]

        def check(res):
            code, out = res
            want = (0, "true") if ok else (1, "false")
            got = (code, out.strip())
            return None if got == want else f"got {got}, expected {want}"

        return argv, check

    def _ring_info(self, rng):
        ring = _any_ring(rng)
        argv = ["ring-info", *_ring_args(ring), "--format", "json"]
        m, eps = ring.m, ring.eps

        def check(res):
            code, out = res
            got = json.loads(out)
            want = {"m": m, "sign": _sign(eps), "disc": m * m + 4 * eps,
                    "digit_max": m if eps == 1 else m - 1, "index_cap": (m + eps) // 2,
                    "inv_beta": {"a": -eps * m, "b": eps}}
            if code != 0 or any(got.get(k) != v for k, v in want.items()):
                return f"exit {code}, output {out.strip()}"
            beta = (m + (m * m + 4 * eps) ** 0.5) / 2
            return None if abs(float(got["beta"]) - beta) < 1e-3 else f"beta {got['beta']}"

        return argv, check

    def _witness(self, rng):
        ring = rng.choice(self.rings)
        digits = random_admissible(ring, rng.randint(1, 5), rng)
        y = fraction_value(ring, digits) + rng.randint(-3, 3)
        argv = ["witness", *_ring_args(ring), f"--target={_pair(y)}", "--reduce"]
        cap = index_cap(ring)

        def check(res):
            code, out = res
            if code != 0:
                return f"exit {code}"
            w = Witness.from_dict(json.loads(out))
            if not verify_witness(w, y):
                return f"witness for {y} does not verify"
            top = max(w.op_indices(), default=0)
            return None if top <= cap else f"op index {top} above cap {cap}"

        return argv, check

    def _classify(self, rng):
        if rng.random() < 0.4:
            ring = _any_ring(rng)
            argv = ["classify", *_ring_args(ring)]
            forcing = (ring.m, ring.eps) in FORCING
            if forcing:
                want = "\n".join(f"window={_pair(w)} direct={_pair(w.conj())}"
                                 for w in (ring.inv_beta, 1 - ring.inv_beta))
            else:
                want = "none"

            def check(res):
                code, out = res
                ok = code == (0 if forcing else 1) and out.strip() == want
                return None if ok else f"got {code} {out.strip()!r}, expected {want!r}"

            return argv, check
        ring = rng.choice(self.rings)
        k = ring.element(rng.randint(-30, 30), rng.randint(-30, 30))
        case = rng.choice(("y", "y-1", "neither"))
        if case == "neither":
            # 2 divides neither 2k + beta nor 2k + beta - 1 (odd beta coordinate)
            s = ring.element(2)
            y, want = 2 * k + ring.beta, {Divisibility.NEITHER}
        else:
            s = ring.element(rng.randint(2, 9), rng.randint(-3, 3))
            y = s * k + (0 if case == "y" else 1)
            want = {Divisibility.DIVIDES_Y if case == "y" else Divisibility.DIVIDES_Y_MINUS_1,
                    Divisibility.BOTH}
        argv = ["classify", *_ring_args(ring), f"--y={_pair(y)}", f"--s={_pair(s)}"]

        def check(res):
            code, out = res
            verdicts = {v.value: v for v in Divisibility}
            got = verdicts.get(out.strip())
            ok = got in want and code == (1 if got is Divisibility.NEITHER else 0)
            return None if ok else f"got {code} {out.strip()!r}"

        return argv, check

    def _modelset(self, rng):
        ring = rng.choice(self.rings[:4])
        lo = rng.randint(-30, 20)
        hi = lo + rng.randint(8, 16)
        mode = rng.choice(("cc", "co", "oc", "cc"))
        unit = Interval.unit(ring)
        window = Interval(unit.lo, unit.hi, mode[0] == "c", mode[1] == "c")
        argv = ["modelset", *_ring_args(ring),
                f"--window=0,0:1,0:{mode}", f"--range={lo},0:{hi},0"]
        checked = rng.random() < 0.3
        if checked:
            s = characterizing_params(ring).params[0]
            argv.append(f"--check={_pair(s)}")
        key = (ring.m, ring.eps, mode, lo, hi)

        def check(res):
            code, out = res
            want = self.expected.get(key)
            if want is None:
                want = self.expected[key] = box_scan(ring, window, lo, hi)
            if checked:
                n = len(want)
                lines = [f"points = {n}", f"pairs_checked = {n * (n - 1)}", "violations = 0"]
                ok = code == 0 and out.split("\n")[:3] == lines
                return None if ok else f"got {code} {out[:200]!r}"
            got = sorted(tuple(map(int, line.split(","))) for line in out.split())
            if code == 0 and got == want:
                return None
            return f"got {code}, {len(got)} points, expected {len(want)}"

        return argv, check

    def _closure(self, rng):
        (key, family, depth), count = rng.choice(sorted(CLOSURES.items()))
        ring = ring_make(*key)
        if family == "neg_beta":
            params = [ring.element(0, -1)]
        elif family == "forcing":
            params = [rng.choice((ring.inv_beta, 1 - ring.inv_beta))]
        else:
            params = list(characterizing_params(ring).params)
        argv = ["closure", *_ring_args(ring),
                "--params=" + ";".join(map(_pair, params)), "--depth", str(depth)]
        spec = tuple(argv)

        def check(res):
            code, out = res
            if code != 0:
                return f"exit {code}"
            seen = self.expected.get(spec)
            if seen is not None:
                return None if out == seen else "output differs from the checked output"
            pts = [ring.element(*map(int, line.split(","))) for line in out.split()]
            if len(pts) != count:
                return f"{len(pts)} points, expected {count}"
            # a forcing parameter lies in [0, 1], the others' conjugates do
            unit = Interval.unit(ring)
            bad = [z for z in pts if not unit.contains(z if family == "forcing" else z.conj())]
            if bad or any(b <= a for a, b in zip(map(float, pts), map(float, pts[1:]))):
                return "points unsorted or outside the window"
            self.expected[spec] = out
            return None

        return argv, check

    def _sweep(self, rng):
        top = rng.randint(4, 9)
        argv = ["sweep", "--max", str(top)]

        def check(res):
            code, out = res
            rows = out.strip().split("\n")
            forcing = [row.split()[:2] for row in rows if "forcing=true" in row]
            want = [["m=1", "sign=+"], ["m=2", "sign=+"], ["m=4", "sign=-"]]
            ok = code == 0 and len(rows) == top + top - 3 and forcing == want
            return None if ok else f"got {code} {out[:200]!r}"

        return argv, check

    def _params(self, rng):
        ring = _any_ring(rng)
        argv = ["params", *_ring_args(ring)]
        want = "\n".join(
            f"direct={_pair(d)} window={_pair(d.conj())}"
            for d in ((ring.element(i) * ring.inv_beta).conj()
                      for i in range(1, (ring.m + ring.eps) // 2 + 1)))

        def check(res):
            code, out = res
            return None if code == 0 and out.strip() == want else f"got {code} {out[:200]!r}"

        return argv, check
