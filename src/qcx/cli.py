"""Command-line front end: exact inputs as integer pairs, plain/JSON/CSV output.

Conventions
-----------
- Ring elements cross the boundary as exact pairs "a,b" meaning a + b*beta;
  floats in the output are display-only.
- Windows: "lo_a,lo_b[/den]:hi_a,hi_b[/den][:MODE]" with MODE one of
  oo, oc, co, cc (open/closed ends, closed-closed default).
- Lists of elements are semicolon-separated: "0,0;1,0".
- For values starting with a minus sign use the --flag=value form
  (e.g. --target=-1,1), as bare "-1,1" looks like a flag to the parser.
- Exit codes: 0 success; 1 a violation or an absence result (inadmissible
  string, empty classification, Neither verdict, no finite expansion, no
  rewrite); 2 malformed input.
- QCX_LOG environment variable (error | info | debug) controls diagnostics
  on standard error; results go to standard output only.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys

from .betanum import DEFAULT_MAX_DEPTH, admissible_digits, expand_greedy
from .convexity import (
    Divisibility,
    Leaf,
    Witness,
    _SERIALIZE_LIMIT,
    characterizing_params,
    classify_forcing,
    closure_bfs,
    divisibility_filter,
    flatten_to_binomial,
    forcing_sweep,
    index_cap,
    reduce_witness,
    witness_for,
)
from .errors import (
    BudgetExceededError,
    ChainBrokenError,
    NoRewriteError,
    NotFiniteError,
    OutOfRangeError,
    ParseError,
    QcxError,
    RingMismatchError,
)
from .modelset import Interval, PointSet, check_convexity, enumerate_model_set, gap_histogram
from .quadring import QuadInt, QuadRat, RingSpec

log = logging.getLogger("qcx.cli")

# absence/violation results: scripts branch on exit 1
_ABSENCE_ERRORS = (NotFiniteError, NoRewriteError, BudgetExceededError, ChainBrokenError)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _scan_int(text: str, pos: int) -> tuple[int, int]:
    start = pos
    if pos < len(text) and text[pos] in "+-":
        pos += 1
    digits = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == digits:
        raise ParseError(f"expected an integer at position {start} in {text!r}", position=start)
    return int(text[start:pos]), pos


def parse_quadint(text: str, ring: RingSpec) -> QuadInt:
    """Parse "a,b" (optionally signed decimal integers) as a + b*beta."""
    a, pos = _scan_int(text, 0)
    if pos >= len(text) or text[pos] != ",":
        raise ParseError(f"expected ',' at position {pos} in {text!r}", position=pos)
    b, pos = _scan_int(text, pos + 1)
    if pos != len(text):
        raise ParseError(f"trailing input at position {pos} in {text!r}", position=pos)
    return ring.element(a, b)


def parse_quadrat(text: str, ring: RingSpec) -> QuadRat:
    """Parse "a,b" or "a,b/den" as (a + b*beta)/den."""
    body, slash, den_text = text.partition("/")
    x = parse_quadint(body, ring)
    if not slash:
        return QuadRat(x)
    den, pos = _scan_int(den_text, 0)
    if pos != len(den_text):
        raise ParseError(f"bad denominator in {text!r}", position=len(body) + 1 + pos)
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}", position=len(body) + 1)
    return QuadRat(x, den)


_MODES = {"oo": (False, False), "oc": (False, True), "co": (True, False), "cc": (True, True)}


def parse_window(text: str, ring: RingSpec) -> Interval:
    """Parse "lo_a,lo_b[/den]:hi_a,hi_b[/den][:MODE]" into an interval."""
    parts = text.split(":")
    if len(parts) == 2:
        mode = "cc"
    elif len(parts) == 3:
        mode = parts[2]
        if mode not in _MODES:
            raise ParseError(f"interval mode {mode!r} not one of oo, oc, co, cc")
    else:
        raise ParseError(f"expected lo:hi or lo:hi:mode, got {text!r}")
    lo = parse_quadrat(parts[0], ring)
    hi = parse_quadrat(parts[1], ring)
    lo_closed, hi_closed = _MODES[mode]
    return Interval(lo, hi, lo_closed, hi_closed)


def parse_point_list(text: str, ring: RingSpec) -> list[QuadInt]:
    """Parse a semicolon-separated list of "a,b" pairs."""
    items = [part.strip() for part in text.split(";") if part.strip()]
    return [parse_quadint(item, ring) for item in items]


def parse_digit_list(text: str) -> list[int]:
    items = [part for chunk in text.split(",") for part in chunk.split()] if text else []
    out = []
    for item in items:
        try:
            out.append(int(item))
        except ValueError:
            raise ParseError(f"bad digit {item!r}") from None
    if not out:
        raise ParseError("empty digit list")
    return out


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _pair(x: QuadInt) -> str:
    return f"{x.a},{x.b}"


def _pair_dict(x: QuadInt) -> dict:
    return {"a": x.a, "b": x.b}


def _emit_points(ps: PointSet, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(ps.records()))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["a", "b", "value", "conj"])
        for rec in ps.records():
            writer.writerow([rec["a"], rec["b"], rec["value"], rec["conj"]])
    else:
        for p in ps:
            print(_pair(p))


def _render_tree(node) -> str:
    if isinstance(node, Leaf):
        return str(node.idx)
    return f"[{node.op} {_render_tree(node.left)} {_render_tree(node.right)}]"


def _emit_witness(w: Witness, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(w.to_dict()))
    else:
        if w.tree_size() > _SERIALIZE_LIMIT:
            raise OutOfRangeError(f"witness unrolls to more than {_SERIALIZE_LIMIT} nodes")
        value = w.evaluate()
        print(f"value = {_pair(value)}")
        print(f"conj = {_pair(value.conj())}")
        print(f"offset = {_pair(w.offset)}")
        print(f"ops = {sorted(w.op_indices())}")
        print(f"tree = {_render_tree(w.root)}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _ring(args) -> RingSpec:
    return RingSpec.make(args.m, args.sign)


def _handle_ring_info(args) -> int:
    ring = _ring(args)
    beta = ring.beta.decimal_str(4)
    beta_conj = ring.element(ring.m, -1).decimal_str(4)
    if args.format == "json":
        print(json.dumps({
            "m": ring.m,
            "sign": "+" if ring.eps == 1 else "-",
            "disc": ring.disc,
            "beta": beta,
            "beta_conj": beta_conj,
            "digit_max": ring.digit_max,
            "index_cap": index_cap(ring),
            "inv_beta": _pair_dict(ring.inv_beta),
        }))
    else:
        sign = "+" if ring.eps == 1 else "-"
        print(f"ring m={ring.m} sign={sign}: beta^2 = {ring.m}*beta {sign} 1")
        print(f"disc = {ring.disc}")
        print(f"beta ~ {beta}")
        print(f"beta_conj ~ {beta_conj}")
        print(f"digit_max = {ring.digit_max}")
        print(f"index_cap = {index_cap(ring)}")
        print(f"inv_beta = {_pair(ring.inv_beta)}")
    return 0


def _handle_expand(args) -> int:
    ring = _ring(args)
    x = parse_quadint(args.x, ring)
    ds = expand_greedy(x, args.max_depth)
    if args.format == "json":
        print(json.dumps({"top": ds.top, "digits": list(ds.digits), "text": str(ds)}))
    else:
        print(str(ds))
    return 0


def _handle_admissible(args) -> int:
    ring = _ring(args)
    digits = parse_digit_list(args.digits)
    ok = admissible_digits(ring, digits)
    if args.format == "json":
        print(json.dumps({"admissible": ok}))
    else:
        print("true" if ok else "false")
    return 0 if ok else 1


def _handle_modelset(args) -> int:
    ring = _ring(args)
    window = parse_window(args.window, ring)
    span = parse_window(args.range, ring)
    ps = enumerate_model_set(ring, window, span)
    if args.check is not None:
        s = parse_quadint(args.check, ring)
        report = check_convexity(ps, s, window)
        if args.format == "json":
            print(json.dumps({
                "param": _pair_dict(report.param),
                "points": len(ps),
                "pairs_checked": report.pairs_checked,
                "violations": [
                    {
                        "x": _pair_dict(v.x),
                        "y": _pair_dict(v.y),
                        "combo": _pair_dict(v.combo),
                        "conj_in_window": v.conj_in_window,
                    }
                    for v in report.violations
                ],
            }))
        else:
            print(f"points = {len(ps)}")
            print(f"pairs_checked = {report.pairs_checked}")
            print(f"violations = {len(report.violations)}")
            for v in report.violations[:20]:
                print(f"violation x={_pair(v.x)} y={_pair(v.y)} combo={_pair(v.combo)}")
        return 0 if report.ok else 1
    _emit_points(ps, args.format)
    return 0


def _closure_from_args(args) -> PointSet:
    ring = _ring(args)
    seeds = parse_point_list(args.seeds, ring)
    params = parse_point_list(args.params, ring)
    span = parse_window(args.range, ring) if args.range else None
    return closure_bfs(seeds, params, args.depth, span=span, node_cap=args.cap)


def _handle_closure(args) -> int:
    _emit_points(_closure_from_args(args), args.format)
    return 0


def _handle_gapwitness(args) -> int:
    ps = _closure_from_args(args)
    gaps = gap_histogram(ps)
    if args.format == "json":
        print(json.dumps({
            "points": len(ps),
            "gaps": [
                {"a": g.a, "b": g.b, "value": float(g), "count": n} for g, n in gaps
            ],
        }))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["a", "b", "value", "count"])
        for g, n in gaps:
            writer.writerow([g.a, g.b, float(g), n])
    else:
        for g, n in gaps:
            print(f"{_pair(g)} {n}")
    return 0


def _handle_witness(args) -> int:
    ring = _ring(args)
    target = parse_quadint(args.target, ring)
    offset = parse_quadint(args.offset, ring) if args.offset else None
    w = witness_for(ring, target, offset)
    if args.reduce:
        w = reduce_witness(w)
    _emit_witness(w, args.format)
    return 0


def _load_witness(args) -> Witness:
    try:
        if args.infile == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        w = Witness.from_dict(data)
    except OSError as exc:
        raise ParseError(f"cannot read witness file {args.infile!r}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"witness is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("witness nests too deeply to read") from exc
    if args.m is not None or args.sign is not None:
        if args.m is None or args.sign is None:
            raise ParseError("--m and --sign go together")
        if RingSpec.make(args.m, args.sign) != w.ring:
            raise RingMismatchError("witness ring does not match --m/--sign")
    return w


def _handle_reduce(args) -> int:
    w = _load_witness(args)
    reduced = reduce_witness(w, args.max_index)
    _emit_witness(reduced, args.format)
    return 0


def _handle_pinch(args) -> int:
    w = _load_witness(args)
    coeffs = flatten_to_binomial(w, args.n)
    ops = sorted(w.op_indices())
    if args.format == "json":
        print(json.dumps({
            "n": args.n,
            "op_index": ops[0] if ops else None,
            "coeffs": coeffs,
        }))
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def _handle_classify(args) -> int:
    ring = _ring(args)
    if (args.y is None) != (args.s is None):
        raise ParseError("--y and --s go together")
    if args.y is not None:
        y = parse_quadint(args.y, ring)
        s = parse_quadint(args.s, ring)
        if s == 0:
            raise OutOfRangeError("--s must be nonzero: zero divides nothing")
        verdict = divisibility_filter(y, s)
        if args.format == "json":
            print(json.dumps({"verdict": verdict.value}))
        else:
            print(verdict.value)
        return 0 if verdict is not Divisibility.NEITHER else 1
    winners = classify_forcing(ring)
    if args.format == "json":
        print(json.dumps({
            "forcing": bool(winners),
            "window_side": [_pair_dict(w) for w in winners],
            "direct_side": [_pair_dict(w.conj()) for w in winners],
        }))
    else:
        if winners:
            for w in winners:
                print(f"window={_pair(w)} direct={_pair(w.conj())}")
        else:
            print("none")
    return 0 if winners else 1


def _handle_sweep(args) -> int:
    rows = forcing_sweep(args.max)
    if args.format == "json":
        print(json.dumps([
            {
                "m": r.ring.m,
                "sign": "+" if r.ring.eps == 1 else "-",
                "forcing": r.forcing,
                "window_side": [_pair_dict(w) for w in r.window_side],
                "direct_side": [_pair_dict(w) for w in r.direct_side],
            }
            for r in rows
        ]))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["m", "sign", "forcing", "window_side", "direct_side"])
        for r in rows:
            writer.writerow([
                r.ring.m,
                "+" if r.ring.eps == 1 else "-",
                r.forcing,
                ";".join(_pair(w) for w in r.window_side),
                ";".join(_pair(w) for w in r.direct_side),
            ])
    else:
        for r in rows:
            sign = "+" if r.ring.eps == 1 else "-"
            win = ";".join(_pair(w) for w in r.window_side) or "-"
            direct = ";".join(_pair(w) for w in r.direct_side) or "-"
            print(f"m={r.ring.m} sign={sign} forcing={str(r.forcing).lower()} "
                  f"window={win} direct={direct}")
    return 0


def _handle_params(args) -> int:
    ring = _ring(args)
    pset = characterizing_params(ring)
    if args.format == "json":
        print(json.dumps({
            "count": len(pset.params),
            "direct_side": [_pair_dict(p) for p in pset.params],
            "window_side": [_pair_dict(p) for p in pset.window_values()],
        }))
    else:
        for p in pset.params:
            print(f"direct={_pair(p)} window={_pair(p.conj())}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_ring_args(sp, required: bool = True) -> None:
    sp.add_argument("--m", type=int, required=required, default=None,
                    help="ring coefficient m in beta^2 = m*beta +- 1")
    sp.add_argument("--sign", choices=["+", "-"], required=required, default=None,
                    help="sign of the unit term")


def _add_format(sp, choices=("plain", "json"), default="plain") -> None:
    sp.add_argument("--format", choices=list(choices), default=default,
                    help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcx",
        description="Exact arithmetic for cut-and-project point sets over "
                    "quadratic Pisot units: expansions, closures, witnesses, "
                    "and forcing classification.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("ring-info", help="constants of one ring")
    _add_ring_args(sp)
    _add_format(sp)
    sp.set_defaults(func=_handle_ring_info)

    sp = sub.add_parser("expand", help="greedy digit expansion of a positive element")
    _add_ring_args(sp)
    sp.add_argument("--x", required=True, help='element "a,b"')
    sp.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)
    _add_format(sp)
    sp.set_defaults(func=_handle_expand)

    sp = sub.add_parser("admissible", help="test a digit sequence against the greedy rule")
    _add_ring_args(sp)
    sp.add_argument("--digits", required=True, help='comma-separated digits, e.g. "3,2,2,2"')
    _add_format(sp)
    sp.set_defaults(func=_handle_admissible)

    sp = sub.add_parser("modelset", help="enumerate a cut-and-project set")
    _add_ring_args(sp)
    sp.add_argument("--window", required=True, help="acceptance window for conjugates")
    sp.add_argument("--range", required=True, help="interval of values to list")
    sp.add_argument("--check", default=None, metavar="S",
                    help='also check closure under the parameter "a,b"')
    _add_format(sp, ("plain", "json", "csv"))
    sp.set_defaults(func=_handle_modelset)

    sp = sub.add_parser("closure", help="breadth-first closure of seeds under parameters")
    _add_ring_args(sp)
    sp.add_argument("--seeds", default="0,0;1,0", help='semicolon-separated "a,b" list')
    sp.add_argument("--params", required=True, help='semicolon-separated "a,b" list')
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--range", default=None, help="optional output filter interval")
    sp.add_argument("--cap", type=int, default=1_000_000, help="point budget")
    _add_format(sp, ("plain", "json", "csv"))
    sp.set_defaults(func=_handle_closure)

    sp = sub.add_parser("witness", help="build a generation certificate for a target")
    _add_ring_args(sp)
    sp.add_argument("--target", required=True, help='element "a,b"')
    sp.add_argument("--offset", default=None, help='translate seeds to {c, c+1}')
    sp.add_argument("--reduce", action="store_true", help="rewrite ops down to the index cap")
    _add_format(sp, ("json", "plain"), default="json")
    sp.set_defaults(func=_handle_witness)

    sp = sub.add_parser("reduce", help="rewrite a witness to small op indices")
    _add_ring_args(sp, required=False)
    sp.add_argument("--in", dest="infile", default="-", help="witness JSON file (default stdin)")
    sp.add_argument("--max-index", type=int, default=None)
    _add_format(sp, ("json", "plain"), default="json")
    sp.set_defaults(func=_handle_reduce)

    sp = sub.add_parser("pinch", help="flatten a one-parameter witness to binomial form")
    _add_ring_args(sp, required=False)
    sp.add_argument("--in", dest="infile", default="-", help="witness JSON file (default stdin)")
    sp.add_argument("--n", type=int, required=True, help="binomial exponent")
    _add_format(sp)
    sp.set_defaults(func=_handle_pinch)

    sp = sub.add_parser("classify", help="forcing classification / divisibility filter")
    _add_ring_args(sp)
    sp.add_argument("--y", default=None, help='with --s: test which of y, y-1 the parameter divides')
    sp.add_argument("--s", default=None, help='window-side parameter "a,b"')
    _add_format(sp)
    sp.set_defaults(func=_handle_classify)

    sp = sub.add_parser("sweep", help="classify every ring with m up to a bound")
    sp.add_argument("--max", type=int, required=True, help="largest m to test")
    _add_format(sp, ("plain", "json", "csv"))
    sp.set_defaults(func=_handle_sweep)

    sp = sub.add_parser("gapwitness", help="closure plus a histogram of nearest-neighbor gaps")
    _add_ring_args(sp)
    sp.add_argument("--seeds", default="0,0;1,0", help='semicolon-separated "a,b" list')
    sp.add_argument("--params", required=True, help='semicolon-separated "a,b" list')
    sp.add_argument("--depth", type=int, required=True)
    sp.add_argument("--range", default=None, help="optional output filter interval")
    sp.add_argument("--cap", type=int, default=1_000_000, help="point budget")
    _add_format(sp, ("plain", "json", "csv"))
    sp.set_defaults(func=_handle_gapwitness)

    sp = sub.add_parser("params", help="the characterizing parameter family of a ring")
    _add_ring_args(sp)
    _add_format(sp)
    sp.set_defaults(func=_handle_params)

    return parser


class _LiveStderrHandler(logging.StreamHandler):
    """Stream handler pinned to whatever ``sys.stderr`` currently is.

    Repeated in-process invocations (tests, embedding) may swap the standard
    streams between calls; resolving the stream at emit time follows them.
    """

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):
        pass  # the base constructor assigns a snapshot; the live property wins


def _setup_logging() -> None:
    name = os.environ.get("QCX_LOG", "error").strip().lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        name, logging.ERROR
    )
    logger = logging.getLogger("qcx")
    if not logger.handlers:
        handler = _LiveStderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
    logger.setLevel(level)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ABSENCE_ERRORS as exc:
        print(f"qcx: {exc}", file=sys.stderr)
        return 1
    except QcxError as exc:
        print(f"qcx: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
