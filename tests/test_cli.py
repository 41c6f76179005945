"""Command-line interface: output formats, exit codes, file/stdin plumbing."""

import io
import json
import subprocess
import sys

import pytest

from qcx import RingSpec, Witness, enumerate_model_set, Interval
from qcx.cli import main

GOLDEN = RingSpec(1, 1)
MINUS4 = RingSpec(4, -1)


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# -- ring-info ---------------------------------------------------------------


def test_ring_info_plain(capsys):
    rc, out, _ = run(capsys, "ring-info", "--m", "4", "--sign", "-")
    assert rc == 0
    assert out.splitlines() == [
        "ring m=4 sign=-: beta^2 = 4*beta - 1",
        "disc = 12",
        "beta ~ 3.7320",
        "beta_conj ~ 0.2679",
        "digit_max = 3",
        "index_cap = 1",
        "inv_beta = 4,-1",
    ]


def test_ring_info_json(capsys):
    rc, out, _ = run(capsys, "ring-info", "--m", "1", "--sign", "+", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["m"] == 1 and data["sign"] == "+" and data["disc"] == 5
    assert data["beta"] == "1.6180" and data["digit_max"] == 1
    assert data["inv_beta"] == {"a": -1, "b": 1}


# -- expand / admissible -----------------------------------------------------


def test_expand(capsys):
    rc, out, _ = run(capsys, "expand", "--m", "1", "--sign", "+", "--x", "2,0")
    assert rc == 0 and out == "10.01\n"
    rc, out, _ = run(capsys, "expand", "--m", "1", "--sign", "+", "--x", "2,0",
                     "--format", "json")
    assert json.loads(out) == {"top": 1, "digits": [1, 0, 0, 1], "text": "10.01"}
    rc, out, _ = run(capsys, "expand", "--m", "4", "--sign", "-", "--x", "572,-153")
    assert rc == 0 and out == "0.3222\n"


def test_expand_failures(capsys):
    rc, out, err = run(capsys, "expand", "--m", "4", "--sign", "-", "--x=-3,1")
    assert rc == 1 and out == "" and err.startswith("qcx:")
    rc, _, err = run(capsys, "expand", "--m", "1", "--sign", "+", "--x", "0,0")
    assert rc == 2 and err.startswith("qcx:")
    rc, _, err = run(capsys, "expand", "--m", "1", "--sign", "+", "--x", "abc")
    assert rc == 2 and err.startswith("qcx:")


def test_admissible(capsys):
    rc, out, _ = run(capsys, "admissible", "--m", "4", "--sign", "-",
                     "--digits", "3,2,2,2")
    assert rc == 0 and out == "true\n"
    rc, out, _ = run(capsys, "admissible", "--m", "4", "--sign", "-",
                     "--digits", "3,3")
    assert rc == 1 and out == "false\n"
    rc, out, _ = run(capsys, "admissible", "--m", "4", "--sign", "-",
                     "--digits", "3 2 1", "--format", "json")
    assert rc == 0 and json.loads(out) == {"admissible": True}
    rc, _, err = run(capsys, "admissible", "--m", "4", "--sign", "-", "--digits", "x")
    assert rc == 2 and err.startswith("qcx:")
    rc, _, err = run(capsys, "admissible", "--m", "4", "--sign", "-", "--digits", "7")
    assert rc == 2 and err.startswith("qcx:")


# -- modelset ----------------------------------------------------------------


def test_modelset_formats(capsys):
    args = ("modelset", "--m", "1", "--sign", "+",
            "--window", "0,0:1,0", "--range", "0,0:5,0")
    rc, out, _ = run(capsys, *args)
    assert rc == 0 and out.splitlines() == ["0,0", "1,0", "1,1"]
    rc, out, _ = run(capsys, *args, "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "a,b,value,conj" and len(lines) == 4
    assert lines[1].startswith("0,0,0.0,") and lines[3].startswith("1,1,2.618")
    rc, out, _ = run(capsys, *args, "--format", "json")
    recs = json.loads(out)
    lib = enumerate_model_set(
        GOLDEN, Interval.unit(GOLDEN), Interval.closed(0, 5, GOLDEN)
    ).records()
    assert recs == lib


def test_modelset_negative_endpoints(capsys):
    rc, out, _ = run(capsys, "modelset", "--m", "1", "--sign", "+",
                     "--window=-1,0:0,0", "--range=-2,0:0,0")
    assert rc == 0 and out.splitlines() == ["-1,0", "0,0"]


def test_modelset_window_modes(capsys):
    rc, out, _ = run(capsys, "modelset", "--m", "1", "--sign", "+",
                     "--window", "0,0:1,0:co", "--range", "0,0:1,0")
    assert rc == 0 and out.splitlines() == ["0,0"]
    rc, out, _ = run(capsys, "modelset", "--m", "1", "--sign", "+",
                     "--window", "0,0:1,0:oc", "--range", "0,0:1,0")
    assert rc == 0 and out.splitlines() == ["1,0"]
    rc, _, err = run(capsys, "modelset", "--m", "1", "--sign", "+",
                     "--window", "0,0:1,0:xx", "--range", "0,0:1,0")
    assert rc == 2 and err.startswith("qcx:")


def test_modelset_rational_window(capsys):
    # window [-1/2, 1/2] keeps conjugates near zero
    rc, out, _ = run(capsys, "modelset", "--m", "1", "--sign", "+",
                     "--window=-1,0/2:1,0/2", "--range", "0,0:2,0")
    assert rc == 0 and out.splitlines() == ["0,0"]


def test_modelset_check(capsys):
    rc, out, _ = run(capsys, "modelset", "--m", "1", "--sign", "+",
                     "--window", "0,0:1,0", "--range", "0,0:5,0",
                     "--check=0,-1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "points = 3"
    assert lines[1] == "pairs_checked = 6"
    assert lines[2] == "violations = 0"
    rc, out, _ = run(capsys, "modelset", "--m", "1", "--sign", "+",
                     "--window", "0,0:1,0", "--range", "0,0:5,0",
                     "--check=0,-1", "--format", "json")
    data = json.loads(out)
    assert data["param"] == {"a": 0, "b": -1} and data["violations"] == []
    # parameter whose conjugate leaves the window: usage error
    rc, _, err = run(capsys, "modelset", "--m", "1", "--sign", "+",
                     "--window", "0,0:1,0", "--range", "0,0:5,0",
                     "--check", "2,-1")
    assert rc == 2 and err.startswith("qcx:")


# -- closure / gapwitness ----------------------------------------------------


def test_closure_oracle_and_determinism(capsys):
    args = ("closure", "--m", "1", "--sign", "+", "--params=0,-1", "--depth", "1")
    rc, first, _ = run(capsys, *args)
    assert rc == 0 and first.splitlines() == ["0,-1", "0,0", "1,0", "1,1"]
    rc, second, _ = run(capsys, *args)
    assert second == first                          # byte-for-byte reproducible
    rc, out, _ = run(capsys, "closure", "--m", "1", "--sign", "+",
                     "--params=0,-1", "--depth", "2", "--range", "0,0:1,0")
    assert rc == 0 and out.splitlines() == ["0,0", "1,0"]


def test_closure_custom_seeds(capsys):
    rc, out, _ = run(capsys, "closure", "--m", "1", "--sign", "+",
                     "--seeds", "0,0", "--params=0,-1", "--depth", "3")
    assert rc == 0 and out.splitlines() == ["0,0"]  # a single seed is a fixed point


def test_closure_budget_exhaustion(capsys):
    rc, _, err = run(capsys, "closure", "--m", "1", "--sign", "+",
                     "--params=0,-1", "--depth", "3", "--cap", "5")
    assert rc == 1 and err.startswith("qcx:")


def test_negative_cap_is_an_input_fault(capsys):
    for cmd in ("closure", "gapwitness"):
        rc, out, err = run(capsys, cmd, "--m", "1", "--sign", "+",
                           "--params=0,-1", "--depth", "3", "--cap", "-1")
        assert rc == 2 and out == "" and err == "qcx: node cap must be nonnegative\n", cmd


def test_gapwitness(capsys):
    args = ("gapwitness", "--m", "1", "--sign", "+", "--params=0,-1",
            "--depth", "1", "--range=-2,0:2,0")
    rc, out, _ = run(capsys, *args)
    assert rc == 0 and out.splitlines() == ["1,0 1", "0,1 1"]
    rc, out, _ = run(capsys, *args, "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "a,b,value,count"
    assert lines[1] == "1,0,1.0,1"
    assert lines[2].startswith("0,1,1.618") and lines[2].endswith(",1")
    rc, out, _ = run(capsys, *args, "--format", "json")
    data = json.loads(out)
    assert data["points"] == 3 and len(data["gaps"]) == 2
    assert data["gaps"][0] == {"a": 1, "b": 0, "value": 1.0, "count": 1}


# -- witness / reduce / pinch ------------------------------------------------


def test_witness_json_default(capsys):
    rc, out, _ = run(capsys, "witness", "--m", "1", "--sign", "+", "--target", "2,-1")
    assert rc == 0
    data = json.loads(out)
    assert data == {
        "ring": {"m": 1, "sign": "+"},
        "seeds": [{"a": 0, "b": 0}, {"a": 1, "b": 0}],
        "offset": {"a": 0, "b": 0},
        "root": {
            "op": 1,
            "left": {"op": 1, "left": {"leaf": 1}, "right": {"leaf": 0}},
            "right": {"leaf": 0},
        },
    }
    back = Witness.from_dict(data)
    assert back.evaluate() == GOLDEN.element(2, -1)


def test_witness_plain(capsys):
    rc, out, _ = run(capsys, "witness", "--m", "1", "--sign", "+",
                     "--target", "2,-1", "--format", "plain")
    assert rc == 0
    assert out.splitlines() == [
        "value = 2,-1",
        "conj = 1,1",
        "offset = 0,0",
        "ops = [1]",
        "tree = [1 [1 1 0] 0]",
    ]


def test_witness_reduce_flag(capsys):
    rc, out, _ = run(capsys, "witness", "--m", "4", "--sign", "-",
                     "--target", "572,-153", "--reduce")
    assert rc == 0
    back = Witness.from_dict(json.loads(out))
    assert back.evaluate() == MINUS4.element(572, -153)
    assert back.op_indices() == {1}


def test_witness_offset_and_errors(capsys):
    rc, out, _ = run(capsys, "witness", "--m", "1", "--sign", "+",
                     "--target", "3,-1", "--offset", "1,0")
    data = json.loads(out)
    assert data["offset"] == {"a": 1, "b": 0}
    rc, _, err = run(capsys, "witness", "--m", "1", "--sign", "+",
                     "--target", "5,0", "--offset", "0,0")
    assert rc == 2 and err.startswith("qcx:")       # target outside [0, 1]


def witness_json(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert rc == 0
    return out


def test_reduce_from_file(capsys, tmp_path):
    js = witness_json(capsys, "witness", "--m", "4", "--sign", "-",
                      "--target", "572,-153")
    src = tmp_path / "w.json"
    src.write_text(js)
    rc, out, _ = run(capsys, "reduce", "--in", str(src), "--m", "4", "--sign", "-")
    assert rc == 0
    back = Witness.from_dict(json.loads(out))
    assert back.evaluate() == MINUS4.element(572, -153)
    assert back.op_indices() == {1}
    # declared ring must match the witness payload
    rc, _, err = run(capsys, "reduce", "--in", str(src), "--m", "1", "--sign", "+")
    assert rc == 2 and err.startswith("qcx:")


def test_reduce_from_stdin(capsys, monkeypatch):
    js = witness_json(capsys, "witness", "--m", "4", "--sign", "-", "--target", "0,1")
    monkeypatch.setattr(sys, "stdin", io.StringIO(js))
    rc, out, _ = run(capsys, "reduce")
    assert rc == 0
    back = Witness.from_dict(json.loads(out))
    assert back.evaluate() == MINUS4.beta and max(back.op_indices()) <= 1


def test_pinch(capsys, tmp_path):
    js = witness_json(capsys, "witness", "--m", "1", "--sign", "+", "--target", "2,-1")
    src = tmp_path / "w.json"
    src.write_text(js)
    rc, out, _ = run(capsys, "pinch", "--in", str(src), "--n", "2")
    assert rc == 0 and out == "0 0 1\n"
    rc, out, _ = run(capsys, "pinch", "--in", str(src), "--n", "3", "--format", "json")
    data = json.loads(out)
    assert data == {"n": 3, "op_index": 1, "coeffs": [0, 0, 1, 1]}
    rc, _, err = run(capsys, "pinch", "--in", str(src), "--n", "1")
    assert rc == 2 and err.startswith("qcx:")       # exponent below tree depth


def golden_witness_text(root):
    return json.dumps({
        "ring": {"m": 1, "sign": "+"},
        "seeds": [{"a": 0, "b": 0}, {"a": 1, "b": 0}],
        "offset": {"a": 0, "b": 0},
        "root": root,
    })


@pytest.mark.parametrize("text", [
    "{}",                                                          # no ring
    "[1]",                                                         # not an object
    golden_witness_text({"op": "x", "left": {"leaf": 1}, "right": {"leaf": 0}}),
    "not json",
    golden_witness_text({"op": 0, "left": {"leaf": 1}, "right": {"leaf": 0}}),
    golden_witness_text({"op": 2, "left": {"leaf": 1}, "right": {"leaf": 0}}),  # digit_max + 1
], ids=["missing-key", "wrong-type", "op-not-int", "not-json", "op-0", "op-above-digit-max"])
def test_malformed_witness_input(capsys, tmp_path, text):
    src = tmp_path / "w.json"
    src.write_text(text)
    for argv in (("reduce",), ("pinch", "--n", "2")):
        rc, out, err = run(capsys, *argv, "--in", str(src))
        assert rc == 2 and out == "" and err.startswith("qcx:")


def test_missing_witness_file(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    for argv in (("reduce",), ("pinch", "--n", "3")):
        rc, out, err = run(capsys, *argv, "--in", str(missing))
        assert rc == 2 and out == "" and err.startswith("qcx: cannot read witness file")


def test_deeply_nested_witness_json(capsys, tmp_path):
    # json.load recurses once per level and stops near 1,000 of them
    levels = 1500
    root = '{"op": 1, "right": {"leaf": 0}, "left": ' * levels + '{"leaf": 1}' + "}" * levels
    src = tmp_path / "deep.json"
    src.write_text(golden_witness_text({}).replace("{}", root))
    for argv in (("reduce",), ("pinch", "--n", "3")):
        rc, out, err = run(capsys, *argv, "--in", str(src))
        assert rc == 2 and out == "" and err.startswith("qcx: witness nests too deeply")


# -- classify / sweep / params -----------------------------------------------


def test_classify_forcing(capsys):
    rc, out, _ = run(capsys, "classify", "--m", "1", "--sign", "+")
    assert rc == 0
    assert out.splitlines() == [
        "window=-1,1 direct=0,-1",
        "window=2,-1 direct=1,1",
    ]
    rc, out, _ = run(capsys, "classify", "--m", "3", "--sign", "+")
    assert rc == 1 and out == "none\n"
    rc, out, _ = run(capsys, "classify", "--m", "4", "--sign", "-",
                     "--format", "json")
    data = json.loads(out)
    assert data["forcing"] is True
    assert data["direct_side"] == [{"a": 0, "b": 1}, {"a": 1, "b": -1}]


def test_classify_divisibility(capsys):
    rc, out, _ = run(capsys, "classify", "--m", "3", "--sign", "+",
                     "--y", "20,-6", "--s", "4,-1")
    assert rc == 1 and out == "Neither\n"
    rc, out, _ = run(capsys, "classify", "--m", "3", "--sign", "+",
                     "--y", "20,-6", "--s", "20,-6")
    assert rc == 0 and out == "DividesY\n"
    rc, out, _ = run(capsys, "classify", "--m", "3", "--sign", "+",
                     "--y", "20,-6", "--s", "19,-6", "--format", "json")
    assert rc == 0 and json.loads(out) == {"verdict": "DividesYMinus1"}
    rc, _, err = run(capsys, "classify", "--m", "3", "--sign", "+", "--y", "2,0")
    assert rc == 2 and err.startswith("qcx:")       # --y needs --s


def test_classify_zero_divisor_is_an_input_fault(capsys):
    rc, out, err = run(capsys, "classify", "--m", "1", "--sign", "+", "--y=1,0", "--s=0,0")
    assert rc == 2 and out == "" and err.startswith("qcx: --s must be nonzero")


def test_sweep(capsys):
    rc, out, _ = run(capsys, "sweep", "--max", "30", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 57                          # plus m 1..30, minus m 4..30
    forcing = [r for r in rows if r["forcing"]]
    assert [(r["m"], r["sign"]) for r in forcing] == [(1, "+"), (2, "+"), (4, "-")]
    assert forcing[2]["direct_side"] == [{"a": 0, "b": 1}, {"a": 1, "b": -1}]
    rc, out, _ = run(capsys, "sweep", "--max", "4")
    lines = out.splitlines()
    assert lines[0] == "m=1 sign=+ forcing=true window=-1,1;2,-1 direct=0,-1;1,1"
    assert lines[2] == "m=3 sign=+ forcing=false window=- direct=-"
    rc, out, _ = run(capsys, "sweep", "--max", "4", "--format", "csv")
    assert out.splitlines()[0] == "m,sign,forcing,window_side,direct_side"
    rc, _, err = run(capsys, "sweep", "--max", "3")
    assert rc == 2 and err.startswith("qcx:")


def test_params(capsys):
    rc, out, _ = run(capsys, "params", "--m", "7", "--sign", "-")
    assert rc == 0
    assert out.splitlines() == [
        "direct=0,1 window=7,-1",
        "direct=0,2 window=14,-2",
        "direct=0,3 window=21,-3",
    ]
    rc, out, _ = run(capsys, "params", "--m", "1", "--sign", "+", "--format", "json")
    data = json.loads(out)
    assert data["count"] == 1
    assert data["direct_side"] == [{"a": 0, "b": -1}]
    assert data["window_side"] == [{"a": -1, "b": 1}]


# -- usage errors and plumbing -----------------------------------------------


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "ring-info", "--m", "1", "--sign", "+", "--bogus")[0] == 2
    assert run(capsys, "ring-info", "--sign", "+")[0] == 2      # --m is required
    assert run(capsys, "ring-info", "--m", "0", "--sign", "+")[0] == 2
    assert run(capsys, "ring-info", "--m", "3", "--sign", "-")[0] == 2
    assert run(capsys)[0] == 2                                  # subcommand required
    assert run(capsys, "--help")[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qcx", "ring-info", "--m", "1", "--sign", "+"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ring m=1 sign=+")


def test_log_level_routing(capsys, monkeypatch):
    import logging

    monkeypatch.setattr(logging.getLogger("qcx"), "handlers", [])
    monkeypatch.setenv("QCX_LOG", "debug")
    rc, out, err = run(capsys, "closure", "--m", "1", "--sign", "+",
                       "--params=0,-1", "--depth", "2")
    assert rc == 0
    assert "closure round" in err                   # diagnostics on stderr only
    first = out
    monkeypatch.setenv("QCX_LOG", "error")
    rc, out, err = run(capsys, "closure", "--m", "1", "--sign", "+",
                       "--params=0,-1", "--depth", "2")
    assert rc == 0 and out == first and err == ""
