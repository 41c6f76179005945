"""Self-test of the benchmark: a tiny-input run of every workload.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --tiny`` untraced and traced and checks
that the last output line has exactly the keys of the result object, that
every metric BENCHMARK.json names is printed with its unit, that the oracles
passed, and that the traced run wrote its spans.  It also checks that the
benchmark refuses to run in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPAN_KEYS = {"id", "name", "start", "end", "parent", "op", "round", "self", "calls"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_result(proc: subprocess.CompletedProcess, want: dict[str, str], what: str) -> list[str]:
    if proc.returncode != 0:
        raise SystemExit(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{what}: oracle failures {result['failed']} of {result['attempted']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"{what}: metrics {got}, expected {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise SystemExit(f"{what}: {name} is not a number")
    return lines


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "3", "--seconds", "0.5", "--tiny"]
        lines = check_result(run(base + ["--trace", "0"], ROOT), e2e, f"{name} untraced")
        if not any(line.startswith("failed_frac") for line in lines):
            raise SystemExit(f"{name}: failed_frac not reported")
        for metric, value in json.loads(lines[-1])["metrics"].items():
            if value["value"] <= 0:
                raise SystemExit(f"{name}: end-to-end metric {metric} is {value['value']}")
        check_result(run(base + ["--trace", "1"], ROOT), layers, f"{name} traced")
        spans_path = BENCH_DIR / "out" / f"spans-{name}-seed3.jsonl"
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        if not spans or any(not SPAN_KEYS <= set(s) for s in spans):
            raise SystemExit(f"{name}: spans missing or incomplete in {spans_path}")
        if any(s["end"] < s["start"] or s["self"] < -1e-9 for s in spans):
            raise SystemExit(f"{name}: a span ends before it starts or has negative self time")
        print(f"ok {name}: {len(e2e)} end-to-end and {len(layers)} per-layer metrics, "
              f"{len(spans)} spans")

    # a directory with only BENCHMARK.json and the benchmark must be refused
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"bare directory: exit {proc.returncode}, output {proc.stdout!r}")
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
