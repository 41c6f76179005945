"""qcx benchmark: one workload per invocation, in a fresh interpreter.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``qcx`` from its ``src``
directory, nothing else.  Human-readable lines describing each metric go to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones (and the spans are written to ``perfbench/out``).

Any operation that raises or fails its oracle is counted in ``failed`` and
makes the exit code 1.  A checkout without ``src/qcx`` exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("closure", "modelset", "certify", "requests")

# Set-up is measured this many times: once in the workload process itself and
# once in each of SETUP_SAMPLES - 1 fresh interpreters started before it.
SETUP_SAMPLES = 9


def import_qcx():
    """Import qcx from this checkout's src, refusing any other copy."""
    if not (SRC / "qcx" / "__init__.py").is_file():
        print(f"qcx sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qcx

    if Path(qcx.__file__).resolve().parent != (SRC / "qcx").resolve():
        print(f"imported qcx from {qcx.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return qcx


def timed_setup(workload: str) -> tuple[float, object]:
    """Import qcx and make one warm-up call of each operation kind; the time
    is scaled to the reference speed like every other time."""
    from harness import REFERENCE_KERNEL_S, speed_kernel

    before = speed_kernel()
    t0 = perf_counter()
    import_qcx()
    module = importlib.import_module(f"workloads.{workload}")
    module.warm_up()
    elapsed = perf_counter() - t0
    return elapsed * 2 * REFERENCE_KERNEL_S / (before + speed_kernel()), module


def setup_probe(workload: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode or 2)
    return float(proc.stdout.strip().splitlines()[-1])


def load_layers() -> list[tuple[str, str]]:
    """Per-layer metric names and units, as BENCHMARK.json defines them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs, for the benchmark's self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    if args.setup_probe:
        elapsed, _ = timed_setup(args.workload)
        print(repr(elapsed))
        return 0

    # set-up is an end-to-end metric only, so a traced run skips the extra probes
    samples = [setup_probe(args.workload) for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    elapsed, module = timed_setup(args.workload)
    samples.append(elapsed)

    import harness

    wl = module.Workload(args.seed, args.tiny)
    t0 = perf_counter()
    run = harness.run_rounds(wl.make_round, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = sum(r.traced for r in run.rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(run.rounds)} rounds "
          f"({traced} traced), item = {module.ITEM}")
    if args.trace:
        metrics = harness.per_layer(run, load_layers())
        path = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(path, t0)
        print(f"{len(run.tracer.spans)} spans written to {path.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics, lines = harness.end_to_end(run, samples, peak_rss_mb)
        print("setup samples (s): " + " ".join(f"{s:.4f}" for s in samples))
        for line in lines:
            print(line)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
