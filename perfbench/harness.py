"""Round loop, span tracing and metric assembly shared by every workload.

A workload run is a sequence of rounds.  Round ``r`` gets fresh inputs made
from ``(seed, r)`` before any of its operations is timed; every round of one
workload has the same mix of operation kinds and sizes, so per-round rates
are comparable and the figures taken over rounds do not depend on how many
rounds fit into ``--seconds``.  Only the calls into ``qcx`` are timed; the
oracle that checks each result runs between the timed operations.

Times are scaled to a reference machine speed.  A fixed pure-Python kernel
that shares no code with ``qcx`` is timed before every round and after the
last; each round's times are multiplied by REFERENCE_KERNEL_S over the mean
of the two kernel times around it.  On a shared 2-vCPU sandbox the speed of
the same code drifted by up to half within seconds; over 150 s of rounds cut
into 20 s windows, the window medians of unscaled rates spread by 6-20%
(interquartile range over median), those of scaled rates by 2-2.5%.

With tracing on, odd rounds are traced and even rounds are not, so the
overhead is measured under the same conditions as the traced numbers.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# A round always runs whole, and a run always has at least this many rounds,
# so a traced run has at least two traced and two untraced rounds.
MIN_ROUNDS = 4

# Latency tail: the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

# Time of speed_kernel() on an unloaded 2.1 GHz Xeon sandbox core.
REFERENCE_KERNEL_S = 0.0135


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def speed_kernel() -> float:
    """Seconds taken by a fixed mix of small-object creation, integer
    arithmetic, dict inserts and a sort (the kinds of work qcx does), with
    the garbage collector off so the program's heap does not enter into it;
    the faster of two runs."""
    times = []
    for _ in range(2):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        seen: dict[int, _Pair] = {}
        rows = []
        for i in range(20_000):
            p = _Pair(i * 7919 + 3, i * 104729 - 5)
            q = _Pair(p.a * p.b + 11, p.a - p.b)
            key = (q.a * 1_000_003 + q.b) & 0x3FF
            if key not in seen:
                seen[key] = q
                rows.append((q.b, q.a))
        rows.sort()
        times.append(perf_counter() - t0)
        if enabled:
            gc.enable()
    return min(times)


class Direct:
    """Untraced calls: the workload code calls straight through."""

    traced = False

    @staticmethod
    def call(name: str, fn: Callable, *args, work: Callable | None = None, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def span(name: str, calls: int = 1, work: dict | None = None, tag: str | None = None):
        return nullcontext()


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    parent: int | None
    op: int | None
    round: int
    start: float = 0.0
    end: float = 0.0
    calls: int = 1
    work: dict[str, int] | None = None
    tag: str | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class _SpanScope:
    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span.sid)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Keeps every span in memory: name, start, end, parent span, operation id.

    ``call`` wraps one public call; ``span`` wraps a block, for loops that
    call one function per point and are recorded as one span with a call
    count.  ``work`` holds the layer's named work counts (points, pairs, ...),
    for ``call`` taken from the result by a function.
    """

    traced = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.round = 0

    def _open(self, name: str, calls: int, work: dict | None, tag: str | None) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                    self.op, self.round, calls=calls, work=work, tag=tag)
        self.spans.append(span)
        return span

    def span(self, name: str, calls: int = 1, work: dict | None = None,
             tag: str | None = None) -> _SpanScope:
        return _SpanScope(self, self._open(name, calls, work, tag))

    def call(self, name: str, fn: Callable, *args, work: Callable | None = None, **kwargs):
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        if work is not None:
            span.work = work(result)
        return result

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children.

        Children of one span run one after another, so their durations add up
        to the part of the parent's interval they cover.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        return [s.dur - c for s, c in zip(self.spans, child)]

    def write(self, path: Path, t0: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                rec = {
                    "id": s.sid, "name": s.name, "parent": s.parent, "op": s.op,
                    "round": s.round, "start": s.start - t0, "end": s.end - t0,
                    "self": self_s, "calls": s.calls,
                }
                if s.work:
                    rec["work"] = s.work
                if s.tag is not None:
                    rec["tag"] = s.tag
                fh.write(json.dumps(rec) + "\n")


@dataclass
class Op:
    """One timed operation: ``run(lib)`` calls the library through ``lib``
    (Direct or a Tracer), ``check(result)`` returns an error message or None,
    ``count(result)`` is the number of items completed, and ``latency`` marks
    operations whose time is a latency sample."""

    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    count: Callable[[Any], int]
    latency: bool = True
    label: str = ""


@dataclass
class RoundResult:
    """One round's measured busy time and latencies, and ``scale``, the
    factor that brings them to the reference speed."""

    traced: bool
    busy: float = 0.0
    items: int = 0
    latencies: list[float] = field(default_factory=list)
    scale: float = 1.0

    @property
    def items_per_s(self) -> float:
        return self.items / (self.busy * self.scale)

    @property
    def raw_items_per_s(self) -> float:
        return self.items / self.busy


@dataclass
class RunResult:
    rounds: list[RoundResult]
    attempted: int
    failed: int
    tracer: Tracer | None


def run_rounds(make_round: Callable[[int], list[Op]], seconds: float, trace: bool) -> RunResult:
    """Run whole rounds until ``seconds`` have passed and MIN_ROUNDS are done."""
    tracer = Tracer() if trace else None
    rounds: list[RoundResult] = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    kernel = speed_kernel()
    r = 0
    while r < MIN_ROUNDS or perf_counter() < deadline:
        ops = make_round(r)
        traced = tracer is not None and r % 2 == 1
        lib = tracer if traced else Direct
        rr = RoundResult(traced)
        for i, op in enumerate(ops):
            if traced:
                tracer.op = r * len(ops) + i
                tracer.round = r
            attempted += 1
            error = None
            t0 = perf_counter()
            try:
                result = op.run(lib)
            except Exception:  # the run goes on; the operation counts as failed
                dt = perf_counter() - t0
                error = "raised:\n" + traceback.format_exc()
            else:
                dt = perf_counter() - t0
                try:
                    error = op.check(result)
                except Exception:
                    error = "oracle raised:\n" + traceback.format_exc()
            rr.busy += dt
            if op.latency:
                rr.latencies.append(dt)
            if error is None:
                rr.items += op.count(result)
            else:
                failed += 1
                print(f"FAILED round {r} op {i} {op.label}: {error}", file=sys.stderr)
        after = speed_kernel()
        rr.scale = 2 * REFERENCE_KERNEL_S / (kernel + after)
        kernel = after
        rounds.append(rr)
        r += 1
    return RunResult(rounds, attempted, failed, tracer)


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile with TAIL_BEYOND
    samples beyond it; with too few samples for that, the maximum."""
    return n - TAIL_BEYOND - 1 if n >= 2 * TAIL_BEYOND else n - 1


def end_to_end(run: RunResult, setup_samples: list[float],
               peak_rss_mb: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics and the lines that describe how each was taken."""
    rounds = [r for r in run.rounds if not r.traced]
    n_ops = len(rounds[0].latencies)
    ti = tail_index(n_ops)
    p50 = statistics.median(statistics.median(r.latencies) * r.scale for r in rounds)
    tail = statistics.median(sorted(r.latencies)[ti] * r.scale for r in rounds)
    pct = 100.0 * (ti + 1) / n_ops
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_s": (statistics.median(r.items_per_s for r in rounds), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    over = f"median over {len(rounds)} rounds"
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "items_per_s": over,
        "latency_p50_ms": f"per-round p50, {n_ops} ops a round, "
                          f"{n_ops * len(rounds)} samples; {over}",
        "latency_tail_ms": f"per-round p{pct:.1f} ({n_ops - ti - 1} of {n_ops} ops "
                           f"beyond it); {over}",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    lines = [f"{k:<16} {v:>14.6g} {u:<4} {notes[k]}" for k, (v, u) in metrics.items()]
    scales = [r.scale for r in rounds]
    raw = statistics.median(r.raw_items_per_s for r in rounds)
    lines.append(f"times scaled to the reference speed; round scales {min(scales):.3f}.."
                 f"{max(scales):.3f}, unscaled items_per_s {raw:.6g}")
    frac = run.failed / run.attempted
    lines.append(f"{'failed_frac':<16} {frac:>14.6g} {'1':<4} {run.failed} of {run.attempted} ops")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(run: RunResult, layers: list[tuple[str, str]]) -> dict:
    """Per-layer metrics from the traced rounds.

    ``layers`` lists (metric name, unit) for every per-layer metric the
    benchmark defines; the last part of the name says what is measured:
    ``busy_s``, ``self_s``, ``calls``, a rate ``*_per_s``, a per-command
    ``latency_p50_ms`` of ``cli.main``, a ``trace.*`` figure, or else the
    work count the layer reports.  Counts (``calls`` and work) come from the
    first traced round, whose inputs are fixed by the seed, so they repeat
    exactly; busy and self times are medians over traced rounds of the
    per-round sums; rates are total work over total busy time of all traced
    rounds.  All times are scaled like the end-to-end ones.
    """
    tracer = run.tracer
    traced_rounds = sorted({i for i, r in enumerate(run.rounds) if r.traced})
    first = traced_rounds[0]
    self_s = tracer.self_times()
    busy: dict[tuple[str, int], list[float]] = {}   # (layer, round) -> [busy, self]
    counts: dict[tuple[str, str], int] = {}          # (layer, count) in the first traced round
    totals: dict[tuple[str, str], float] = {}        # (layer, count or "busy") over all rounds
    tags: dict[str, list[float]] = {}
    for s, st in zip(tracer.spans, self_s):
        scale = run.rounds[s.round].scale
        acc = busy.setdefault((s.name, s.round), [0.0, 0.0])
        acc[0] += s.dur * scale
        acc[1] += st * scale
        totals[(s.name, "busy")] = totals.get((s.name, "busy"), 0.0) + s.dur * scale
        work = dict(s.work or {}, calls=s.calls)
        for k, v in work.items():
            totals[(s.name, k)] = totals.get((s.name, k), 0) + v
            if s.round == first:
                counts[(s.name, k)] = counts.get((s.name, k), 0) + v
        if s.tag is not None:
            tags.setdefault(s.tag, []).append(s.dur * scale)

    def per_round(name: str, idx: int) -> float:
        return statistics.median(busy.get((name, r), [0.0, 0.0])[idx] for r in traced_rounds)

    u_rate = statistics.median(r.items_per_s for r in run.rounds if not r.traced)
    t_rate = statistics.median(r.items_per_s for r in run.rounds if r.traced)
    out = {}
    for name, unit in layers:
        layer, _, stat = name.rpartition(".")
        if layer == "trace":
            value = {
                "overhead_pct": 100.0 * (u_rate / t_rate - 1.0),
                "items_per_s": t_rate,
                "untraced_items_per_s": u_rate,
                "spans": sum(1 for s in tracer.spans if s.round == first),
            }[stat]
        elif stat == "latency_p50_ms":
            samples = tags.get(layer, [])
            value = statistics.median(samples) * 1e3 if samples else 0.0
        elif stat == "busy_s":
            value = per_round(layer, 0)
        elif stat == "self_s":
            value = per_round(layer, 1)
        elif stat.endswith("_per_s"):
            total_busy = totals.get((layer, "busy"), 0.0)
            work = totals.get((layer, stat[: -len("_per_s")]), 0)
            value = work / total_busy if total_busy else 0.0
        else:  # calls or a work count
            value = counts.get((layer, stat), 0)
        out[name] = {"value": value, "unit": unit}
    return out
