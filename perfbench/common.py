"""Pieces shared by the orchestrator and the in-process worker: the
per-layer metric list, span tracing, summary statistics and the timed
closed loop.  Standard library only.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
import statistics
import time
import tracemalloc
from pathlib import Path

WORK_DIR = ".perfbench_work"  # inside the checkout; listed in .gitignore
SETUP_SAMPLES = 7
# Every child runs its numeric libraries on one thread, so one client on a
# 2-core machine does not oversubscribe it.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

CLI_COMMANDS = (
    "simulate", "sweep", "bode", "margins", "select-freq",
    "fit", "optimize", "budget", "report",
)

_STATS = ("calls", "busy_ms", "p50_ms", "failed")
_UNITS = {"calls": "count", "busy_ms": "ms", "p50_ms": "ms", "failed": "count"}
_BETTER = {"calls": "higher", "busy_ms": "lower", "p50_ms": "lower", "failed": "lower"}


def _layer(name, extra=()):
    return [(f"{name}.{s}", _UNITS[s], _BETTER[s]) for s in _STATS] + list(extra)


# (name, unit, better) of every per-layer metric, in print order.  Every
# workload reports all of them; layers a workload does not call read 0.
PER_LAYER = (
    [
        ("import.opasim_ms", "ms", "lower"),
        ("import.scipy_ms", "ms", "lower"),
        ("import.numpy_ms", "ms", "lower"),
    ]
    + [
        m
        for c in CLI_COMMANDS + ("error_path",)
        for m in ((f"cli.{c}.wall_p50_ms", "ms", "lower"), (f"cli.{c}.failed", "count", "lower"))
    ]
    + _layer("scenario.load_scenario")
    + _layer(
        "detection.simulate_zero_span",
        extra=[
            ("detection.simulate_zero_span.peak_alloc_mib", "MiB", "lower"),
            ("detection.simulate_zero_span.draws", "count", "higher"),
        ],
    )
    + _layer("detection.simulate_shot_reference")
    + _layer("detection.sweep_frequency")
    + [
        ("detection.select_measurement_frequency.busy_ms", "ms", "lower"),
        ("detection.trace_extrema.busy_ms", "ms", "lower"),
    ]
    + _layer("loop.default_lock_loops")
    + _layer("loop.stability_margins")
    + _layer("loop.select_shift_frequency")
    + _layer("loop.calibrate_jitter_amplitude")
    + _layer("loop.residual_jitter")
    + _layer(
        "fitting.fit_pump_sweep",
        extra=[("fitting.fit_pump_sweep.iterations_mean", "count", "lower")],
    )
    + _layer("fitting.optimal_pump_power")
    + _layer("fitting.grid_search_optimal_pump")
    + [
        ("noise.forward.calls", "count", "higher"),
        ("noise.forward.busy_ms", "ms", "lower"),
        ("noise.forward.ns_per_eval", "ns", "lower"),
        ("trace.ops_per_s_untraced", "1/s", "higher"),
        ("trace.ops_per_s_traced", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.wait_ms", "ms", "lower"),
    ]
)

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples above it, i.e. the 11th largest sample.  Below 11 samples it is
    the maximum (percentile 100)."""
    n = len(values)
    if n == 0:
        return 0.0, 100.0, 0
    rank = n - 10 if n > 10 else n
    return sorted(values)[rank - 1], 100.0 * rank / n, n


class Op:
    """One operation: ``run(tracer)`` makes the program calls and returns
    their outputs; ``check(outputs)`` returns the oracle's error strings."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind, self.run, self.check = kind, run, check


class NullTracer:
    """Untraced runs: a call is just the call."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, key, value):
        pass

    def begin_op(self, kind):
        pass

    def end_op(self):
        pass


class Tracer:
    """Spans kept in memory: (name, start, end, parent span id, op id).

    Only the benchmark's own calls into the program are wrapped.  Calls named
    in ``alloc_names`` also record their peak traced allocation.
    """

    def __init__(self, alloc_names=()):
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, float]] = {}
        self.alloc_names = set(alloc_names)
        self._ids = itertools.count()
        self._op = None

    def begin_op(self, kind):
        self._op = {"id": next(self._ids), "name": f"op.{kind}", "start": time.perf_counter()}

    def end_op(self):
        op = self._op
        op.update(end=time.perf_counter(), parent=None, op=op["id"], failed=False)
        self.spans.append(op)
        self._op = None

    def call(self, name, fn, *args, **kwargs):
        track = name in self.alloc_names
        if track:
            tracemalloc.start()
        span = {"id": next(self._ids), "name": name, "parent": self._op and self._op["id"],
                "op": self._op and self._op["id"], "failed": True}
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            span["failed"] = False
            return out
        finally:
            span["end"] = time.perf_counter()
            if track:
                span["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self.spans.append(span)

    def count(self, name, key, value):
        slot = self.counts.setdefault(name, {})
        slot[key] = slot.get(key, 0) + value

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, edge = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, edge), min(b, s["end"])
            if b > a:
                covered += b - a
                edge = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer stats from the spans of one traced phase."""
    selfs = self_times(tracer.spans)
    by_name: dict[str, list[dict]] = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    out = {}
    for name, spans in by_name.items():
        if name.startswith("op."):
            continue
        out[f"{name}.calls"] = len(spans)
        out[f"{name}.busy_ms"] = 1e3 * sum(selfs[s["id"]] for s in spans)
        out[f"{name}.p50_ms"] = 1e3 * median([s["end"] - s["start"] for s in spans])
        out[f"{name}.failed"] = sum(s["failed"] for s in spans)
        peaks = [s["peak_alloc_bytes"] for s in spans if "peak_alloc_bytes" in s]
        if peaks:
            out[f"{name}.peak_alloc_mib"] = max(peaks) / 2**20
    return out


def timed_loop(cycle, seconds: float, tracer) -> dict:
    """One closed-loop client over ``cycle``, a fixed list of decks of
    operations: decks 0, 1, ..., wrapping round, until ``seconds`` have
    passed and every deck has run at least once.  ``run`` is timed,
    ``check`` is not.

    Every run attempts the same inputs in the same order, however fast the
    program is; a faster program only makes more passes over them.  So
    ``attempted``, ``failed`` and ``value_errors`` count inputs, not
    attempts: an input fails if any of its attempts failed, and the counts
    do not depend on how many passes the time allowed.
    ``records`` holds (input index, seconds, passed) per attempt.
    ``wait_s`` is the wall time in which neither the program nor the client
    (checking outputs) was working: zero for one closed-loop client, up to
    the loop's own bookkeeping.
    """
    records, failures = [], {}
    failed, value_errors = {}, set()
    client = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        for k, op in enumerate(cycle[i % len(cycle)]):
            tracer.begin_op(op.kind)
            t0 = time.perf_counter()
            try:
                out = op.run(tracer)
                error = None
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed op
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            tracer.end_op()
            if error is None:
                t_check = time.perf_counter()
                try:
                    errors = op.check(out)
                except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the op
                    errors = [f"check raised {type(exc).__name__}: {exc}"]
                client += time.perf_counter() - t_check
                if errors:
                    value_errors.add((i % len(cycle), k))
                    error = "; ".join(errors)
            if error is not None:
                failed[(i % len(cycle), k)] = op.kind
                key = f"{op.kind}: {error[:160]}"
                failures[key] = failures.get(key, 0) + 1
            records.append(((i % len(cycle), k), elapsed, error is None))
        i += 1
        if i >= len(cycle) and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    program = sum(r[1] for r in records)
    return {
        "records": records,
        "attempted": sum(len(deck) for deck in cycle),
        "failed": len(failed),
        "value_errors": len(value_errors),
        "failed_by_kind": dict(collections.Counter(failed.values())),
        "failures": failures,
        "passes": i / len(cycle),
        "wall_s": wall,
        "wait_s": wall - program - client,
        "wall_ops_per_s": sum(r[2] for r in records) / wall,
    }


def summarize(loop: dict, slowest_of_passes: bool) -> dict:
    """A timed loop's counts with its end-to-end metrics (all but set-up and
    memory) in place of the raw records.

    With ``slowest_of_passes`` each input counts once, with its slowest
    attempt, and passes only if every attempt passed.  On a shared host the
    same code runs at two speeds: a usual, loaded one and brief fast spells
    whose share of a run varies from run to run.  An input's slowest of
    about three attempts, taken seconds apart, is almost always a loaded
    one, so the figures do not depend on how many fast spells a run met; a
    result memoized across calls does not count either, because the first
    attempt is also one of them.  Otherwise every attempt is a sample.
    Throughput divides the passing samples by the program's time for all
    samples, so input generation and checks are not in it.
    """
    if slowest_of_passes:
        worst, bad = {}, set()
        for key, seconds, ok in loop["records"]:
            worst[key] = max(seconds, worst.get(key, 0.0))
            if not ok:
                bad.add(key)
        samples = [(seconds, key not in bad) for key, seconds in worst.items()]
    else:
        samples = [(seconds, ok) for _, seconds, ok in loop["records"]]
    lat_ms = [1e3 * seconds for seconds, _ in samples]
    value, pct, n = tail(lat_ms)
    return {
        **{k: v for k, v in loop.items() if k != "records"},
        "op_p50_ms": median(lat_ms),
        "op_tail_ms": value,
        "op_tail_pct": pct,
        "op_samples": n,
        "ops_per_s": sum(ok for _, ok in samples) / sum(seconds for seconds, _ in samples),
    }


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}" if math.isfinite(value) else str(value)
    return str(value)
