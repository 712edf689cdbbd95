"""opasim benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload {cli,analyzer,design} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from ``src`` and
writes only under ``.perfbench_work``.  It prints a header (machine, versions,
source identity, seed), one ``name = value unit`` line per metric and, as
the last line, a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a traced run and the tracing overhead.

Workloads (one closed-loop client each):
- cli: a fresh ``opasim`` process per operation, nine commands round-robin
  and every tenth operation on an error path; start-up and import dominate.
- analyzer: in-process zero-span traces (K = RBW/VBW up to 1e4, up to 2000
  points) and frequency sweeps; cost hides in K, not in the output size.
- design: in-process fit studies, lock-loop studies and scalar model maps;
  loop, fitting and forward-model code, no analyzer statistics.

Standard library only, so the orchestrating process stays small and all
numeric work happens in the children it measures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import cli_workload
import common
import inputs

IMPORT_SAMPLES = 3
REF_SAMPLES = 15
CHILD_TIMEOUT_S = 170
SETUP_PROBE = "import sys, opasim; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def header(root: Path, src: Path, args) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        sha = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((src / "opasim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
    }


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop.  It measures how fast the
    host is at the time of a run, so that runs made while a shared host was
    slower can be told apart; it enters no metric."""
    times = []
    for _ in range(REF_SAMPLES):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(100_000):
            total += i * 0.5
        times.append(time.perf_counter() - t0)
    return 1e3 * common.median(times)


def time_to_ready(argv, env, cwd) -> tuple[float, subprocess.Popen]:
    """Start a fresh interpreter and time it until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{argv[1:3]} did not get ready (exit {proc.returncode})")
    return elapsed, proc


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return out


def import_breakdown(env, cwd) -> dict:
    """Median of ``-X importtime`` in fresh interpreters: cumulative time of
    ``import opasim``, and the summed self time of scipy and numpy modules."""
    samples = {"import.opasim_ms": [], "import.scipy_ms": [], "import.numpy_ms": []}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import opasim"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        self_us = {"scipy": 0, "numpy": 0}
        opasim_us = 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            top = name.split(".")[0]
            if top in self_us:
                self_us[top] += int(fields[0])
            if name == "opasim":
                opasim_us = int(fields[1])
        samples["import.opasim_ms"].append(opasim_us / 1e3)
        samples["import.scipy_ms"].append(self_us["scipy"] / 1e3)
        samples["import.numpy_ms"].append(self_us["numpy"] / 1e3)
    return {k: common.median(v) for k, v in samples.items()}


def run_cli(args, src, work, env, trace_path) -> dict:
    setup = []
    for _ in range(common.SETUP_SAMPLES):
        elapsed, proc = time_to_ready([sys.executable, "-c", SETUP_PROBE], env, work)
        finish(proc)
        setup.append(elapsed)
    result = {"setup_s": common.median(setup)}
    ops = cli_workload.cycle(args.seed, work, env)
    if args.trace:
        untraced = common.timed_loop(ops, args.seconds / 2, common.NullTracer())
        tracer = common.Tracer()
        traced = common.timed_loop(ops, args.seconds / 2, tracer)
        tracer.write(trace_path)
        layers = {}
        for name, value in common.layer_metrics(tracer).items():
            if name.endswith(".p50_ms") and name.startswith("cli."):
                layers[name.replace(".p50_ms", ".wall_p50_ms")] = value
        for kind in common.CLI_COMMANDS + ("error_path",):
            layers[f"cli.{kind}.failed"] = traced["failed_by_kind"].get(kind, 0)
        result.update(untraced=common.summarize(untraced, slowest_of_passes=False),
                      traced=common.summarize(traced, slowest_of_passes=False), layers=layers)
    else:
        loop = common.timed_loop(ops, args.seconds, common.NullTracer())
        result["untraced"] = common.summarize(loop, slowest_of_passes=False)
    # largest child: every child of this process ran opasim
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return result


def run_inprocess(args, src, work, env, trace_path) -> dict:
    p = inputs.scenario_params(inputs.deck_rng(args.seed, "base", 0))
    scenario = work / "base.scenario"
    scenario.write_text(inputs.render_scenario(p))
    argv = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scenario", str(scenario), "--src", str(src), "--trace-out", str(trace_path),
    ]
    setup = []
    for _ in range(common.SETUP_SAMPLES - 1):
        elapsed, proc = time_to_ready(argv + ["--setup-only"], env, work)
        finish(proc)
        setup.append(elapsed)
    elapsed, proc = time_to_ready(argv, env, work)
    setup.append(elapsed)
    result = json.loads(finish(proc).strip().splitlines()[-1])
    result["setup_s"] = common.median(setup)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="opasim benchmark")
    ap.add_argument("--workload", choices=("cli", "analyzer", "design"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "opasim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {src / 'opasim'}; "
                         "run from the root of an opasim checkout\n")
        return 2
    env = common.child_env(src)
    work = root / common.WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_path = root / common.WORK_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    info = header(root, src, args)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    work.mkdir(parents=True)
    ref_before = host_reference_ms()
    try:
        imports = import_breakdown(env, work) if args.trace else {}
        runner = run_cli if args.workload == "cli" else run_inprocess
        result = runner(args, src, work, env, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"# host reference loop: {ref_before:.3f} ms before the run, "
          f"{host_reference_ms():.3f} ms after")

    loops = [result["untraced"]] + ([result["traced"]] if args.trace else [])
    attempted = sum(lp["attempted"] for lp in loops)
    failed = sum(lp["failed"] for lp in loops)
    value_errors = sum(lp["value_errors"] for lp in loops)
    for lp in loops:
        for reason, count in sorted(lp["failures"].items()):
            print(f"# failed x{count}: {reason}")

    metrics = {}
    if args.trace:
        layers = {name: 0.0 for name, _, _ in common.PER_LAYER}
        layers.update(imports)
        layers.update(result["layers"])
        untraced, traced = result["untraced"]["ops_per_s"], result["traced"]["ops_per_s"]
        layers["trace.ops_per_s_untraced"] = untraced
        layers["trace.ops_per_s_traced"] = traced
        layers["trace.overhead_ratio"] = untraced / traced if traced else 0.0
        layers["trace.wait_ms"] = 1e3 * result["traced"]["wait_s"]
        for name, unit, _ in common.PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
        print("# per-layer metrics from the traced half of the run; spans in "
              f"{trace_path.relative_to(root)}")
        print("# detection.simulate_zero_span.draws is computed from the inputs (sum of points x K)")
    else:
        lp = result["untraced"]
        values = dict(lp, setup_s=result["setup_s"], peak_rss_mib=result["peak_rss_mib"])
        for name, unit in common.END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        print(f"# op_tail_ms is p{lp['op_tail_pct']:.1f} of {lp['op_samples']} samples "
              "(the highest percentile with ten samples above it)")
        print(f"# {lp['passes']:.2f} passes over the inputs; wall-clock throughput, "
              f"input generation and checks included: {lp['wall_ops_per_s']:.4g} 1/s")
    for name, m in metrics.items():
        print(f"{name} = {common.fmt(m['value'])} {m['unit']}")
    print(f"fail_ratio = {common.fmt(failed / attempted if attempted else 0.0)} ratio "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": value_errors == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
