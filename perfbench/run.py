"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline_A --seed 0 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` alternates untraced and traced operations on the same inputs and
reports the per-layer metrics, the tracing overhead, and whether traced
outputs equal untraced ones.  Every metric is printed as ``name value
unit``; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with a context block is written
under ``perfbench/results/``.  The exit code is 1 if any operation failed
its output check and 2 if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up as one fresh interpreter pays it: import plus config construction.
SETUP_CODE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
start = time.perf_counter()
import workloads
workloads.make_config(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - start))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """No more BLAS threads than usable cores; must run before numpy loads."""
    cores = nproc()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class OpRecord:
    index: int
    op_seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    errors: list = field(default_factory=list)
    output: dict | None = None


def run_one(wl, workload, cfg, golden_entry, workdir_parent, tracer=None, index=0) -> OpRecord:
    """Time one operation, then check its output; a raise anywhere fails it."""
    record = OpRecord(index, cfg.global_seed, tracer is not None, 0.0, 0.0)
    workdir = Path(tempfile.mkdtemp(dir=workdir_parent))
    try:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if tracer is None:
                result = wl.run_op(workload, cfg, workdir)
            else:
                with tracer.operation(index):
                    result = wl.run_op(workload, cfg, workdir)
        finally:
            record.wall_s = time.perf_counter() - t0
            record.cpu_s = cpu_seconds() - cpu0
        out = wl.output(workload, result, workdir)
        record.output = asdict(out) | {"suite_tests": len(out.suite_tests)}
        record.errors = wl.check(workload, cfg, out, golden_entry)
    except Exception as exc:
        traceback.print_exc()
        record.errors.append(f"raised {exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def measure_setup(workload: str, op_seed: int) -> list:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload, str(op_seed)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def high_percentile(values: list):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return round(100.0 * (k + 1) / len(ordered), 1), ordered[k]


def src_summary() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def context(args, blas_threads, op_seeds, wl) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        **src_summary(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.held_out,
        "op_seeds": op_seeds,
        "held_out_seeds": wl.pool(args.workload, held_out=True),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end_metrics(setup, ops: list) -> dict:
    ok = [op for op in ops if not op.errors]
    walls = [op.wall_s for op in ok] or [op.wall_s for op in ops]
    raw_bits = sum(op.output["raw_bits"] for op in ok)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s": (statistics.median(walls), "s"),
        "raw_mbit_per_s": (raw_bits / 1e6 / sum(op.wall_s for op in ops), "Mbit/s"),
        "cpu_s": (statistics.median(op.cpu_s for op in (ok or ops)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ops_share": (len(ok) / len(ops), "share"),
    }


#: Per-layer time metrics: (metric, span name(s), "s" total or "self_s").
LAYER_TIMES = [
    ("tomography.posterior_functional.s", "tomography.posterior_functional", "s"),
    ("tomography.bayesian_estimate.self_s", "tomography.bayesian_estimate", "self_s"),
    ("tomography.mle_estimate.s", "tomography.mle_estimate", "s"),
    ("tomography.ls_invert.s", "tomography.ls_invert", "s"),
    # The direct CHSH estimate includes simulating its counts.
    ("certify.chsh_direct.s", ("certify.chsh_direct", "source.simulate_chsh_counts"), "s"),
    ("certify.min_entropy.s", "certify.min_entropy", "s"),
    ("source.scan_hom.s", "source.scan_hom", "s"),
    ("source.generate_events.s", "source.generate_events", "s"),
    ("extract.extract_stream.s", "extract.extract_stream", "s"),
    ("statsuite.run_suite.s", "statsuite.run_suite", "s"),
    ("pipeline.run_all.self_s", "pipeline.run_all", "self_s"),
]

#: Exact per-operation counts, read from the first traced operation.
LAYER_COUNTS = [
    "tomography.posterior_functional.calls",
    "tomography.posterior_functional.evaluations",
    "tomography.bayesian_estimate.proposals",
    "tomography.bayesian_estimate.accepted",
    "tomography.mle_estimate.iterations",
    "source.generate_events.windows",
    "source.generate_events.coincidences",
    "source.generate_events.ties",
    "extract.extract_stream.blocks",
    "extract.extract_stream.word_ops",
    "extract.extract_stream.bytes_computed",
    "statsuite.run_suite.applicable",
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracing, tracer, pairs: list) -> dict:
    """Layer times are medians over the traced operations (0 for a layer
    the workload bypasses); counts come from the first traced operation,
    whose input depends only on the seed, so they repeat exactly."""
    from diqrng.statsuite import TEST_NAMES

    traced = [t for _, t in pairs]
    per_op = tracing.layer_times(tracer.spans)
    per_op = {op.index: per_op.get(op.index, {}) for op in traced}
    counts = tracer.counts.get(traced[0].index, {})
    times = LAYER_TIMES + [
        (f"{tracing.suite_test_span(name)}.s", tracing.suite_test_span(name), "s")
        for name in TEST_NAMES
    ]
    metrics = {
        metric: (tracing.median_layer_time(per_op, span, kind), "s")
        for metric, span, kind in times
    }
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "bytes" if name.endswith("bytes_computed") else "count")
    metrics["tomography.bayesian_estimate.acceptance"] = (
        _ratio(
            counts.get("tomography.bayesian_estimate.accepted", 0),
            counts.get("tomography.bayesian_estimate.post_burn_in", 0),
        ),
        "share",
    )
    metrics["source.generate_events.useful_ratio"] = (
        _ratio(
            counts.get("source.generate_events.bits", 0),
            counts.get("source.generate_events.windows", 0),
        ),
        "share",
    )
    metrics["extract.extract_stream.mbit_per_s"] = (
        _ratio(
            counts.get("extract.extract_stream.bits_in", 0) / 1e6,
            metrics["extract.extract_stream.s"][0],
        ),
        "Mbit/s",
    )
    output = traced[0].output or {}
    metrics["pipeline.bytes_written"] = (output.get("bytes_written", 0), "bytes")
    metrics["tracing_overhead_s"] = (
        statistics.median(t.wall_s - u.wall_s for u, t in pairs),
        "s",
    )
    return metrics


def measure(args, wl, pool, golden, workdir_parent, tracer=None) -> tuple:
    """Whole rounds of operations until the next round would overrun
    ``--seconds`` (at least one round).  A traced run pairs each untraced
    operation with a traced one on the same input, one pair per round: its
    layer numbers carry no bound, so it need not cover the whole pool."""
    untraced, pairs = [], []
    round_size = 1 if tracer else wl.ROUND[args.workload]
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        started = time.perf_counter()
        for _ in range(round_size):
            seed = wl.op_seed(args.workload, pool, args.seed, index)
            cfg = wl.make_config(args.workload, seed)
            op = run_one(wl, args.workload, cfg, golden.get(seed), workdir_parent, index=index)
            untraced.append(op)
            if tracer is not None:
                traced = run_one(
                    wl, args.workload, cfg, golden.get(seed), workdir_parent, tracer, index
                )
                if op.output and traced.output:
                    for key in ("raw_sha256", "extracted_sha256", "chsh_direct_S"):
                        if op.output[key] != traced.output[key]:
                            traced.errors.append(f"traced {key} differs from untraced")
                pairs.append((op, traced))
            index += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return untraced, pairs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline_A", "pipeline_B", "bitstream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out",
        action="store_true",
        help="draw operation seeds from the held-out pool, to confirm a claim",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diqrng" / "__init__.py").is_file():
        print(f"error: no diqrng sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import diqrng

    if Path(diqrng.__file__).resolve().parent != SRC / "diqrng":
        print(f"error: imported diqrng from {diqrng.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads as wl

    golden = wl.load_golden()[args.workload]
    pool = wl.pool(args.workload, args.held_out)
    setup = measure_setup(args.workload, wl.op_seed(args.workload, pool, args.seed, 0))
    RESULTS.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir_parent:
        if tracer is None:
            untraced, pairs = measure(args, wl, pool, golden, workdir_parent)
        else:
            with tracer.installed():
                untraced, pairs = measure(args, wl, pool, golden, workdir_parent, tracer)
    ops = untraced + [t for _, t in pairs]
    failed = [op for op in ops if op.errors]
    if args.trace:
        metrics = per_layer_metrics(tracing, tracer, pairs)
    else:
        metrics = end_to_end_metrics(setup, untraced)

    walls = [op.wall_s for op in untraced]
    tail = high_percentile(walls)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {len(failed)} failed")
    print(f"op_s samples {len(walls)}: median {statistics.median(walls):.4f} s"
          + (f", p{tail[0]} {tail[1]:.4f} s" if tail else " (too few for a tail percentile)"))
    print(f"failed_ops {len(failed) / len(ops):.4f} share")
    for op in failed:
        print(f"FAILED op {op.index} seed {op.op_seed} traced={op.traced}: {'; '.join(op.errors)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" if isinstance(value, float) else f"{name} {value} {unit}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "context": context(args, blas_threads, sorted({op.op_seed for op in ops}), wl),
        "setup_s_samples": setup,
        "operations": [asdict(op) for op in ops],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2))
    if tracer is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(tracer.to_json()))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": result["metrics"],
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
