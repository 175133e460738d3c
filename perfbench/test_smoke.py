"""Fast checks of the benchmark harness itself, on small inputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from diqrng.extract import BitStream  # noqa: E402
from diqrng.statsuite import TEST_NAMES  # noqa: E402

SMALL_BITS = 450_000  # 100 Toeplitz blocks

# Short streams are the point here; the suite's length warning is expected.
pytestmark = pytest.mark.filterwarnings("ignore:stream has .* bits")


def small_config(workload: str):
    cfg = wl.make_config(workload, wl.BASE_SEED)
    tomo = dataclasses.replace(cfg.tomo, bayes_r=1000, bayes_burn_in=1000, bayes_thin=1)
    return dataclasses.replace(cfg, n_bits=SMALL_BITS, tomo=tomo)


def test_self_time_subtracts_child_coverage():
    spans = [
        tracing.Span("root", 0, 0.0, 10.0, None),
        tracing.Span("a", 0, 1.0, 3.0, 0),
        tracing.Span("b", 0, 4.0, 8.0, 0),
        tracing.Span("b.child", 0, 5.0, 6.0, 2),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]
    per_op = tracing.layer_times(spans)
    assert per_op[0]["b"] == {"s": 4.0, "self_s": 3.0}
    assert tracing.median_layer_time(per_op, ("a", "b")) == 6.0
    assert tracing.median_layer_time(per_op, "absent") == 0.0


def test_bitstream_check_catches_one_flipped_extracted_bit(tmp_path):
    cfg = small_config("bitstream")
    raw, extracted, report = wl.run_op("bitstream", cfg, tmp_path)
    out = wl.output("bitstream", (raw, extracted, report), tmp_path)
    golden = out.golden()
    assert wl.check("bitstream", cfg, out, golden) == []

    bits = extracted.to_bits()
    bits[12345] ^= 1
    flipped = BitStream.from_bits(bits, extracted.provenance)
    errors = wl.check("bitstream", cfg, wl.output("bitstream", (raw, flipped, report), tmp_path), golden)
    assert any(e.startswith("extracted_sha256") for e in errors)


def test_pipeline_check_catches_a_flipped_bit_on_disk(tmp_path):
    cfg = small_config("pipeline_A")
    workdir = tmp_path / "run"
    workdir.mkdir()
    out = wl.output("pipeline_A", wl.run_op("pipeline_A", cfg, workdir), workdir)
    golden = out.golden()
    assert wl.check("pipeline_A", cfg, out, golden) == []

    # Flip one extracted bit and re-save with a matching sidecar, so only
    # the golden comparison can notice.
    stream = BitStream.load(workdir / "extracted_bits.bin")
    bits = stream.to_bits()
    bits[0] ^= 1
    BitStream.from_bits(bits, stream.provenance).save(workdir / "extracted_bits.bin")
    errors = wl.check("pipeline_A", cfg, wl.output("pipeline_A", None, workdir), golden)
    assert any(e.startswith("extracted_sha256") for e in errors)


def test_check_fails_out_of_band_tomography():
    cfg = small_config("pipeline_B")
    out = wl.Output("r", "e", TEST_NAMES, cfg.n_bits, 2.5, 2.9, 2.5, 0.01)
    errors = wl.check("pipeline_B", cfg, out, {"raw_sha256": "r"})
    assert errors == [f"mle_S = 2.9 outside {2 * (1 + 0.758**2) ** 0.5:.4f} +- 0.08"]


@pytest.mark.parametrize("workload", ["bitstream", "pipeline_A"])
def test_traced_counts_repeat_and_outputs_match_untraced(workload, tmp_path):
    cfg = small_config(workload)
    counts = []
    for _ in range(2):
        untraced = run.run_one(wl, workload, cfg, None, tmp_path)
        assert untraced.errors == ["no golden values recorded for this seed"]
        golden = {k: untraced.output[k] for k in ("raw_sha256", "extracted_sha256", "chsh_direct_S")}
        if golden["chsh_direct_S"] is None:
            del golden["chsh_direct_S"]
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run.run_one(wl, workload, cfg, golden, tmp_path, tracer, index=0)
        assert traced.errors == []
        assert traced.output == untraced.output
        counts.append(tracer.counts[0])
        metrics = run.per_layer_metrics(tracing, tracer, [(untraced, traced)])
    assert counts[0] == counts[1]
    assert counts[0]["source.generate_events.bits"] == SMALL_BITS
    if workload == "pipeline_A":
        assert counts[0]["tomography.mle_estimate.iterations"] == 12_570
        assert metrics["tomography.mle_estimate.s"][0] > 0
    else:
        assert metrics["tomography.mle_estimate.s"][0] == 0.0  # bypassed

    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }


def test_end_to_end_metrics_match_declaration(tmp_path):
    cfg = small_config("bitstream")
    ops = [run.run_one(wl, "bitstream", cfg, None, tmp_path)]
    metrics = run.end_to_end_metrics([0.5, 0.6, 0.7], ops)
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert metrics["ok_ops_share"][0] == 0.0  # no golden for the small input
    assert metrics["setup_s"][0] == 0.6


def test_run_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bitstream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
