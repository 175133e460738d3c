"""The three benchmark workloads: inputs, one operation each, output checks.

Every input is built from a workload seed through the public ``diqrng``
API; the program receives only the resulting ``PipelineConfig``.

* ``pipeline_A`` / ``pipeline_B``: one operation is
  ``pipeline.run_all(preset_config(<preset>, op_seed))`` at 4.5 M raw bits,
  written to a scratch directory.
* ``bitstream``: one operation is ``source.generate_events`` (dataset_A
  source) -> ``extract.extract_stream`` -> ``statsuite.run_suite`` for one
  seed, seeded like the acceptance module's ``suite_batch`` fixture.

Operation seeds come from a pool whose golden outputs are stored in
``golden.json``, so every operation is checked against recorded values.
A run works in rounds of ``ROUND[workload]`` operations on consecutive
pool seeds and starts at round ``--seed`` of the pool.  A separate held-out
pool starting at ``BASE_SEED + HELD_OUT_OFFSET`` is for confirming a claim
on inputs not used while the change was written.

A pipeline round covers its whole two-seed pool, so every pipeline run
measures the same two inputs in the same order.  MLE iterations vary
fourfold between seeds (2,645 to 19,375), which moves a 15 s operation by
up to 4 s: with a different pair of seeds per run, the run-to-run spread of
``op_s`` was 19 %.  The order is fixed too, because the second operation
in a process runs at a different speed from the first.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from diqrng import extract, pipeline, source, statsuite

WORKLOADS = ("pipeline_A", "pipeline_B", "bitstream")
PRESETS = {"pipeline_A": "dataset_A", "pipeline_B": "dataset_B", "bitstream": "dataset_A"}

#: First pool seed: the pipeline's canonical default seed.
BASE_SEED = 20260808
POOL_SIZE = {"pipeline_A": 2, "pipeline_B": 2, "bitstream": 64}
ROUND = {"pipeline_A": 2, "pipeline_B": 2, "bitstream": 1}
HELD_OUT_OFFSET = 1000
HELD_OUT_SIZE = {"pipeline_A": 2, "pipeline_B": 2, "bitstream": 8}

#: Acceptance-module bands on the tomography estimates of S.
S_BAND = 0.08
S_STD_MAX = 0.05

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def pool(workload: str, held_out: bool = False) -> list:
    start = BASE_SEED + (HELD_OUT_OFFSET if held_out else 0)
    size = (HELD_OUT_SIZE if held_out else POOL_SIZE)[workload]
    return list(range(start, start + size))


def op_seed(workload: str, seeds: list, seed: int, index: int) -> int:
    """Pool entry for operation ``index`` of a run that starts at round ``seed``."""
    return seeds[(seed * ROUND[workload] + index) % len(seeds)]


def make_config(workload: str, op_seed: int) -> pipeline.PipelineConfig:
    return pipeline.preset_config(PRESETS[workload], op_seed)


@dataclass
class Output:
    """What one operation produced, as the checks and counters need it."""

    raw_sha256: str
    extracted_sha256: str
    suite_tests: tuple
    raw_bits: int
    chsh_direct_S: float | None = None
    mle_S: float | None = None
    bayes_S: float | None = None
    bayes_S_std: float | None = None
    tomography_failures: dict = field(default_factory=dict)
    bytes_written: int = 0

    def golden(self) -> dict:
        """The values that must repeat exactly for the same input."""
        entry = {"raw_sha256": self.raw_sha256, "extracted_sha256": self.extracted_sha256}
        if self.chsh_direct_S is not None:
            entry["chsh_direct_S"] = self.chsh_direct_S
        return entry


def run_op(workload: str, cfg: pipeline.PipelineConfig, workdir: Path):
    """One operation, the unit that is timed; ``workdir`` receives files."""
    if workload == "bitstream":
        src = dataclasses.replace(
            cfg.source, rng_seed=pipeline.derive_seed(cfg.global_seed, "bits")
        )
        raw = source.generate_events(src, cfg.n_bits).bits
        ext_cfg = dataclasses.replace(
            cfg.extractor, rng_seed=pipeline.derive_seed(cfg.global_seed, "toeplitz")
        )
        extracted = extract.extract_stream(raw, ext_cfg)
        return raw, extracted, statsuite.run_suite(extracted, threshold=cfg.suite_threshold)
    return pipeline.run_all(cfg, out_dir=workdir)


def output(workload: str, result, workdir: Path) -> Output:
    """Collect what ``run_op`` produced; pipeline bit files are hashed as
    written to disk, not as the report claims."""
    if workload == "bitstream":
        raw, extracted, report = result
        return Output(
            raw_sha256=raw.sha256(),
            extracted_sha256=extracted.sha256(),
            suite_tests=tuple(report.results),
            raw_bits=raw.n_bits,
        )
    report = json.loads((workdir / "run_report.json").read_text())
    raw = extract.BitStream.load(workdir / "raw_bits.bin")
    extracted = extract.BitStream.load(workdir / "extracted_bits.bin")
    tomo = report["certify"]["tomography"]
    return Output(
        raw_sha256=raw.sha256(),
        extracted_sha256=extracted.sha256(),
        suite_tests=tuple(report["suite"]["tests"]),
        raw_bits=raw.n_bits,
        chsh_direct_S=report["certify"]["chsh_direct"]["S"],
        mle_S=tomo["mle"].get("S"),
        bayes_S=tomo["bayes"].get("S_mean"),
        bayes_S_std=tomo["bayes"].get("S_std"),
        tomography_failures={k: v["status"] for k, v in tomo.items() if "status" in v},
        bytes_written=sum(p.stat().st_size for p in workdir.iterdir() if p.is_file()),
    )


def check(workload: str, cfg: pipeline.PipelineConfig, out: Output, golden: dict | None) -> list:
    """Every way ``out`` is wrong; an empty list means the operation passed.

    Bits and the direct CHSH value are pinned exactly (determinism
    contract); tomography estimates only to the acceptance bands, since
    solver changes may legitimately move them.
    """
    errors = []
    if golden is None:
        errors.append("no golden values recorded for this seed")
    else:
        for key, want in golden.items():
            got = getattr(out, key)
            if got != want:
                errors.append(f"{key} = {got!r}, golden {want!r}")
    if out.raw_bits != cfg.n_bits:
        errors.append(f"raw stream has {out.raw_bits} bits, expected {cfg.n_bits}")
    missing = set(statsuite.TEST_NAMES) - set(out.suite_tests)
    if missing or len(out.suite_tests) != len(statsuite.TEST_NAMES):
        errors.append(f"suite results {sorted(out.suite_tests)} missing {sorted(missing)}")
    if workload != "bitstream":
        for stage, status in out.tomography_failures.items():
            errors.append(f"tomography {stage} {status}")
        model = 2.0 * math.sqrt(1.0 + cfg.source.overlap_at_delay() ** 2)
        for key in ("mle_S", "bayes_S"):
            value = getattr(out, key)
            if value is None or not abs(value - model) <= S_BAND:
                errors.append(f"{key} = {value!r} outside {model:.4f} +- {S_BAND}")
        if out.bayes_S_std is None or not out.bayes_S_std < S_STD_MAX:
            errors.append(f"bayes_S_std = {out.bayes_S_std!r} not below {S_STD_MAX}")
    return errors


def load_golden() -> dict:
    """``{workload: {op_seed: golden values}}``."""
    data = json.loads(GOLDEN_PATH.read_text())
    return {
        workload: {int(seed): entry for seed, entry in entries.items()}
        for workload, entries in data.items()
    }
