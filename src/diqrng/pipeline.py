"""Config-driven end-to-end runs: simulate, generate, certify, extract, test.

Two presets reproduce the published operating points: ``dataset_A`` is the
source at the dip center (overlap 0.9655, chosen so the ideal CHSH bound is
2.78) and ``dataset_B`` sits 700 nm off the dip where the overlap drops to
0.758 (bound 2.51).  Reports always carry the simulated values and the
published reference numbers side by side, never merged.

Every stage derives its RNG seed from the global seed through a labeled
hash, so bit generation, coincidence sampling, tomography acquisition, the
Bayesian chain, and the extractor seed are pairwise independent streams.
A config names no directory: each stage writes where its caller says.

This module is the only one that turns report data into JSON text: the
library types hand over plain dicts, :func:`json_text` encodes them for the
report files and the CLI, and :meth:`PipelineConfig.from_json_dict` reads a
config back.  The text is strict JSON: a diagnostic that is undefined for a
run (a NaN split-R-hat, a not-applicable p-value) is written as ``null``,
and a config holding NaN or Infinity is rejected.
"""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path


from . import certify, extract, source, statsuite, tomography
from .certify import ChshSettings, chsh_from_rho, min_entropy, optimal_settings_for_visibility
from .extract import BitStream, ExtractorConfig
from .source import SourceConfig
from .tomography import TomoConfig, TomoCounts

SEED_LABELS = ("hom", "bits", "chsh", "tomo", "bayes", "toeplitz")


def derive_seed(global_seed: int, label: str) -> int:
    """Domain-separated 63-bit seed for one pipeline stage."""
    digest = hashlib.sha256(f"{global_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class ChshStageConfig:
    settings: ChshSettings | None = None  # None: optimal for the configured state
    pairs_per_setting: int = 10_000

    def __post_init__(self):
        if self.pairs_per_setting < 1:
            raise ValueError("pairs_per_setting must be at least 1")


@dataclass(frozen=True)
class PipelineConfig:
    source: SourceConfig = field(default_factory=SourceConfig)
    chsh: ChshStageConfig = field(default_factory=ChshStageConfig)
    tomo: TomoConfig = field(default_factory=TomoConfig)
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    suite_threshold: float = 0.01
    global_seed: int = 20260808
    n_bits: int = 4_500_000
    preset: str | None = None

    def __post_init__(self):
        if self.n_bits < 1:
            raise ValueError("n_bits must be at least 1")
        if not 0.0 <= self.suite_threshold <= 1.0:
            raise ValueError(
                f"suite_threshold must be a number in [0, 1], got {self.suite_threshold!r}"
            )

    def seeds(self) -> dict:
        return {label: derive_seed(self.global_seed, label) for label in SEED_LABELS}

    def to_json_dict(self) -> dict:
        data = dataclasses.asdict(self)
        for section, keys in _NOT_CONFIG_KEYS.items():
            for key in keys:
                del data[section][key]
        return data

    def to_json(self) -> str:
        return json_text(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipelineConfig":
        return _from_section(cls, data, _TOP_LEVEL)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        return cls.from_json_dict(json.loads(text, parse_constant=_not_json))

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_json_dict(), sort_keys=True).encode()
        ).hexdigest()


def _finite(data):
    """data with every non-finite float, at any depth, replaced by None."""
    if isinstance(data, float):
        return data if math.isfinite(data) else None
    if isinstance(data, dict):
        return {key: _finite(value) for key, value in data.items()}
    if isinstance(data, (list, tuple)):
        return [_finite(value) for value in data]
    return data


def json_text(data, sort_keys: bool = False) -> str:
    """The strict JSON text of report data, indented by 2, with every
    non-finite float written as null."""
    return json.dumps(_finite(data), indent=2, sort_keys=sort_keys, allow_nan=False)


def _not_json(token: str):
    raise ValueError(f"config holds {token}, which is not a JSON number")


_TOP_LEVEL = "the top level"

#: Section fields that a config neither records nor reads: every stage
#: derives its seed from global_seed.
_NOT_CONFIG_KEYS = {"source": ("rng_seed",), "extractor": ("rng_seed",)}


def _json_object(data, where: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"config {where} must be a JSON object, got {json.dumps(data)}")
    return data


_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", type(None): "null"}


def _json_field(value, hint, key: str, where: str):
    """A JSON value for a field annotated int, float, str, or one of these
    or None.  An int field takes an integral number (2.0 becomes 2), a float
    field any number; a bool is not a number.  A field annotated with a
    dataclass, or a dataclass or None, is that section, built from its JSON
    object."""
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    section = next((kind for kind in kinds if dataclasses.is_dataclass(kind)), None)
    if section is not None and not (value is None and type(None) in kinds):
        return _from_section(section, value, key if where == _TOP_LEVEL else f"{where}.{key}")
    if type(value) in kinds:
        return value
    if type(value) is int and float in kinds:
        return value
    if type(value) is float and int in kinds and value.is_integer():
        return int(value)
    expected = " or ".join(_JSON_KINDS[kind] for kind in kinds)
    raise ValueError(f"config key {key!r} in {where} must be {expected}, got {json.dumps(value)}")


def _from_section(cls, data: dict, where: str):
    """cls(**data), its sections built the same way, with a ValueError
    naming the section when it is not a JSON object, and naming the key of
    any field cls does not have or whose value has the wrong JSON type.
    Absent fields, sections too, keep their defaults."""
    _json_object(data, where)
    known = {f.name for f in dataclasses.fields(cls)} - set(_NOT_CONFIG_KEYS.get(where, ()))
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {where}")
    hints = typing.get_type_hints(cls)
    return cls(**{key: _json_field(value, hints[key], key, where) for key, value in data.items()})


# Published reference measurements for the two operating points, kept in a
# separate report block so simulated values never masquerade as measured ones.
REFERENCE_EXPERIMENT = {
    "dataset_A": {
        "hom_visibility": 0.97,
        "chsh_direct": {"S": 2.78, "uncertainty": 0.03},
        "chsh_mle": {"S": 2.65},
        "chsh_bayesian": {"S": 2.81, "uncertainty": 0.02},
        "min_entropy": 0.999735,
        "suite_p_values": {
            "Approximate Entropy": 0.985,
            "Block Frequency": 0.380,
            "Cumulative Sums": 0.973,
            "FFT": 0.979,
            "Frequency": 0.840,
            "Linear Complexity": 0.840,
            "Longest Runs": 0.060,
            "Non Overlapping Template Matching": 0.069,
            "Overlapping Template Matching": 0.721,
            "Random Excursions": 0.843,
            "Random Excursions Variant": 0.435,
            "Rank": 0.993,
            "Runs": 0.858,
            "Serial": 0.403,
            "Universal": 0.285,
        },
    },
    "dataset_B": {
        "hom_visibility": 0.97,
        "chsh_direct": {"S": 2.51, "uncertainty": 0.02},
        "chsh_mle": {"S": 2.40},
        "chsh_bayesian": {"S": 2.47, "uncertainty": 0.01},
        "min_entropy": 0.999038,
        "suite_p_values": {
            "Approximate Entropy": 0.546,
            "Block Frequency": 0.129,
            "Cumulative Sums": 0.557,
            "FFT": 0.973,
            "Frequency": 0.465,
            "Linear Complexity": 0.965,
            "Longest Runs": 0.966,
            "Non Overlapping Template Matching": 0.325,
            "Overlapping Template Matching": 0.590,
            "Random Excursions": 0.383,
            "Random Excursions Variant": 0.621,
            "Rank": 0.084,
            "Runs": 0.325,
            "Serial": 0.356,
            "Universal": 0.210,
        },
    },
}

#: Overlap values solved from 2 sqrt(1 + v^2) = S for the two quoted bounds.
DATASET_A_OVERLAP = 0.9655
DATASET_B_OVERLAP = 0.758
_DATASET_B_DELAY_NM = 700.0


def preset_config(name: str, global_seed: int = 20260808) -> PipelineConfig:
    if name == "dataset_A":
        src = SourceConfig(visibility_v0=DATASET_A_OVERLAP, delay_tau_nm=0.0)
        settings = optimal_settings_for_visibility(DATASET_A_OVERLAP)
    elif name == "dataset_B":
        sigma = _DATASET_B_DELAY_NM / math.sqrt(
            2.0 * math.log(DATASET_A_OVERLAP / DATASET_B_OVERLAP)
        )
        src = SourceConfig(
            visibility_v0=DATASET_A_OVERLAP,
            dip_sigma_nm=sigma,
            delay_tau_nm=_DATASET_B_DELAY_NM,
        )
        settings = optimal_settings_for_visibility(DATASET_B_OVERLAP)
    elif name == "classical_source":
        src = SourceConfig(visibility_v0=0.0, delay_tau_nm=0.0)
        settings = ChshSettings()
    else:
        raise ValueError(
            f"unknown preset {name!r}; expected dataset_A, dataset_B or classical_source"
        )
    return PipelineConfig(
        source=src,
        chsh=ChshStageConfig(settings=settings),
        global_seed=global_seed,
        preset=name,
    )


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _ensure_dir(path) -> Path | None:
    """Create the output directory, if there is one.  Each stage calls this
    before its work, so an unusable path fails before any simulation."""
    if path is None:
        return None
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def run_hom(cfg: PipelineConfig, out_dir=None) -> dict:
    """HOM scan at 61 points over +-3 sigma; dwell sized for ~1e4 peak counts.
    Reports the fitted dip depth, its standard error and the fit's chi2/dof."""
    out_dir = _ensure_dir(out_dir)
    src = replace(cfg.source, rng_seed=derive_seed(cfg.global_seed, "hom"))
    positions = source.default_scan_positions(src)
    baseline = src.pair_rate * src.det_efficiency**2
    dwell = 10_000.0 / baseline
    scan = source.scan_hom(src, positions, dwell)
    visibility, stderr, chi2_dof = source.visibility_from_scan(scan)
    result = {
        "visibility": visibility,
        "stderr": stderr,
        "chi2_dof": chi2_dof,
        "n_points": int(positions.size),
        "dwell_s": dwell,
    }
    if out_dir is not None:
        scan.to_csv(out_dir / "hom_scan.csv")
        (out_dir / "hom_visibility.json").write_text(json_text(result))
    return result


def run_generate(cfg: PipelineConfig, out_dir=None):
    """Heralded raw bit stream of exactly cfg.n_bits, written with its sidecar."""
    out_dir = _ensure_dir(out_dir)
    src = replace(cfg.source, rng_seed=derive_seed(cfg.global_seed, "bits"))
    events = source.generate_events(src, cfg.n_bits)
    info = {
        "n_bits": events.bits.n_bits,
        "sha256": events.bits.sha256(),
        "ones_fraction": events.bits.ones() / events.bits.n_bits,
        "n_coincidences": events.n_coincidences,
        "n_herald_only": events.n_herald_only,
        "n_double_dark": events.n_double_dark,
        "n_ties": events.n_ties,
    }
    if out_dir is not None:
        events.bits.save(out_dir / "raw_bits.bin")
    return events.bits, info


def run_certify(cfg: PipelineConfig, bits: BitStream | None, out_dir=None) -> dict:
    """Direct CHSH from fresh simulated counts, three tomography estimates
    with their bound values, and min-entropy of the supplied stream."""
    out_dir = _ensure_dir(out_dir)
    rho = source.state_at_delay(cfg.source)
    overlap = cfg.source.overlap_at_delay()
    settings = cfg.chsh.settings
    if settings is None:
        settings = (
            optimal_settings_for_visibility(overlap) if overlap > 0 else ChshSettings()
        )
    report: dict = {
        "overlap": overlap,
        "chsh_model": chsh_from_rho(rho),
        "horodecki_convention": "horodecki-singular-value",
    }

    counts = source.simulate_chsh_counts(
        rho, settings, cfg.chsh.pairs_per_setting, derive_seed(cfg.global_seed, "chsh")
    )
    direct = certify.chsh_direct(counts)
    report["chsh_direct"] = {
        "S": direct.S,
        "S_model": certify.chsh_at_settings(rho, settings),
        "stderr": direct.stderr,
        "e_values": list(direct.e_values),
        "settings": dataclasses.asdict(settings),
        "pairs_per_setting": cfg.chsh.pairs_per_setting,
    }

    tomo_counts = TomoCounts(
        source.simulate_setting_counts(
            rho,
            tomography.KWIAT,
            cfg.tomo.acquisition_total,
            derive_seed(cfg.global_seed, "tomo"),
        ),
        cfg.tomo.acquisition_total,
    )
    try:
        ls = tomography.ls_invert(tomo_counts)
        mle = tomography.mle_estimate(tomo_counts, cfg.tomo)
        bayes, samples = tomography.bayesian_estimate(
            tomo_counts, derive_seed(cfg.global_seed, "bayes"), cfg.tomo
        )
        s_post = tomography.posterior_functional(samples, chsh_from_rho)
    except ValueError as exc:
        # The counts are simulated here, so an estimator that rejects them
        # is a failure of this stage, not a config error.
        raise RuntimeError(f"tomography estimate failed: {exc}") from exc
    report["tomography"] = {
        "ls": {
            "physical": ls.physical,
            "min_eigenvalue": ls.diagnostics["min_eigenvalue"],
            "S": chsh_from_rho(ls.rho_est) if ls.physical else None,
        },
        "mle": {
            "S": chsh_from_rho(mle.rho_est),
            "iterations": mle.diagnostics["iterations"],
            "log_likelihood": mle.diagnostics["log_likelihood"],
            "duality_gap": mle.diagnostics["duality_gap"],
            "kkt_residual": mle.diagnostics["kkt_residual"],
        },
        "bayes": {
            "S_mean": s_post.mean,
            "S_std": s_post.std,
            "S_split_rhat": s_post.split_rhat,
            "S_ess": s_post.ess,
            "S_of_mean_state": chsh_from_rho(bayes.rho_est),
            "acceptance_rate": samples.acceptance_rate,
            "R": samples.R,
        },
    }
    for name, estimate in (("ls", ls), ("mle", mle), ("bayes", bayes)):
        m = estimate.rho_est
        report["tomography"][name]["state"] = {"re": m.real.tolist(), "im": m.imag.tolist()}
    if bits is not None:
        report["min_entropy"] = {**dataclasses.asdict(min_entropy(bits)), "stage": bits.stage}
    report["verdict"] = {
        "entangled": direct.violates_classical,
        "basis": "strict |S| > 2 on the direct estimate",
    }
    if out_dir is not None:
        (out_dir / "certify.json").write_text(json_text(report))
    return report


def run_extract(cfg: PipelineConfig, raw: BitStream, out_dir=None):
    if raw.stage != "raw":
        raise ValueError(
            f"extraction expects a raw stream, got stage {raw.stage!r} "
            "(double extraction?)"
        )
    out_dir = _ensure_dir(out_dir)
    ext_cfg = replace(cfg.extractor, rng_seed=derive_seed(cfg.global_seed, "toeplitz"))
    extracted = extract.extract_stream(raw, ext_cfg)
    info = {
        "n_bits_in": raw.n_bits,
        "n_bits_out": extracted.n_bits,
        "sha256": extracted.sha256(),
        "block_n": ext_cfg.n,
        "block_m": extracted.provenance["block_m"],
        "mode": ext_cfg.mode,
        "seed_sha256": extracted.provenance["seed_sha256"],
    }
    if out_dir is not None:
        extracted.save(out_dir / "extracted_bits.bin")
    return extracted, info


def run_test(cfg: PipelineConfig, bits: BitStream, out_dir=None):
    """The SP 800-22 suite on bits at cfg.suite_threshold.  suite.csv sets
    each p-value beside the published one of cfg.preset, if it has any."""
    out_dir = _ensure_dir(out_dir)
    reference = REFERENCE_EXPERIMENT.get(cfg.preset, {})
    suite_report = statsuite.run_suite(
        bits,
        threshold=cfg.suite_threshold,
        stream_metadata={"sha256": bits.sha256(), "stage": bits.stage},
    )
    if out_dir is not None:
        (out_dir / "suite.json").write_text(json_text(suite_report.to_json_dict()))
        suite_report.save_csv(out_dir / "suite.csv", reference.get("suite_p_values"))
    return suite_report


def run_all(cfg: PipelineConfig, out_dir) -> dict:
    """The full workflow into out_dir, every stage reading the one config;
    failures halt with the stage name, keeping partial artifacts on disk.
    The report embeds that config, so it replays the run, and depends on
    config and seed only: the start and finish times go to telemetry.json.
    Returns the report as written to run_report.json, undefined values as None.
    An n_bits below one extractor block is rejected before any stage runs."""
    if cfg.n_bits < cfg.extractor.n:
        raise ValueError(
            f"n_bits is {cfg.n_bits}, shorter than one {cfg.extractor.n}-bit extractor block"
        )
    out_dir = _ensure_dir(out_dir)
    reference = REFERENCE_EXPERIMENT.get(cfg.preset)
    started = _utc_now()
    report = {
        "preset": cfg.preset,
        "config": cfg.to_json_dict(),
        "config_sha256": cfg.digest(),
        "seeds": cfg.seeds(),
    }
    stage = "simulate-hom"
    try:
        report["hom"] = run_hom(cfg, out_dir)
        stage = "generate"
        raw, gen_info = run_generate(cfg, out_dir)
        report["generate"] = gen_info
        stage = "certify"
        report["certify"] = run_certify(cfg, raw, out_dir)
        stage = "extract"
        extracted, ext_info = run_extract(cfg, raw, out_dir)
        report["extract"] = ext_info
        stage = "min-entropy"
        # The raw stream's min-entropy is the one certify already computed.
        me_raw = {k: v for k, v in report["certify"]["min_entropy"].items() if k != "stage"}
        report["min_entropy"] = {
            "raw": me_raw,
            "extracted": dataclasses.asdict(min_entropy(extracted)),
        }
        stage = "test"
        suite_report = run_test(cfg, extracted, out_dir)
        report["suite"] = suite_report.to_json_dict()
        report["verdict"] = {
            "entangled": report["certify"]["verdict"]["entangled"],
            "suite_all_passed": suite_report.all_passed,
            "suite_failing": suite_report.failing(),
        }
        tomo = report["certify"]["tomography"]
        report["summary"] = {
            "hom_visibility": report["hom"]["visibility"],
            "chsh_direct": report["certify"]["chsh_direct"]["S"],
            "chsh_mle": tomo["mle"]["S"],
            "chsh_bayes": {"mean": tomo["bayes"]["S_mean"], "std": tomo["bayes"]["S_std"]},
            "min_entropy_raw": report["min_entropy"]["raw"]["h_inf"],
            "min_entropy_extracted": report["min_entropy"]["extracted"]["h_inf"],
        }
        if reference is not None:
            report["reference_experiment"] = reference
    except Exception as exc:
        report["failed_stage"] = stage
        report["error"] = str(exc)
        raise RuntimeError(f"pipeline stage {stage!r} failed: {exc}") from exc
    finally:
        text = json_text(report)
        (out_dir / "run_report.json").write_text(text)
        telemetry = {"started": started, "finished": _utc_now()}
        (out_dir / "telemetry.json").write_text(json_text(telemetry))
    return json.loads(text)
