import csv
import dataclasses
import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import diqrng
from diqrng import cli, extract, source, statsuite
from diqrng.extract import BitStream
from diqrng.pipeline import (
    REFERENCE_EXPERIMENT,
    PipelineConfig,
    derive_seed,
    preset_config,
    run_certify,
    run_extract,
    run_generate,
    run_hom,
    run_test,
)
from diqrng.tomography import KWIAT, TomoCounts, bayesian_estimate

REDUCED_BITS = 90_000  # 20 extractor blocks; keeps unit runs fast


def reduced(cfg: PipelineConfig, **overrides) -> PipelineConfig:
    tomo = dataclasses.replace(
        cfg.tomo, acquisition_total=2000, bayes_r=800, bayes_burn_in=400, bayes_thin=2
    )
    chsh = dataclasses.replace(cfg.chsh, pairs_per_setting=5000)
    return dataclasses.replace(cfg, tomo=tomo, chsh=chsh, **overrides)


class TestSeedDerivation:
    def test_labels_give_distinct_streams(self):
        seeds = PipelineConfig(global_seed=7).seeds()
        assert len(set(seeds.values())) == len(seeds)

    def test_deterministic_and_global_seed_sensitive(self):
        assert derive_seed(1, "bits") == derive_seed(1, "bits")
        assert derive_seed(1, "bits") != derive_seed(2, "bits")
        assert derive_seed(1, "bits") != derive_seed(1, "tomo")

    def test_changing_one_label_leaves_other_stages_alone(self):
        cfg = reduced(preset_config("dataset_A"), n_bits=20_000)
        raw_a, info_a = run_generate(cfg, None)
        # A different estimator seed must not touch the bit stream.
        cfg_other = dataclasses.replace(cfg, global_seed=cfg.global_seed)
        raw_b, info_b = run_generate(cfg_other, None)
        assert info_a["sha256"] == info_b["sha256"]
        assert derive_seed(cfg.global_seed, "bayes") != derive_seed(
            cfg.global_seed, "bits"
        )


class TestConfig:
    def test_json_roundtrip_preserves_digest(self):
        cfg = preset_config("dataset_B")
        back = PipelineConfig.from_json(cfg.to_json())
        assert back.digest() == cfg.digest()
        assert back.chsh.settings == cfg.chsh.settings

    def test_preset_digests_are_pinned(self):
        # Any change to the JSON schema changes run_report config_sha256.
        # These are the sha256 of each preset's sorted JSON without
        # source.rng_seed, which the config does not record, without
        # source.state_model, a field the source no longer has, and without
        # output_dir: where a run writes is not part of the experiment.
        expected = {
            "dataset_A": "116859f31cde1cf4dd42758f5a2bf9853ab0071a394f758d32e4da433af89e35",
            "dataset_B": "d63601221efb7e41ac68babb0f72c1d0dfbd683ff0fa0bb1102ec250df3207c4",
            "classical_source": "e047464484bf4ea30fe30b046fdd3db319525713ff8b22dc4d49a490d9cdac42",
        }
        for name, digest in expected.items():
            assert preset_config(name, 7).digest() == digest

    @pytest.mark.parametrize(
        "section", [None, "source", "chsh", "chsh.settings", "tomo", "extractor"]
    )
    def test_unknown_key_rejected_in_every_section(self, section):
        data = preset_config("dataset_A").to_json_dict()
        target = data
        for part in (section.split(".") if section else []):
            target = target[part]
        target["bogus"] = 1
        with pytest.raises(ValueError, match="'bogus'"):
            PipelineConfig.from_json_dict(data)

    @pytest.mark.parametrize(
        "data, where",
        [
            ([1, 2], "the top level"),
            ({"source": 5}, "source"),
            ({"chsh": [1]}, "chsh"),
            ({"chsh": {"settings": "x"}}, "chsh.settings"),
            ({"tomo": "x"}, "tomo"),
            ({"extractor": None}, "extractor"),
        ],
    )
    def test_non_object_section_rejected(self, data, where):
        with pytest.raises(ValueError, match=f"config {where} must be a JSON object"):
            PipelineConfig.from_json_dict(data)

    @pytest.mark.parametrize(
        "data, key, where, expected",
        [
            ({"n_bits": "x"}, "n_bits", "the top level", "an integer"),
            ({"n_bits": True}, "n_bits", "the top level", "an integer"),
            ({"preset": 3}, "preset", "the top level", "a string or null"),
            ({"source": {"visibility_v0": False}}, "visibility_v0", "source", "a number"),
            ({"chsh": {"pairs_per_setting": "x"}}, "pairs_per_setting", "chsh", "an integer"),
            ({"chsh": {"settings": {"a": 0, "a_prime": 45, "b": 22.5, "b_prime": "67.5"}}},
             "b_prime", "chsh.settings", "a number"),
            ({"tomo": {"bayes_k": 2.5}}, "bayes_k", "tomo", "an integer"),
            ({"tomo": {"bayes_step": "0.08"}}, "bayes_step", "tomo", "a number"),
            ({"extractor": {"m": 1.5}}, "m", "extractor", "an integer or null"),
        ],
    )
    def test_wrong_json_type_rejected(self, data, key, where, expected):
        message = f"config key '{key}' in {where} must be {expected}, got"
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_json_dict(data)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, token):
        with pytest.raises(ValueError, match=f"config holds {token}, which is not a JSON number"):
            PipelineConfig.from_json(f'{{"suite_threshold": {token}}}')

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0, 2.0])
    def test_suite_threshold_outside_unit_interval_rejected(self, threshold):
        message = r"suite_threshold must be a number in \[0, 1\], got"
        with pytest.raises(ValueError, match=message):
            PipelineConfig(suite_threshold=threshold)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(preset_config("dataset_A"), suite_threshold=threshold)
        if math.isfinite(threshold):
            with pytest.raises(ValueError, match=message):
                PipelineConfig.from_json_dict({"suite_threshold": threshold})
        for edge in (0, 1):
            assert PipelineConfig.from_json_dict({"suite_threshold": edge}).suite_threshold == edge

    @pytest.mark.parametrize(
        "key, value", [("seed_bits", [1, 0, 1, 1]), ("seed_bits", "abc"), ("rng_seed", 1)]
    )
    def test_keys_the_config_does_not_record_rejected(self, key, value):
        # The writer drops these fields, so a config holding one could not be
        # replayed from the report, and its digest would not tell it apart.
        for section in ("source", "extractor"):
            assert key not in PipelineConfig().to_json_dict()[section]
            with pytest.raises(ValueError, match=f"unknown config key '{key}' in {section}"):
                PipelineConfig.from_json_dict({section: {key: value}})

    def test_json_numbers_fill_int_and_float_fields(self):
        cfg = PipelineConfig.from_json_dict(
            {"n_bits": 1e5, "suite_threshold": 1, "extractor": {"m": None}}
        )
        assert cfg.n_bits == 100_000 and type(cfg.n_bits) is int
        assert cfg.suite_threshold == 1
        assert cfg.extractor.m is None

    def test_presets_pin_the_operating_points(self):
        cfg_a = preset_config("dataset_A")
        assert cfg_a.source.overlap_at_delay() == pytest.approx(0.9655)
        cfg_b = preset_config("dataset_B")
        assert cfg_b.source.delay_tau_nm == 700.0
        assert cfg_b.source.overlap_at_delay() == pytest.approx(0.758, abs=1e-12)
        cfg_c = preset_config("classical_source")
        assert cfg_c.source.overlap_at_delay() == 0.0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_config("dataset_C")

    def test_reference_values_are_separate_from_config(self):
        assert REFERENCE_EXPERIMENT["dataset_A"]["chsh_direct"]["S"] == 2.78
        assert REFERENCE_EXPERIMENT["dataset_B"]["chsh_bayesian"]["S"] == 2.47
        assert len(REFERENCE_EXPERIMENT["dataset_A"]["suite_p_values"]) == 15

    def test_report_replayable_from_embedded_config(self, tmp_path):
        from diqrng.pipeline import run_all

        cfg = reduced(preset_config("dataset_A"), global_seed=99, n_bits=REDUCED_BITS)
        report = run_all(cfg, tmp_path / "first")
        # The report's hom block is the stage's file, chi2/dof included.
        assert report["hom"] == json.loads((tmp_path / "first" / "hom_visibility.json").read_text())
        replayed_cfg = PipelineConfig.from_json_dict(report["config"])
        assert replayed_cfg.digest() == report["config_sha256"]
        replay = run_all(replayed_cfg, tmp_path / "second")
        assert replay["generate"]["sha256"] == report["generate"]["sha256"]
        assert replay["summary"] == report["summary"]


class TestStages:
    def test_hom_stage_writes_scan_and_fit(self, tmp_path):
        cfg = preset_config("dataset_A")
        result = run_hom(cfg, tmp_path)
        assert (tmp_path / "hom_scan.csv").exists()
        assert (tmp_path / "hom_visibility.json").exists()
        assert abs(result["visibility"] - 0.9655) < 0.01

    def test_hom_stage_reports_fit_chi2(self, tmp_path):
        result = run_hom(preset_config("dataset_A"), tmp_path)
        written = json.loads((tmp_path / "hom_visibility.json").read_text())
        assert written == result
        assert list(result) == ["visibility", "stderr", "chi2_dof", "n_points", "dwell_s"]
        assert 0.5 < result["chi2_dof"] < 1.5

    def test_generate_stage_file_sizes(self, tmp_path):
        cfg = dataclasses.replace(preset_config("dataset_A"), n_bits=64)
        _, info = run_generate(cfg, tmp_path)
        assert (tmp_path / "raw_bits.bin").stat().st_size == 8
        assert info["n_bits"] == 64
        loaded = BitStream.load(tmp_path / "raw_bits.bin")
        assert loaded.sha256() == info["sha256"]

    def test_extract_stage_rejects_double_extraction(self, tmp_path):
        cfg = reduced(preset_config("dataset_A"), n_bits=REDUCED_BITS)
        raw, _ = run_generate(cfg, None)
        extracted, info = run_extract(cfg, raw, tmp_path)
        assert info["n_bits_out"] == (REDUCED_BITS // 4500) * 1200
        with pytest.raises(ValueError, match="raw"):
            run_extract(cfg, extracted, tmp_path)

    def test_certify_stage_reports_all_routes(self, tmp_path):
        cfg = reduced(preset_config("dataset_A"), n_bits=20_000)
        raw, _ = run_generate(cfg, None)
        report = run_certify(cfg, raw, tmp_path)
        assert (tmp_path / "certify.json").exists()
        assert report["chsh_model"] == pytest.approx(2.78, abs=0.01)
        assert report["chsh_direct"]["S_model"] == pytest.approx(report["chsh_model"], abs=1e-12)
        assert abs(report["chsh_direct"]["S"] - 2.78) < 0.1
        assert "S" in report["tomography"]["mle"]
        assert "S_mean" in report["tomography"]["bayes"]
        # The chain ran on the stage's sampler fields and the "bayes" seed.
        total = cfg.tomo.acquisition_total
        counts = source.simulate_setting_counts(
            source.state_at_delay(cfg.source), KWIAT, total, derive_seed(cfg.global_seed, "tomo")
        )
        _, samples = bayesian_estimate(
            TomoCounts(counts, total), derive_seed(cfg.global_seed, "bayes"), cfg.tomo
        )
        assert report["tomography"]["bayes"]["R"] == cfg.tomo.bayes_r == 800
        assert report["tomography"]["bayes"]["acceptance_rate"] == samples.acceptance_rate
        assert report["min_entropy"]["n_bits"] == 20_000
        assert report["verdict"]["entangled"]
        assert report["horodecki_convention"] == "horodecki-singular-value"

    def test_certify_handles_maximally_mixed_override(self):
        cfg = reduced(preset_config("classical_source"))
        report = run_certify(cfg, None)
        assert abs(report["chsh_direct"]["S"]) < 2.0
        assert not report["verdict"]["entangled"]

    def test_suite_stage_writes_reference_column(self, tmp_path):
        rng = np.random.default_rng(3)
        bits = BitStream.from_bits(
            rng.integers(0, 2, 1_200_000, dtype=np.uint8),
            provenance={"stage": "extracted"},
        )
        cfg = preset_config("dataset_A")
        report = run_test(cfg, bits, tmp_path)
        csv_text = (tmp_path / "suite.csv").read_text()
        assert "reference_p_value" in csv_text.splitlines()[0]
        assert "Frequency" in csv_text
        assert (tmp_path / "suite.json").exists()
        assert len(report.results) == 15

    @pytest.mark.parametrize(
        "cfg, reference",
        [(preset_config("dataset_A"), "0.84"), (PipelineConfig(), "")],
        ids=["dataset_A", "no preset"],
    )
    def test_suite_stage_reference_column_follows_the_preset(self, tmp_path, cfg, reference):
        bits = BitStream.from_bits(
            np.random.default_rng(3).integers(0, 2, 1_200_000, dtype=np.uint8),
            provenance={"stage": "extracted"},
        )
        run_test(cfg, bits, tmp_path)
        with open(tmp_path / "suite.csv", newline="") as f:
            rows = {row["test"]: row for row in csv.DictReader(f)}
        assert rows["Frequency"]["reference_p_value"] == reference

    def test_suite_stage_passes_short_stream_warning_on(self):
        bits = BitStream.from_bits(
            np.random.default_rng(4).integers(0, 2, 5000, dtype=np.uint8),
            provenance={"stage": "extracted"},
        )
        with pytest.warns(UserWarning, match="below the recommended"):
            run_test(preset_config("dataset_A"), bits)


class TestStageFailureHandling:
    def test_failed_stage_keeps_partial_report(self, tmp_path):
        from diqrng.pipeline import run_all

        # One MLE iteration cannot reach the duality-gap bound, so the
        # pipeline halts at certify, after the HOM scan and the bits.
        cfg = preset_config("dataset_A")
        cfg = dataclasses.replace(
            cfg, tomo=dataclasses.replace(cfg.tomo, mle_max_iters=1), n_bits=9000
        )
        with pytest.raises(RuntimeError, match="certify"):
            run_all(cfg, tmp_path)
        partial = json.loads((tmp_path / "run_report.json").read_text())
        assert partial["failed_stage"] == "certify"
        assert "MLE did not converge in 1 iterations" in partial["error"]
        assert "hom" in partial and "generate" in partial
        assert "certify" not in partial
        # The report embeds the config that ran.
        assert partial["config_sha256"] == cfg.digest()
        # The run's times go beside the report, not into it.
        assert "started" not in partial and "finished" not in partial
        telemetry = json.loads((tmp_path / "telemetry.json").read_text())
        assert telemetry["started"] <= telemetry["finished"]


class TestCli:
    def test_print_config_roundtrip(self, capsys):
        assert cli.main(["print-config", "--preset", "dataset_A"]) == 0
        printed = capsys.readouterr().out
        cfg = PipelineConfig.from_json(printed)
        assert cfg.preset == "dataset_A"

    def test_generate_and_extract_and_test(self, tmp_path, capsys):
        rc = cli.main(
            [
                "generate",
                "--preset",
                "dataset_A",
                "--out",
                str(tmp_path),
                "--n-bits",
                "90000",
            ]
        )
        assert rc == 0
        rc = cli.main(
            [
                "extract",
                "--preset",
                "dataset_A",
                "--bits",
                str(tmp_path / "raw_bits.bin"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        extracted = BitStream.load(tmp_path / "extracted_bits.bin")
        assert extracted.n_bits == 24_000
        assert extracted.stage == "extracted"

    def test_simulate_hom_cli(self, tmp_path, capsys):
        rc = cli.main(["simulate-hom", "--preset", "dataset_A", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert abs(summary["visibility"] - 0.9655) < 0.01

    def test_default_output_directory_follows_the_preset_flag(self, tmp_path, monkeypatch):
        # Without --out a run writes to runs/<--preset>, or runs/default; the
        # directory never comes from a config file.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate-hom", "--preset", "dataset_A"]) == 0
        assert (tmp_path / "runs" / "dataset_A" / "hom_scan.csv").exists()
        path = tmp_path / "my.json"
        path.write_text(preset_config("dataset_B").to_json())
        assert cli.main(["simulate-hom", "--config", str(path)]) == 0
        assert (tmp_path / "runs" / "default" / "hom_scan.csv").exists()
        assert not (tmp_path / "runs" / "dataset_B").exists()

    def test_validation_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.bin"
        rc = cli.main(
            ["extract", "--preset", "dataset_A", "--bits", str(missing), "--out", str(tmp_path)]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "config, key", [({"n_bitz": 5}, "n_bitz"), ({"source": {"bogus": 1}}, "bogus")]
    )
    def test_unknown_config_key_exit_code(self, tmp_path, capsys, config, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert cli.main(["print-config", "--config", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err

    def test_non_finite_threshold_flag_exit_code(self, capsys):
        assert cli.main(["print-config", "--threshold", "nan"]) == 1
        assert "suite_threshold must be a number in [0, 1], got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [('{"source": 5}', "source"), ("[1, 2]", "the top level"), ('{"tomo": "x"}', "tomo")],
    )
    def test_non_object_config_exit_code(self, tmp_path, capsys, text, where):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["print-config", "--config", str(path)]) == 1
        assert f"config {where} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tomo, message",
        [
            ({"bayes_r": 50}, "bayes_r must be at least 100, got 50"),
            ({"bayes_r": 500}, "bayes_burn_in must be at most bayes_r, 500, got 2000"),
            ({"bayes_thin": 0}, "bayes_thin must be at least 1, got 0"),
            ({"bayes_k": 0}, "bayes_k must be at least 1, got 0"),
            ({"bayes_step": 0}, "bayes_step must be positive, got 0"),
            ({"mle_tol": -1}, "mle_tol"),
            ({"mle_max_iters": 0}, "mle_max_iters"),
            ({"bayes_k": 2.5}, "config key 'bayes_k' in tomo must be an integer, got 2.5"),
        ],
    )
    def test_bad_tomo_config_exit_code(self, tmp_path, capsys, tomo, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"tomo": tomo}))
        assert cli.main(["print-config", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"extractor": {"m": 5000}}, "1 <= m < n, got m=5000 and n=4500"),
            ({"extractor": {"m": 0}}, "1 <= m < n, got m=0 and n=4500"),
            ({"extractor": {"mode": "leftover_hash"}}, "leftover_hash mode needs h_inf"),
            ({"extractor": {"m": 1.5}}, "key 'm' in extractor must be an integer or null"),
            ({"n_bits": 0}, "n_bits must be at least 1"),
            ({"n_bits": "x"}, "key 'n_bits' in the top level must be an integer, got \"x\""),
            ({"suite_threshold": 2}, "suite_threshold must be a number in [0, 1], got 2"),
            ({"extractor": {"seed_bits": [1]}}, "unknown config key 'seed_bits' in extractor"),
            ({"extractor": {"rng_seed": 1}}, "unknown config key 'rng_seed' in extractor"),
            ({"source": {"rng_seed": 1}}, "unknown config key 'rng_seed' in source"),
            ({"extractor": {"epsilon": 5}}, "epsilon must be in (0, 1], got 5"),
            ({"extractor": {"h_inf": 7}}, "h_inf must be in (0, 1], got 7"),
            ({"output_dir": "runs/x"}, "unknown config key 'output_dir' in the top level"),
            ({"source": {"det_efficiency": 0}}, "det_efficiency must be in (0, 1], got 0"),
            ({"source": {"pair_rate": 0}}, "pair_rate must be positive, got 0"),
        ],
        ids=["m above n", "m zero", "leftover_hash without h_inf", "fractional m", "no bits",
             "string n_bits", "threshold above one", "extractor seed_bits", "extractor rng_seed",
             "source rng_seed", "epsilon above one", "h_inf above one", "output_dir",
             "dead detectors", "no pairs"],
    )
    def test_bad_extractor_or_length_config_exit_code(self, tmp_path, capsys, config, message):
        # Rejected at config load: run-all exits 1 before any stage runs.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert cli.main(["print-config", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err
        out = tmp_path / "run"
        assert cli.main(["run-all", "--config", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_bits_requested_exit_code(self, tmp_path, capsys):
        # --n-bits 0 is a request for no bits, not for the config's length.
        with pytest.raises(ValueError, match="n_bits must be at least 1"):
            dataclasses.replace(preset_config("dataset_A"), n_bits=0)
        gen = tmp_path / "gen"
        rc = cli.main(["generate", "--preset", "dataset_A", "--n-bits", "0", "--out", str(gen)])
        assert rc == 1
        assert "n_bits must be at least 1" in capsys.readouterr().err
        assert not gen.exists()
        out = tmp_path / "run"
        assert cli.main(["run-all", "--preset", "dataset_A", "--n-bits", "0", "--out", str(out)]) == 1
        assert not out.exists()

    def test_run_all_shorter_than_one_extractor_block_exit_code(self, tmp_path, capsys):
        # run-all rejects it before any stage runs; generate alone accepts it.
        out = tmp_path / "run"
        assert cli.main(["run-all", "--preset", "dataset_A", "--n-bits", "4000", "--out", str(out)]) == 1
        assert "shorter than one 4500-bit extractor block" in capsys.readouterr().err
        assert not out.exists()
        gen = tmp_path / "gen"
        assert cli.main(["generate", "--preset", "dataset_A", "--n-bits", "4000", "--out", str(gen)]) == 0

    def test_run_all_prints_the_report_summary(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(
            ["run-all", "--preset", "dataset_A", "--out", str(out), "--n-bits", "100000"]
        )
        assert rc == 0
        report = json.loads((out / "run_report.json").read_text())
        printed = json.loads(capsys.readouterr().out)
        assert printed == {**report["summary"], "report": str(out / "run_report.json")}
        certify_me = dict(report["certify"]["min_entropy"])
        assert certify_me.pop("stage") == "raw"
        assert report["min_entropy"]["raw"] == certify_me
        assert "chsh_rho" not in report["certify"]
        assert "violates_classical" not in report["certify"]["chsh_direct"]
        assert report["summary"]["chsh_mle"] == report["certify"]["tomography"]["mle"]["S"]

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"tomo": {"mle_max_iters": 1}}, "MLE did not converge in 1 iterations"),
            # One pair per setting: this seed simulates 16 zero counts.
            (
                {"tomo": {"acquisition_total": 1}, "global_seed": 187},
                "maximum likelihood needs at least one positive count",
            ),
        ],
        ids=["mle not converged", "all-zero counts"],
    )
    def test_estimator_failure_is_a_stage_failure(self, tmp_path, capsys, config, message):
        # An estimator that fails at run time fails certify (exit 2); it is
        # neither written into certify.json as a "failed" status with exit 0
        # nor reported as a validation error (exit 1).
        path = tmp_path / "estimator-failure.json"
        path.write_text(json.dumps(config))
        rc = cli.main(["certify", "--config", str(path), "--out", str(tmp_path / "cert")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cert" / "certify.json").exists()
        out = tmp_path / "run"
        rc = cli.main(
            ["run-all", "--config", str(path), "--out", str(out), "--n-bits", "100000"]
        )
        assert rc == 2
        report = json.loads((out / "run_report.json").read_text())
        assert report["failed_stage"] == "certify"
        assert message in report["error"]

    def test_double_extraction_exit_code(self, tmp_path):
        cfg = reduced(preset_config("dataset_A"), n_bits=REDUCED_BITS)
        raw, _ = run_generate(cfg, None)
        extracted, _ = run_extract(cfg, raw, tmp_path)
        extracted.save(tmp_path / "extracted_bits.bin")
        rc = cli.main(
            [
                "extract",
                "--preset",
                "dataset_A",
                "--bits",
                str(tmp_path / "extracted_bits.bin"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda sidecar: [1, 2], "must be a JSON object"),
            (lambda sidecar: {k: v for k, v in sidecar.items() if k != "n_bits"}, "no 'n_bits'"),
            (lambda sidecar: {k: v for k, v in sidecar.items() if k != "sha256"}, "no 'sha256'"),
        ],
        ids=["not an object", "no n_bits", "no sha256"],
    )
    @pytest.mark.parametrize("command", ["extract", "test", "certify"])
    def test_malformed_sidecar_exit_code(self, tmp_path, capsys, edit, message, command):
        bits, _ = run_generate(
            dataclasses.replace(preset_config("dataset_A"), n_bits=REDUCED_BITS), tmp_path
        )
        sidecar = tmp_path / "raw_bits.bin.json"
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        with pytest.raises(ValueError, match=message):
            BitStream.load(tmp_path / "raw_bits.bin")
        rc = cli.main([command, "--bits", str(tmp_path / "raw_bits.bin"), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"sidecar {sidecar} " in err and message in err

    @pytest.mark.parametrize(
        "command, module, stage",
        [
            ("generate", source, "generate_events"),
            ("extract", extract, "extract_stream"),
            ("test", statsuite, "run_suite"),
        ],
    )
    def test_out_at_an_existing_file_fails_before_the_stage_runs(
        self, tmp_path, capsys, monkeypatch, command, module, stage
    ):
        run_generate(dataclasses.replace(preset_config("dataset_A"), n_bits=REDUCED_BITS), tmp_path)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")

        def stage_ran(*args, **kwargs):
            raise AssertionError(f"{stage} ran before the output directory was made")

        monkeypatch.setattr(module, stage, stage_ran)
        args = ["--bits", str(tmp_path / "raw_bits.bin")] if command != "generate" else []
        assert cli.main([command, *args, "--out", str(not_a_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not_a_dir.read_text() == ""

    def test_seed_flag_changes_stream(self, tmp_path):
        for seed in (1, 2):
            cli.main(
                [
                    "generate",
                    "--preset",
                    "dataset_A",
                    "--seed",
                    str(seed),
                    "--out",
                    str(tmp_path / str(seed)),
                    "--n-bits",
                    "10000",
                ]
            )
        a = (tmp_path / "1" / "raw_bits.bin").read_bytes()
        b = (tmp_path / "2" / "raw_bits.bin").read_bytes()
        assert a != b


class TestHomScanIsByteIdentical:
    def test_fixed_seed_rewrites_identical_csv(self, tmp_path):
        cfg = preset_config("dataset_A")
        run_hom(cfg, tmp_path / "x")
        run_hom(cfg, tmp_path / "y")
        assert (tmp_path / "x" / "hom_scan.csv").read_bytes() == (
            tmp_path / "y" / "hom_scan.csv"
        ).read_bytes()


def _scipy_modules_after(body: str) -> list:
    """The scipy modules loaded in a fresh interpreter after running ``body``.

    A subprocess, because the test session has scipy loaded already."""
    script = textwrap.dedent(
        """
        import sys
        sys.path.insert(0, {src!r})
        {body}
        print("\\n".join(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    ).format(src=str(Path(diqrng.__file__).parents[1]), body=body)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestStartupLoadsNumpyOnly:
    """scipy is imported by the code that calls it: the Bayes chain and the
    suite's p-values load scipy.special.  The HOM fit runs on numpy.linalg,
    and importing the package loads no scipy."""

    def test_importing_every_module_loads_no_scipy(self):
        loaded = _scipy_modules_after(
            "import pkgutil, importlib, diqrng, diqrng.cli\n"
            "for m in pkgutil.walk_packages(diqrng.__path__, 'diqrng.'):\n"
            "    importlib.import_module(m.name)\n"
            "assert 'diqrng.statsuite.sp800_22' in sys.modules"
        )
        assert loaded == []

    def test_importing_every_module_starts_no_thread(self):
        # The helper lane's thread is started per call, never at import.
        _scipy_modules_after(
            "import pkgutil, importlib, threading, diqrng, diqrng.cli\n"
            "for m in pkgutil.walk_packages(diqrng.__path__, 'diqrng.'):\n"
            "    importlib.import_module(m.name)\n"
            "assert 'diqrng._lanes' in sys.modules\n"
            "assert threading.active_count() == 1, threading.enumerate()"
        )

    def test_hom_fit_loads_no_scipy(self):
        loaded = _scipy_modules_after(
            "from diqrng.pipeline import preset_config, run_hom\n"
            "result = run_hom(preset_config('dataset_A'))\n"
            "assert abs(result['visibility'] - 0.9655) < 0.01"
        )
        assert loaded == []

    def test_generate_and_extract_load_no_scipy(self):
        loaded = _scipy_modules_after(
            "from dataclasses import replace\n"
            "from diqrng.pipeline import preset_config, run_extract, run_generate\n"
            f"cfg = replace(preset_config('dataset_A'), n_bits={REDUCED_BITS})\n"
            "raw, _ = run_generate(cfg, None)\n"
            "run_extract(cfg, raw, None)"
        )
        assert loaded == []

    def test_suite_loads_scipy_special_only(self):
        loaded = _scipy_modules_after(
            "import numpy as np\n"
            "from diqrng.extract import BitStream\n"
            "from diqrng.pipeline import preset_config, run_test\n"
            "bits = np.random.default_rng(0).integers(0, 2, 20000, dtype=np.uint8)\n"
            "run_test(preset_config('dataset_A'), BitStream.from_bits(bits))"
        )
        assert "scipy.special" in loaded
        assert not [m for m in loaded if m.startswith("scipy.optimize")]
