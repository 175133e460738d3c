"""Command-line entry points for the pipeline.

Exit codes: 0 success, 1 validation problem (bad config or arguments, a
malformed input bit file, or a path that cannot be read or written),
2 stage failure at run time.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import pipeline
from .extract import BitStream
from .pipeline import PipelineConfig, json_text, preset_config


def _load_config(args) -> PipelineConfig:
    if args.config:
        cfg = PipelineConfig.from_json(Path(args.config).read_text())
    elif args.preset:
        cfg = preset_config(args.preset)
    else:
        cfg = PipelineConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, global_seed=args.seed)
    if args.out:
        cfg = dataclasses.replace(cfg, output_dir=args.out)
    if args.threshold is not None:
        cfg = dataclasses.replace(cfg, suite_threshold=args.threshold)
    if getattr(args, "n_bits", None) is not None:
        cfg = dataclasses.replace(cfg, n_bits=args.n_bits)
    return cfg


def cmd_print_config(args) -> int:
    cfg = _load_config(args)
    print(cfg.to_json())
    return 0


def cmd_simulate_hom(args) -> int:
    cfg = _load_config(args)
    result = pipeline.run_hom(cfg, cfg.output_dir)
    print(json_text({k: result[k] for k in ("visibility", "stderr")}))
    return 0


def cmd_generate(args) -> int:
    cfg = _load_config(args)
    _, info = pipeline.run_generate(cfg, cfg.output_dir)
    print(json_text(info))
    return 0


def cmd_certify(args) -> int:
    cfg = _load_config(args)
    bits = BitStream.load(args.bits) if args.bits else None
    report = pipeline.run_certify(cfg, bits, cfg.output_dir)
    summary = {
        "chsh_model": report["chsh_model"],
        "chsh_direct": report["chsh_direct"]["S"],
        "verdict": report["verdict"],
    }
    print(json_text(summary))
    return 0


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    raw = BitStream.load(args.bits)
    _, info = pipeline.run_extract(cfg, raw, cfg.output_dir)
    print(json_text(info))
    return 0


def cmd_test(args) -> int:
    cfg = _load_config(args)
    bits = BitStream.load(args.bits)
    report = pipeline.run_test(cfg, bits, cfg.output_dir)
    print(json_text({"all_passed": report.all_passed, "failing": report.failing()}))
    return 0


def cmd_run_all(args) -> int:
    cfg = _load_config(args)
    report = pipeline.run_all(cfg, cfg.output_dir)
    summary = {**report["summary"], "report": str(Path(cfg.output_dir) / "run_report.json")}
    print(json_text(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diqrng",
        description="Entanglement-based QRNG simulator and certification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bits_arg=False, n_bits_arg=False):
        p.add_argument("--config", help="pipeline config JSON path")
        p.add_argument(
            "--preset",
            choices=["dataset_A", "dataset_B", "classical_source"],
            help="built-in operating point",
        )
        p.add_argument("--seed", type=int, help="override the global seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threshold", type=float, help="suite pass threshold")
        if bits_arg:
            p.add_argument("--bits", required=True, help="input bit file")
        if n_bits_arg:
            p.add_argument("--n-bits", type=int, default=None, dest="n_bits")

    common(sub.add_parser("print-config", help="show the resolved config"))
    common(sub.add_parser("simulate-hom", help="HOM scan and visibility fit"))
    common(sub.add_parser("generate", help="generate raw heralded bits"), n_bits_arg=True)
    certify_p = sub.add_parser("certify", help="CHSH + tomography + min-entropy")
    common(certify_p)
    certify_p.add_argument("--bits", help="raw bit file for min-entropy")
    common(sub.add_parser("extract", help="Toeplitz extraction"), bits_arg=True)
    common(sub.add_parser("test", help="SP 800-22 suite"), bits_arg=True)
    common(sub.add_parser("run-all", help="full pipeline"), n_bits_arg=True)
    return parser


_COMMANDS = {
    "print-config": cmd_print_config,
    "simulate-hom": cmd_simulate_hom,
    "generate": cmd_generate,
    "certify": cmd_certify,
    "extract": cmd_extract,
    "test": cmd_test,
    "run-all": cmd_run_all,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
