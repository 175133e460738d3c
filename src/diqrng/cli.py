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
    if args.threshold is not None:
        cfg = dataclasses.replace(cfg, suite_threshold=args.threshold)
    if getattr(args, "n_bits", None) is not None:
        cfg = dataclasses.replace(cfg, n_bits=args.n_bits)
    return cfg


def _out_dir(args) -> Path:
    """--out, else runs/<--preset>, else runs/default; never a config value."""
    return Path(args.out or f"runs/{args.preset or 'default'}")


def cmd_print_config(cfg: PipelineConfig, args) -> str:
    return cfg.to_json()


def cmd_simulate_hom(cfg: PipelineConfig, args) -> str:
    result = pipeline.run_hom(cfg, _out_dir(args))
    return json_text({k: result[k] for k in ("visibility", "stderr")})


def cmd_generate(cfg: PipelineConfig, args) -> str:
    _, info = pipeline.run_generate(cfg, _out_dir(args))
    return json_text(info)


def cmd_certify(cfg: PipelineConfig, args) -> str:
    bits = BitStream.load(args.bits) if args.bits else None
    report = pipeline.run_certify(cfg, bits, _out_dir(args))
    summary = {
        "chsh_model": report["chsh_model"],
        "chsh_direct": report["chsh_direct"]["S"],
        "verdict": report["verdict"],
    }
    return json_text(summary)


def cmd_extract(cfg: PipelineConfig, args) -> str:
    raw = BitStream.load(args.bits)
    _, info = pipeline.run_extract(cfg, raw, _out_dir(args))
    return json_text(info)


def cmd_test(cfg: PipelineConfig, args) -> str:
    bits = BitStream.load(args.bits)
    report = pipeline.run_test(cfg, bits, _out_dir(args))
    return json_text({"all_passed": report.all_passed, "failing": report.failing()})


def cmd_run_all(cfg: PipelineConfig, args) -> str:
    out_dir = _out_dir(args)
    report = pipeline.run_all(cfg, out_dir)
    summary = {**report["summary"], "report": str(out_dir / "run_report.json")}
    return json_text(summary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diqrng",
        description="Entanglement-based QRNG simulator and certification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bits_arg=False, n_bits_arg=False, out_arg=True):
        p.add_argument("--config", help="pipeline config JSON path")
        p.add_argument(
            "--preset",
            choices=["dataset_A", "dataset_B", "classical_source"],
            help="built-in operating point",
        )
        p.add_argument("--seed", type=int, help="override the global seed")
        if out_arg:
            p.add_argument("--out", help="output directory (default runs/<preset> or runs/default)")
        p.add_argument("--threshold", type=float, help="suite pass threshold")
        if bits_arg:
            p.add_argument("--bits", required=True, help="input bit file")
        if n_bits_arg:
            p.add_argument("--n-bits", type=int, default=None, dest="n_bits")

    common(sub.add_parser("print-config", help="show the resolved config"), out_arg=False)
    common(sub.add_parser("simulate-hom", help="HOM scan and visibility fit"))
    common(sub.add_parser("generate", help="generate raw heralded bits"), n_bits_arg=True)
    certify_p = sub.add_parser("certify", help="CHSH + tomography + min-entropy")
    common(certify_p)
    certify_p.add_argument("--bits", help="raw bit file for min-entropy")
    common(sub.add_parser("extract", help="Toeplitz extraction"), bits_arg=True)
    test_help = (
        "SP 800-22 suite. The FFT test's DFT runs at the stream's length n; an n with a"
        " large prime factor costs about 11x more (1,200,003 bits against 1,200,000)."
    )
    common(sub.add_parser("test", help="SP 800-22 suite", description=test_help), bits_arg=True)
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
        print(_COMMANDS[args.command](_load_config(args), args))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"stage failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
