"""Command-line entry point for the experiment pipeline."""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .runner import (
    make_context,
    run_experiment,
    stage_analyze,
    stage_answer,
    stage_build_bank,
    stage_evaluate,
    stage_ingest,
    stage_plan,
    stage_report,
    write_manifest,
)

STAGES = {
    "ingest": stage_ingest,
    "build-bank": stage_build_bank,
    "plan": stage_plan,
    "answer": stage_answer,
    "evaluate": stage_evaluate,
    "analyze": stage_analyze,
    "report": stage_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coi-bench",
        description=(
            "Run retrieval-augmented explanation experiments: chunk corpora, "
            "build implicit-question banks, plan, answer, score source "
            "adherence, and analyze rag_coi against rag."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(STAGES) + ["run"]:
        p = sub.add_parser(name, help=f"{name} stage" if name != "run" else "all stages")
        p.add_argument("-c", "--config", required=True, help="INI config file")
        p.add_argument("-o", "--output-dir", help="override the configured output dir")
        p.add_argument("--cache-dir", help="override the configured cache dir")
        if name == "run":
            p.add_argument(
                "--allow-partial",
                action="store_true",
                help="exit 0 even when some items failed",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config)
    if args.output_dir:
        cfg.output_dir = type(cfg.output_dir)(args.output_dir)
    if args.cache_dir:
        cfg.cache_dir = type(cfg.cache_dir)(args.cache_dir)

    if args.command == "run":
        report = run_experiment(cfg)
        print(
            f"items={report.items} failed={report.failed} "
            f"unevaluable={report.unevaluable} -> {report.output_dir}"
        )
        return 1 if report.failed and not args.allow_partial else 0

    ctx = make_context(cfg)
    try:
        STAGES[args.command](ctx)
    finally:
        ctx.cache.close()
    write_manifest(ctx.out)
    print(f"{args.command}: wrote artifacts to {ctx.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
