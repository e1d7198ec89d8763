"""coi-rag benchmark: timed ``run_experiment`` on seeded, generated inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hermetic-scaled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced runs. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with machine details and input digest, goes to
``.perfbench/results/<workload>-s<seed>-trace<t>.json``, and the spans of
the first traced run to ``.perfbench/results/<workload>-s<seed>-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREADS = "1"  # one closed-loop client on a small machine: no BLAS thread pool
END_TO_END_UNITS = {"run_s": "s", "explanations_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def bootstrap() -> None:
    """Import the program from this checkout's ``src/`` with pinned BLAS threads."""
    needed = (SRC / "coi_rag" / "__init__.py", ROOT / "scripts" / "make_golden_fixture.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"perfbench: not a coi-rag checkout, missing {', '.join(missing)}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)  # for the set-up probes
    sys.path.insert(0, str(SRC))


def report(result: dict, trace: bool) -> dict:
    """Print one workload's metrics with units; return the contract JSON."""
    import harness

    print(f"== {result['workload']} seed={result['seed']} variant={result['input_variant']} "
          f"input_sha256={result['input_sha256'][:16]} output_digest={result['output_digest'][:16]}")
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    if trace:
        metrics = {
            name: {"value": value, "unit": harness.layer_unit(name)}
            for name, value in result["per_layer"].items()
        }
    else:
        print(f"speed_factor: {result['speed_factor']:.4f} (reference calibration / measured)")
        for name in ("wall_s", "run_s", "setup_wall_s", "setup_s"):
            print(f"{name}: {harness.median_quartiles(result[name + '_samples'])} s")
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in result["end_to_end"].items()
        }
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"provider_requests: {result['provider_requests']} count")
    print(f"failed_ratio: {result['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} explanations)")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import harness
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    harness.RESULTS.mkdir(parents=True, exist_ok=True)
    summaries = []
    for name in names:
        result = harness.measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        out = harness.RESULTS / f"{name}-s{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        summaries.append((name, report(result, bool(args.trace))))
    if len(summaries) == 1:
        final = summaries[0][1]
    else:
        final = {
            "correct": all(s["correct"] for _, s in summaries),
            "attempted": sum(s["attempted"] for _, s in summaries),
            "failed": sum(s["failed"] for _, s in summaries),
            "metrics": {f"{n}.{k}": v for n, s in summaries for k, v in s["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
