"""Regenerate perfbench/digests.json, the pinned output digest of every input variant.

Usage, from the root of a checkout:

    python3 perfbench/pin_digests.py

Runs the hermetic and the remote pipeline once per input variant, with the
fake transport's simulated latency off, and records the canonical digest
of each run's artifacts (``harness.canonical_digest``). Rerun it only in a
change that means to alter the program's outputs, and say why.
"""

from __future__ import annotations

import json

from run import bootstrap


def main() -> None:
    bootstrap()
    import harness
    from workloads import VARIANTS, WORKLOADS

    pinned = {}
    for pipeline, workload in (("hermetic", "hermetic-scaled"), ("remote", "remote-cold")):
        pinned[pipeline] = {}
        for variant in range(VARIANTS):
            bench = harness.Bench(WORKLOADS[workload], variant, latency=(0.0, 0.0))
            bench.pinned = None  # being recorded, not checked
            run = bench.run_once("pin")
            bench.cleanup()
            if run.problems:
                raise SystemExit(f"{workload} variant {variant}: {run.problems}")
            pinned[pipeline][str(variant)] = run.canonical
            print(f"{pipeline} {variant} {run.canonical[:16]} {run.seconds:.2f}s", flush=True)
    harness.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
