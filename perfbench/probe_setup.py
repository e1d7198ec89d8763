"""Set-up probe: a fresh interpreter up to a ready ``StageContext``.

Usage: python3 perfbench/probe_setup.py CONFIG WORKDIR

Imports the experiment harness, loads the config, builds the stage
context with its output and cache directories under WORKDIR, then prints
``ready``. The caller times the span from spawning it to that line.
"""

import sys
from pathlib import Path

from coi_rag.bench.config import load_config
from coi_rag.bench.runner import make_context


def main() -> None:
    cfg = load_config(sys.argv[1])
    cfg.output_dir = Path(sys.argv[2]) / "out"
    cfg.cache_dir = Path(sys.argv[2]) / "cache"
    make_context(cfg)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
