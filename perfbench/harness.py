"""Timed runs of ``run_experiment``, their output checks and their metrics.

Load model: one closed-loop batch run at a time from this single process;
the next run starts only after the previous one finished and was checked.
Every timed run starts from a fresh output directory, and from a fresh
cache unless the workload replays a warmed one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from coi_rag.bench.config import load_config
from coi_rag.bench.runner import run_experiment
from coi_rag.providers import CallCache

from fake_openai import PER_INPUT_S, ROUND_TRIP_S, FakeOpenAI, NetworkGuard
from spans import Tracer, instrument
from workloads import ROOT, VARIANTS, Workload, variant_of, write_inputs

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
RESULTS = WORK / "results"
PROBE = HERE / "probe_setup.py"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5
# calibrate() on the reference machine (2-vCPU Xeon VM, Python 3.11). Its
# speed drifts by up to 40% within minutes as neighbours load the host, so
# timings are scaled to this speed; see measure().
CALIBRATION_REFERENCE_S = 0.060
CALIBRATION_SAMPLES = 5
# Floats are compared to 9 significant digits, so last-bit differences in
# BLAS summation order between machines do not fail the check.
_FLOAT = re.compile(r"\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+")
_STAMPED = ("explanations.jsonl", "items.jsonl")


def file_digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def canonical_digest(out: Path) -> str:
    """Digest of every artifact except the manifest, with ``created_at``
    dropped from the JSONL records and floats rounded."""
    combined = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        name = str(p.relative_to(out))
        if not p.is_file() or name == "manifest.json":
            continue
        text = p.read_text(encoding="utf-8")
        if p.name in _STAMPED:
            rows = [json.loads(line) for line in text.splitlines() if line.strip()]
            for row in rows:
                row.pop("created_at", None)
            text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
        text = _FLOAT.sub(lambda m: format(float(m.group(0)), ".9g"), text)
        combined.update(f"{name}\0{text}\0".encode("utf-8"))
    return combined.hexdigest()


def calibrate() -> float:
    """Seconds for a fixed keyed sort, the kind of interpreter work that
    dominates a run; measured between runs to track the machine's speed."""
    keys = [(i * 7919) % 10007 for i in range(20000)]
    started = time.perf_counter()
    for _ in range(6):
        sorted(range(20000), key=lambda i: (-keys[i], i))
    return time.perf_counter() - started


def calibration_samples() -> list[float]:
    return [calibrate() for _ in range(CALIBRATION_SAMPLES)]


def speed_factor(samples: list[float]) -> float:
    """Reference calibration time over the measured one: below 1 when slow."""
    return CALIBRATION_REFERENCE_S / statistics.median(samples)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


@dataclass
class Run:
    seconds: float
    items: int = 0
    failed: int = 0
    requests: Counter = field(default_factory=Counter)
    raw: dict = field(default_factory=dict)
    canonical: str = ""
    items_bytes: bytes = b""
    transport_s: float = 0.0  # inside the fake transport, simulated latency included
    cache_bytes_written: int = 0
    problems: list = field(default_factory=list)


class Bench:
    """One workload at one seed: its inputs and its runs."""

    def __init__(
        self, workload: Workload, seed: int, latency: tuple[float, float] = (ROUND_TRIP_S, PER_INPUT_S)
    ):
        self.workload = workload
        self.seed = seed
        self.latency = latency  # the fake transport's (round trip, per input) seconds
        self.dir = WORK / f"{workload.name}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = self.dir / "inputs"
        self.input_sha256, self.behaviors = write_inputs(workload, seed, self.inputs)
        self.config_path = self.inputs / "config.ini"
        questions = (self.inputs / "questions.jsonl").read_text(encoding="utf-8").splitlines()
        cfg = load_config(self.config_path)
        self.expected_items = len(questions) * len(cfg.answer_models) * len(cfg.modes)
        self.pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def measure_setup(self, probes: int = SETUP_PROBES) -> list[float]:
        """Fresh interpreter to a ready StageContext, once per probe."""
        times = []
        for i in range(probes):
            workdir = self.dir / f"probe{i}"
            started = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, str(PROBE), str(self.config_path), str(workdir)],
                stdout=subprocess.PIPE, text=True,
            ) as proc:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - started)
            if proc.returncode != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
            shutil.rmtree(workdir, ignore_errors=True)
        return times

    def run_once(self, tag: str, cache_dir: Path | None = None, tracer: Tracer | None = None) -> Run:
        """One timed ``run_experiment`` from a fresh output directory, then its check."""
        run_dir = self.dir / tag
        shutil.rmtree(run_dir, ignore_errors=True)
        cfg = load_config(self.config_path)
        cfg.output_dir = run_dir / "out"
        cfg.cache_dir = cache_dir or run_dir / "cache"
        fake = FakeOpenAI(self.behaviors, *self.latency)
        kwargs = {}
        if self.workload.pipeline == "remote":
            kwargs = {
                "embedder": cfg.build_embedder(cache=CallCache(cfg.cache_dir), transport=fake),
                "transports": {name: fake for name in self.behaviors},
            }
        cache_before = dir_bytes(cfg.cache_dir)
        if tracer is not None:
            instrument(tracer, fake)
        gc.collect()
        started = time.perf_counter()
        report = None
        try:
            with NetworkGuard() as guard:
                report = run_experiment(cfg, **kwargs)
        except Exception:  # a broken run is reported as failed, not fatal
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.restore()
        if report is None:
            shutil.rmtree(run_dir, ignore_errors=True)
            return Run(seconds=elapsed, items=self.expected_items,
                       failed=self.expected_items, problems=[f"{tag}: run raised"])
        run = Run(seconds=elapsed, items=report.items, failed=report.failed)
        run.requests = fake.requests
        run.transport_s = fake.busy_s
        run.cache_bytes_written = dir_bytes(cfg.cache_dir) - cache_before
        out = cfg.output_dir
        run.raw = file_digests(out)
        run.canonical = canonical_digest(out)
        run.items_bytes = (out / "items.jsonl").read_bytes()
        run.problems = self._check(tag, run, out, guard, fake)
        if run.problems:
            run.failed = run.items = max(run.items, self.expected_items)
        shutil.rmtree(run_dir, ignore_errors=True)
        return run

    def _check(self, tag: str, run: Run, out: Path, guard, fake) -> list[str]:
        problems = []
        if run.items != self.expected_items:
            problems.append(f"{run.items} items, expected {self.expected_items}")
        if run.failed:
            problems.append(f"{run.failed} failed items")
        for line in run.items_bytes.decode("utf-8").splitlines():
            item = json.loads(line)
            if "factscore" not in item and not item.get("unevaluable"):
                problems.append(f"item without a score: {item.get('question_id')}")
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["files"]
        if manifest != {k: v for k, v in run.raw.items() if k != "manifest.json"}:
            problems.append("manifest.json does not match the artifacts")
        if guard.calls:
            problems.append(f"{guard.calls} real network calls attempted")
        if fake.rejected:
            problems.append(f"{fake.rejected} malformed provider requests")
        if self.pinned is not None:
            pinned = self.pinned.get(self.workload.pipeline, {}).get(str(variant_of(self.seed)))
            if pinned != run.canonical:
                problems.append(f"output digest {run.canonical[:16]} != pinned {str(pinned)[:16]}")
        return [f"{tag}: {p}" for p in problems]


def check_series(bench: Bench, runs: list[Run], warming: Run | None) -> list[str]:
    """Checks across the runs of one invocation."""
    problems = [p for r in runs for p in r.problems]
    ok = [r for r in runs if not r.problems]
    if len({r.canonical for r in ok}) > 1:
        problems.append("output digests differ between runs")
    totals = {sum(r.requests.values()) for r in ok}
    if bench.workload.pipeline == "hermetic" or bench.workload.warm_cache:
        if totals - {0}:
            problems.append(f"provider requests {sorted(totals)} where 0 are expected")
    elif len(totals) > 1:
        problems.append(f"provider requests differ between cold runs: {sorted(totals)}")
    if warming is not None:
        problems += warming.problems
        if any(r.items_bytes != warming.items_bytes for r in ok):
            problems.append("items.jsonl of a warm run differs from the cold run that warmed it")
    return problems


def median_quartiles(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.4f} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def nondeterministic_artifacts(a: Run, b: Run) -> int:
    names = set(a.raw) | set(b.raw)
    return sum(1 for n in names if a.raw.get(n) != b.raw.get(n))


def layer_metrics(tracer: Tracer, run: Run) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    self_s = tracer.self_times()
    counts = tracer.counts
    metrics = {
        f"{name}.s": self_s.get(name, 0.0)
        for name in (
            "stage.ingest", "stage.build_bank", "stage.plan", "stage.answer",
            "stage.evaluate", "stage.analyze", "stage.report", "stage.manifest",
            "vector_index.top_k", "vector_index.load", "vector_index.save",
            "adherence.extract_clauses", "adherence.build_source_index", "adherence.match_clauses",
            "providers.embed", "providers.complete", "providers.http",
            "corpus.read_document", "corpus.chunk",
            "question_bank.build_bank", "question_bank.load",
            "planner.plan", "prompting.generate",
            "stats.select_paired_test", "stats.bootstrap_ci",
            "report.write_analysis", "report.write_csv_and_plots",
        )
    }
    for name in (
        "vector_index.top_k.calls", "vector_index.top_k.rows",
        "adherence.ai_clauses", "adherence.source_clauses", "adherence.match_clauses.calls",
        "providers.embed.calls", "providers.embed.texts", "providers.complete.calls",
        "corpus.chunks", "question_bank.questions",
        "planner.plan.calls", "planner.selected",
        "prompting.generate.calls", "prompting.prompt_chars",
        "stats.select_paired_test.calls",
    ):
        metrics[name] = counts[name]
    gets = counts["providers.cache.get.calls"]
    metrics.update(
        {
            "providers.http.requests.embeddings": run.requests["embeddings"],
            "providers.http.requests.chat": run.requests["chat"],
            "providers.cache.gets": gets,
            "providers.cache.hit_ratio": counts["providers.cache.hits"] / gets if gets else 0.0,
            "providers.cache.get_s": self_s.get("providers.cache.get", 0.0),
            "providers.cache.puts": counts["providers.cache.put.calls"],
            "providers.cache.put_s": self_s.get("providers.cache.put", 0.0),
            "providers.cache.bytes_written": run.cache_bytes_written,
        }
    )
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def machine() -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"  # the benchmark may run from an export, not a clone
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": sha,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; returns the full result record."""
    bench = Bench(workload, seed)
    calibration = calibration_samples()
    setup = [] if trace else bench.measure_setup()
    warming = None
    cache_dir = None
    if workload.warm_cache:
        cache_dir = bench.dir / "warm-cache"
        warming = bench.run_once("warming", cache_dir=cache_dir)
    runs: list[Run] = []
    traced: list[tuple[Tracer, Run]] = []
    started = time.perf_counter()
    # Stop before a round that would end past ``seconds``, so a slow run does
    # not stretch the measurement by up to one more run.
    while True:
        calibration += calibration_samples()
        runs.append(bench.run_once(f"run{len(runs)}", cache_dir=cache_dir))
        if trace:
            tracer = Tracer()
            traced.append((tracer, bench.run_once(f"traced{len(traced)}", cache_dir, tracer)))
        elapsed = time.perf_counter() - started
        if len(runs) >= (2 if trace else 1) and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    calibration += calibration_samples()
    if traced:
        RESULTS.mkdir(parents=True, exist_ok=True)
        traced[0][0].write(RESULTS / f"{workload.name}-s{seed}-spans.jsonl", "traced0")
    problems = check_series(bench, runs + [r for _, r in traced], warming)
    bench.cleanup()

    attempted = sum(r.items for r in runs)
    failed = sum(r.failed for r in runs)
    if problems:
        failed = attempted
    # Time spent in the program is scaled to the reference speed; the fake
    # transport's simulated latency is wall time by design and is not.
    speed = speed_factor(calibration)
    wall_s = [r.seconds for r in runs]
    run_s = [(r.seconds - r.transport_s) * speed + r.transport_s for r in runs]
    evaluated = statistics.median(r.items - r.failed for r in runs)
    result = {
        "workload": workload.name,
        "seed": seed,
        "input_variant": variant_of(seed),
        "input_variants": VARIANTS,
        "input_sha256": bench.input_sha256,
        "output_digest": runs[0].canonical,
        "fake_transport": {"round_trip_s": bench.latency[0], "per_input_s": bench.latency[1]},
        "machine": machine(),
        "calibration_s_samples": calibration,
        "speed_factor": speed,
        "wall_s_samples": wall_s,
        "run_s_samples": run_s,
        "setup_wall_s_samples": setup,
        "setup_s_samples": [t * speed for t in setup],
        "provider_requests": sum(runs[0].requests.values()),
        "failed_ratio": failed / attempted,
        "problems": problems,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
    }
    if trace:
        per_run = [layer_metrics(t, r) for t, r in traced]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        metrics["runner.nondeterministic_artifacts"] = nondeterministic_artifacts(runs[0], runs[1])
        metrics["trace.overhead_ratio"] = (
            statistics.median(r.seconds for _, r in traced) / statistics.median(wall_s)
        )
        result["per_layer"] = metrics
    else:
        result["end_to_end"] = {
            "run_s": statistics.median(run_s),
            "explanations_per_s": evaluated / statistics.median(run_s),
            "setup_s": statistics.median(setup) * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return result
