"""Aggregate CSV, analysis JSON, and static SVG box plots."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ..stats import bootstrap_ci
from .config import ExperimentConfig

REPORT_METRICS = ("factscore", "mean_similarity", "adherent_count", "word_count")

CSV_COLUMNS = (
    "model",
    "mode",
    "metric",
    "median",
    "mean",
    "ci_lo",
    "ci_hi",
    "p_one_sided",
    "p_bh_adjusted",
    "dz",
    "n",
)


def write_analysis(analysis: dict, path: Path) -> None:
    path.write_text(
        json.dumps(analysis, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def escape(text: str) -> str:
    """``text`` as XML character data: ``&``, then ``<`` and ``>``, escaped.

    The replacements ``xml.sax.saxutils.escape`` makes, without importing
    it: that module loads ``urllib.request``, ``http.client`` and ``email``.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _metric_values(items: list[dict], model: str, mode: str, metric: str) -> list[float]:
    return [
        float(i[metric])
        for i in items
        if i.get("model") == model and i.get("mode") == mode and metric in i
    ]


def write_csv_and_plots(
    items: list[dict], analysis: dict, cfg: ExperimentConfig, out: Path
) -> None:
    """One CSV row per (model, mode, metric) plus one box plot per metric.

    Confidence intervals are percentile-bootstrap intervals on the mean;
    rows with fewer than 2 values leave the CI columns empty. The test
    columns are only filled on rag_coi rows, against the rag baseline.
    """
    comparisons = {
        (c["model"], c["metric"]): c
        for c in analysis.get("comparisons", [])
        if "p_one_sided" in c
    }
    models = sorted({i["model"] for i in items if "model" in i})

    rows = []
    for model in models:
        for mode in cfg.modes:
            for metric in REPORT_METRICS:
                values = _metric_values(items, model, mode, metric)
                row = {c: "" for c in CSV_COLUMNS}
                row.update(model=model, mode=mode, metric=metric, n=len(values))
                if values:
                    row["median"] = _fmt(float(np.median(values)))
                    row["mean"] = _fmt(float(np.mean(values)))
                if len(values) >= 2:
                    lo, hi = bootstrap_ci(
                        values, "mean", n_boot=cfg.bootstrap_samples, seed=cfg.seed
                    )
                    row["ci_lo"], row["ci_hi"] = _fmt(lo), _fmt(hi)
                comp = comparisons.get((model, metric))
                if mode == "rag_coi" and comp is not None:
                    row["p_one_sided"] = _fmt(comp["p_one_sided"])
                    row["p_bh_adjusted"] = _fmt(comp.get("p_bh_adjusted"))
                    row["dz"] = _fmt(comp.get("dz"))
                rows.append(row)

    with open(out / "report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    for metric in REPORT_METRICS:
        groups = []
        for model in models:
            for mode in cfg.modes:
                values = _metric_values(items, model, mode, metric)
                if values:
                    groups.append((f"{model}/{mode}", values))
        if groups:
            svg = box_plot_svg(metric, groups)
            (out / f"boxplot_{metric}.svg").write_text(svg, encoding="utf-8")


def box_plot_svg(title: str, groups: list[tuple[str, list[float]]]) -> str:
    """Hand-rolled SVG box plot: min/q1/median/q3/max whisker boxes.

    Text-template rendering keeps the output byte-stable across runs,
    which a plotting library does not guarantee.
    """
    box_w, gap, left, top, plot_h = 46, 34, 70, 30, 260
    width = left + len(groups) * (box_w + gap) + 40
    height = top + plot_h + 90

    lo = min(min(v) for _, v in groups)
    hi = max(max(v) for _, v in groups)
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def y(v: float) -> float:
        return top + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{left}" y="16" font-size="14">{escape(title)}</text>',
        f'<line x1="{left - 10}" y1="{top}" x2="{left - 10}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        yy = y(v)
        parts.append(
            f'<line x1="{left - 14}" y1="{yy:.2f}" x2="{left - 10}" y2="{yy:.2f}" stroke="black"/>'
        )
        parts.append(f'<text x="2" y="{yy + 4:.2f}">{v:.3g}</text>')

    for gi, (label, values) in enumerate(groups):
        arr = np.asarray(values, dtype=float)
        q1, med, q3 = np.percentile(arr, [25, 50, 75]).tolist()  # one sort of the group
        vmin, vmax = float(arr.min()), float(arr.max())
        cx = left + gi * (box_w + gap) + box_w / 2
        x0 = cx - box_w / 2
        parts += [
            f'<line x1="{cx:.2f}" y1="{y(vmax):.2f}" x2="{cx:.2f}" y2="{y(q3):.2f}" stroke="black"/>',
            f'<line x1="{cx:.2f}" y1="{y(q1):.2f}" x2="{cx:.2f}" y2="{y(vmin):.2f}" stroke="black"/>',
            f'<rect x="{x0:.2f}" y="{y(q3):.2f}" width="{box_w}" height="{max(y(q1) - y(q3), 0.5):.2f}" '
            'fill="#9ecae1" stroke="black"/>',
            f'<line x1="{x0:.2f}" y1="{y(med):.2f}" x2="{x0 + box_w:.2f}" y2="{y(med):.2f}" '
            'stroke="black" stroke-width="2"/>',
            f'<text x="{cx:.2f}" y="{top + plot_h + 14}" text-anchor="middle" '
            f'transform="rotate(40 {cx:.2f} {top + plot_h + 14})">{escape(label)}</text>',
        ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
