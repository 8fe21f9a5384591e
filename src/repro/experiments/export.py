"""Exporting experiment results for downstream analysis/plotting.

Two formats:

* **JSON** — full fidelity: configuration, all summary moments,
  per-cluster breakdowns; one document per result or figure.
* **CSV** — flat rows for spreadsheet/pandas workflows; figure series
  export one row per (x, curve).

Both are plain standard-library serialisation — results are small —
and deterministic (sorted keys) so exports diff cleanly across runs.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import Iterable, Union

from .figures import FigureData
from .runner import AggregateResult, ExperimentResult

__all__ = [
    "result_to_dict",
    "results_to_json",
    "results_to_csv",
    "figure_to_json",
    "figure_to_csv",
]

_RESULT_FIELDS = (
    "name",
    "cs_count",
    "total_messages",
    "inter_cluster_messages",
    "intra_cluster_messages",
    "total_bytes",
    "inter_cluster_bytes",
    "sim_time_ms",
)

#: What a run's observability report exports: everything but the
#: per-CS rows of the ``trace`` level.
_OBS_FIELDS = (
    "level",
    "counters",
    "n_paths",
    "exact",
    "obtaining_total_ms",
    "category_ms",
    "lan_ms",
    "wan_ms",
    "wan_dominated",
)


def result_to_dict(result: Union[ExperimentResult, AggregateResult]) -> dict:
    """A JSON-ready dict for one run or one seed-aggregate; a run that
    was observed (``config.obs != "off"``) carries its report under
    ``"obs"``."""
    if isinstance(result, AggregateResult):
        return {
            "name": result.name,
            "kind": "aggregate",
            "seeds": [r.config.seed for r in result.runs],
            "obtaining": dataclasses.asdict(result.obtaining),
            "obtaining_relative_std": result.obtaining.relative_std,
            "inter_messages_per_cs": result.inter_messages_per_cs,
            "messages_per_cs": result.messages_per_cs,
            "cs_count": result.cs_count,
            "runs": [result_to_dict(r) for r in result.runs],
        }
    out = {field: getattr(result, field) for field in _RESULT_FIELDS}
    out.update(
        kind="run",
        config=dataclasses.asdict(result.config),
        obtaining=dataclasses.asdict(result.obtaining),
        obtaining_relative_std=result.obtaining.relative_std,
        inter_messages_per_cs=result.inter_messages_per_cs,
        messages_per_cs=result.messages_per_cs,
        per_cluster={
            str(ci): dataclasses.asdict(stats)
            for ci, stats in result.per_cluster.items()
        },
    )
    if result.obs_report is not None:
        out["obs"] = {f: getattr(result.obs_report, f) for f in _OBS_FIELDS}
    # The hierarchy spec may be nested tuples; JSON wants lists.
    if out["config"].get("hierarchy") is not None:
        out["config"]["hierarchy"] = json.loads(
            json.dumps(out["config"]["hierarchy"])
        )
    return out


def results_to_json(
    results: Iterable[Union[ExperimentResult, AggregateResult]],
) -> str:
    """Serialise results as a JSON array."""
    return json.dumps(
        [result_to_dict(r) for r in results], indent=2, sort_keys=True
    )


def results_to_csv(results: Iterable[ExperimentResult]) -> str:
    """Flat CSV: one row per run with the paper's headline metrics."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "name", "system", "intra", "inter", "platform", "rho", "rho_over_n",
        "seed", "cs_count", "obtaining_mean_ms", "obtaining_std_ms",
        "obtaining_relative_std", "inter_messages_per_cs", "messages_per_cs",
        "sim_time_ms",
    ])
    for r in results:
        c = r.config
        writer.writerow([
            r.name, c.system, c.intra, c.inter, c.platform, c.rho,
            f"{c.rho_over_n:.6g}", c.seed, r.cs_count,
            f"{r.obtaining.mean:.6g}", f"{r.obtaining.std:.6g}",
            f"{r.obtaining.relative_std:.6g}",
            f"{r.inter_messages_per_cs:.6g}", f"{r.messages_per_cs:.6g}",
            f"{r.sim_time_ms:.6g}",
        ])
    return buf.getvalue()


def figure_to_json(data: FigureData) -> str:
    """Serialise one reproduced figure (axes + all series)."""
    return json.dumps(
        {
            "figure_id": data.figure_id,
            "title": data.title,
            "x_label": data.x_label,
            "y_label": data.y_label,
            "xs": list(data.xs),
            "series": {k: list(v) for k, v in data.series.items()},
        },
        indent=2,
        sort_keys=True,
    )


def figure_to_csv(data: FigureData) -> str:
    """Long-format CSV: one row per (curve, x) point."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["figure_id", "curve", data.x_label, data.y_label])
    for label, ys in data.series.items():
        for x, y in zip(data.xs, ys):
            writer.writerow([data.figure_id, label, f"{x:.6g}", f"{y:.6g}"])
    return buf.getvalue()
