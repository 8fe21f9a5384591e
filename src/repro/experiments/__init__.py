"""Experiment harness: configurations, runner, figure generators, CLI."""

from .config import ExperimentConfig
from .export import (
    figure_to_csv,
    figure_to_json,
    result_to_dict,
    results_to_csv,
    results_to_json,
)
from .figures import (
    ALL_FIGURES,
    PAPER_SCALE,
    QUICK_SCALE,
    FigureData,
    FigureScale,
    clear_sweep_memo,
    fig4a,
    fig4b,
    fig5a,
    fig5b,
    fig6a,
    fig6b,
    scale_from_env,
)
from .runner import (
    AggregateResult,
    ExperimentResult,
    ExperimentRun,
    run_composition,
    run_experiment,
    run_flat,
    run_many,
)
from .parallel import run_configs_cached, stream_configs_cached
from .scalability import ScalabilityPoint, scalability_study
from .suites import reproduce_all
from .theory import (
    ALGORITHM_MODELS,
    expected_messages_per_cs,
    expected_obtaining_high_parallelism,
    mean_inter_coordinator_delay,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "AggregateResult",
    "ExperimentRun",
    "run_experiment",
    "run_many",
    "run_composition",
    "run_flat",
    "FigureScale",
    "FigureData",
    "QUICK_SCALE",
    "PAPER_SCALE",
    "scale_from_env",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig6a",
    "fig6b",
    "ALL_FIGURES",
    "ScalabilityPoint",
    "scalability_study",
    "result_to_dict",
    "results_to_json",
    "results_to_csv",
    "figure_to_json",
    "figure_to_csv",
    "reproduce_all",
    "run_configs_cached",
    "stream_configs_cached",
    "clear_sweep_memo",
    "ALGORITHM_MODELS",
    "expected_messages_per_cs",
    "expected_obtaining_high_parallelism",
    "mean_inter_coordinator_delay",
]
