"""Experiment registry: id -> driver, for the runner and the engine."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.experiments.base import Experiment
from repro.experiments.exp_table1 import EXPERIMENT as TABLE1
from repro.experiments.exp_table2 import EXPERIMENT as TABLE2
from repro.experiments.exp_table3 import EXPERIMENT as TABLE3
from repro.experiments.exp_table4 import EXPERIMENT as TABLE4
from repro.experiments.exp_fig1 import EXPERIMENT as FIG1
from repro.experiments.exp_fig2 import EXPERIMENT as FIG2
from repro.experiments.exp_fig3 import EXPERIMENT as FIG3
from repro.experiments.exp_fig4 import EXPERIMENT as FIG4
from repro.experiments.exp_fig5 import EXPERIMENT as FIG5
from repro.experiments.exp_validation import EXPERIMENT as VALIDATION
from repro.experiments.exp_endurance import EXPERIMENT as ENDURANCE
from repro.experiments.exp_async_cleaning import EXPERIMENT as ASYNC_CLEANING
from repro.experiments.exp_headline import EXPERIMENT as HEADLINE
from repro.experiments.exp_ablation_cleaner import EXPERIMENT as ABLATION_CLEANER
from repro.experiments.exp_ablation_segment import EXPERIMENT as ABLATION_SEGMENT
from repro.experiments.exp_ablation_spindown import EXPERIMENT as ABLATION_SPINDOWN
from repro.experiments.exp_ablation_writeback import EXPERIMENT as ABLATION_WRITEBACK
from repro.experiments.exp_ablation_series2plus import (
    EXPERIMENT as ABLATION_SERIES2PLUS,
)
from repro.experiments.exp_ablation_flash_sram import (
    EXPERIMENT as ABLATION_FLASH_SRAM,
)
from repro.experiments.exp_ablation_leveling import EXPERIMENT as ABLATION_LEVELING
from repro.experiments.exp_flashcache import EXPERIMENT as FLASHCACHE
from repro.experiments.exp_fault_tolerance import EXPERIMENT as FAULT_TOLERANCE
from repro.experiments.exp_fitted_replay import EXPERIMENT as FITTED_REPLAY
from repro.fleet.experiment import EXPERIMENT as FLEET

_EXPERIMENTS: dict[str, Experiment] = {
    experiment.experiment_id: experiment
    for experiment in (
        TABLE1,
        TABLE2,
        TABLE3,
        TABLE4,
        FIG1,
        FIG2,
        FIG3,
        FIG4,
        FIG5,
        VALIDATION,
        ENDURANCE,
        ASYNC_CLEANING,
        HEADLINE,
        ABLATION_CLEANER,
        ABLATION_SEGMENT,
        ABLATION_SPINDOWN,
        ABLATION_WRITEBACK,
        ABLATION_SERIES2PLUS,
        ABLATION_FLASH_SRAM,
        ABLATION_LEVELING,
        FLASHCACHE,
        FAULT_TOLERANCE,
        FITTED_REPLAY,
        FLEET,
    )
}


def all_experiments() -> dict[str, Experiment]:
    """All registered experiments, keyed by id."""
    return dict(_EXPERIMENTS)


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment driver by id."""
    try:
        return _EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(_EXPERIMENTS)}"
        ) from None
