"""Experiment parameters (the paper's Table 4, with scale presets).

Table 4 (defaults in bold in the paper):

=========  ===========================================  =========
parameter  values                                       default
=========  ===========================================  =========
``k``      5, 25, **50**, 75, 100                       50
``β``      0.1, 0.2, **0.3**, 0.4, 0.5                  0.3
``N``      100K, 250K, **500K**, 750K, 1000K            500K
``L``      1K, 2.5K, **5K**, 7.5K, 10K                  5K
``|U|``    1M, **2M**, 3M, 4M, 5M                       2M
=========  ===========================================  =========

Pure Python pays a 30–100× constant over the paper's Java/C++ testbed, so
the grids are expressed *relative to a base scale* and four presets are
provided:

* ``TINY``   — seconds per artefact; used by the tests and ``RESULTS.md``.
* ``SMALL``  — the experiments CLI's default.
* ``MEDIUM`` — minutes; closer crossover positions.
* ``PAPER``  — the original absolute numbers (hours in pure Python).

Within a preset every ratio the figures depend on is preserved: ``L/N``,
``N/stream length``, mean response distance/stream length, and the ``k``
and ``β`` grids are kept verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Dict, Tuple

__all__ = ["Scale", "ExperimentConfig", "DATASETS", "make_config"]

#: Dataset names accepted across the harness.
DATASETS: Tuple[str, ...] = ("reddit", "twitter", "syn-o", "syn-n")

#: The paper's β grid (Table 4) — scale independent.
BETA_GRID: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
#: The paper's k grid (Table 4) — scale independent.
K_GRID: Tuple[int, ...] = (5, 25, 50, 75, 100)
#: N grid as multiples of the preset's base window (paper: 0.2x..2x of 500K).
N_FACTORS: Tuple[float, ...] = (0.2, 0.5, 1.0, 1.5, 2.0)
#: L grid as fractions of the window (paper: 1K..10K over N=500K).
L_FRACTIONS: Tuple[float, ...] = (0.002, 0.005, 0.01, 0.015, 0.02)
#: |U| grid as multiples of the preset's base universe (paper: 1M..5M / 2M).
U_FACTORS: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5)


class Scale(Enum):
    """Preset experiment scale."""

    TINY = "tiny"
    SMALL = "small"
    MEDIUM = "medium"
    PAPER = "paper"


#: Base sizes per scale: (users, stream length, window size).
_BASE_SIZES: Dict[Scale, Tuple[int, int, int]] = {
    Scale.TINY: (800, 3_000, 800),
    Scale.SMALL: (2_000, 8_000, 2_000),
    Scale.MEDIUM: (20_000, 100_000, 20_000),
    Scale.PAPER: (2_000_000, 10_000_000, 500_000),
}

#: Default k per scale (paper default 50; smaller presets shrink k so the
#: seed set stays a comparable fraction of the active-user population).
_BASE_K: Dict[Scale, int] = {
    Scale.TINY: 5,
    Scale.SMALL: 10,
    Scale.MEDIUM: 25,
    Scale.PAPER: 50,
}

#: Window/slide ratio per scale.  The paper's default is 100 (N=500K over
#: L=5K); TINY relaxes to 40 so that IC's checkpoint population stays
#: meaningful without making the tests minutes long.
_SLIDE_DIVISOR: Dict[Scale, int] = {
    Scale.TINY: 40,
    Scale.SMALL: 100,
    Scale.MEDIUM: 100,
    Scale.PAPER: 100,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved parameters of one experiment run."""

    dataset: str
    n_users: int
    n_actions: int
    window_size: int
    slide: int
    k: int
    beta: float
    seed: int = 7
    oracle: str = "sieve"

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; expected one of {DATASETS}"
            )
        if self.slide <= 0 or self.window_size <= 0:
            raise ValueError("window size and slide must be positive")
        if self.slide > self.window_size:
            raise ValueError(
                f"slide ({self.slide}) must not exceed window "
                f"({self.window_size})"
            )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def make_config(
    dataset: str = "syn-o",
    scale: Scale = Scale.SMALL,
    **overrides,
) -> ExperimentConfig:
    """Build the default configuration of a preset, with overrides.

    The default slide is 1% of the window (the paper's L=5K over N=500K).
    """
    users, actions, window = _BASE_SIZES[scale]
    config = ExperimentConfig(
        dataset=dataset,
        n_users=users,
        n_actions=actions,
        window_size=window,
        slide=max(1, window // _SLIDE_DIVISOR[scale]),
        k=_BASE_K[scale],
        beta=0.3,
    )
    return config.with_overrides(**overrides) if overrides else config
