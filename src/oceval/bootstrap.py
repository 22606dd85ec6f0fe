"""Bootstrap consistency analysis over resampled image subsets.

Each trial draws a multiset of image indices with a counter-based
generator keyed by the seed, on a stream of its own that starts at
counter ``trial * 2**64``, so trial streams are independent of
scheduling and of each other. Every detector is evaluated on the same
multiset within a trial (paired comparison), which isolates ranking
stability from sampling noise. Per-image costs and match tables are
computed once; trials only re-aggregate them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .costs import ImageInput, OcCostParams
from .errors import ConfigError, ValidationError, _check_integer, _check_real
from .map_metric import MapParams, build_match_table, map_from_table
from .occost import check_jobs, dataset_oc_cost

__all__ = [
    "BootstrapConfig",
    "BootstrapReport",
    "trial_sample",
    "run_bootstrap",
]

PERCENTILE_LEVELS = (5, 25, 50, 75, 95)


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling protocol: how many trials, how much of the dataset per
    trial, with or without replacement, and the generator seed."""

    trials: int = 100
    sample_fraction: float = 0.3
    with_replacement: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("trials", self.trials, 1)
        _check_real("sample_fraction", self.sample_fraction, 0, 1, open_low=True)
        _check_integer("seed", self.seed, 0, bits=128)


@dataclass(frozen=True)
class BootstrapReport:
    """Per-trial metric values for one detector plus summary statistics.

    The summary is recomputable from ``values``; ``std`` is the sample
    standard deviation (0 for a single trial).
    """

    detector: str
    metric: str
    values: tuple[float, ...]
    mean: float
    std: float
    percentiles: Mapping[int, float]
    config: BootstrapConfig = field(default_factory=BootstrapConfig)


def sample_size(fraction: float, population: int) -> int:
    """Number of images drawn per trial: ceil(fraction * population), with a
    small backoff so exact products such as 0.3 * 10 do not round up on
    float noise."""
    return max(1, math.ceil(fraction * population - 1e-12))


def trial_sample(config: BootstrapConfig, trial: int, population: int) -> np.ndarray:
    """Image indices drawn for one trial.

    The generator is counter-based: the key is the seed and the trial
    number fills the counter's upper three 64-bit words. Philox counts its
    blocks in the lowest word, so every trial owns 2**64 blocks of its
    own, no trial's draws overlap another's, any trial can be drawn
    independently and the result never depends on evaluation order.
    """
    _check_integer("population", population, 1)
    _check_integer("trial", trial, 0, bits=192)
    rng = np.random.Generator(np.random.Philox(key=config.seed, counter=int(trial) << 64))
    k = sample_size(config.sample_fraction, population)
    if config.with_replacement:
        return rng.integers(0, population, size=k, dtype=np.int64)
    return rng.permutation(population)[:k].astype(np.int64)


def _summarize(values: Sequence[float]) -> tuple[float, float, dict[int, float]]:
    mean = math.fsum(values) / len(values)
    if len(values) > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    levels = np.percentile(np.asarray(values, dtype=np.float64), PERCENTILE_LEVELS)
    percentiles = {p: float(v) for p, v in zip(PERCENTILE_LEVELS, levels)}
    return mean, std, percentiles


def run_bootstrap(
    detectors: Sequence[tuple[str, Sequence[ImageInput]]],
    metric: str = "oc-cost",
    config: BootstrapConfig | None = None,
    *,
    oc_params: OcCostParams | None = None,
    map_params: MapParams | None = None,
    jobs: int = 1,
) -> list[BootstrapReport]:
    """Evaluate each detector on the same resampled subsets.

    ``detectors`` pairs a name with per-image inputs; all detectors must
    cover the same images in the same order. ``jobs`` parallelizes the
    one-time per-image OC-cost precomputation (the mAP metric runs in one
    process) and never changes any output value.
    """
    if metric not in ("oc-cost", "map"):
        raise ConfigError(f"metric must be 'oc-cost' or 'map', got {metric!r}")
    check_jobs(jobs)
    config = config or BootstrapConfig()
    if not detectors:
        raise ValidationError("at least one detector is required")

    reference_ids = [image_id for image_id, _, _ in detectors[0][1]]
    if not reference_ids:
        raise ValidationError("cannot bootstrap an empty dataset")
    for name, inputs in detectors[1:]:
        ids = [image_id for image_id, _, _ in inputs]
        if ids != reference_ids:
            raise ValidationError(
                f"detector {name!r} covers different images than {detectors[0][0]!r}"
            )

    population = len(reference_ids)
    samples = [trial_sample(config, trial, population) for trial in range(config.trials)]

    reports: list[BootstrapReport] = []
    for name, inputs in detectors:
        if metric == "oc-cost":
            full = dataset_oc_cost(inputs, oc_params or OcCostParams(), jobs=jobs)
            per_image = [r.oc_cost for r in full.per_image]
            values = [
                math.fsum(per_image[i] for i in sample) / len(sample) for sample in samples
            ]
        else:
            table = build_match_table(inputs, map_params or MapParams())
            values = [map_from_table(table, sample).mean_ap for sample in samples]
        mean, std, percentiles = _summarize(values)
        reports.append(
            BootstrapReport(
                detector=name,
                metric=metric,
                values=tuple(values),
                mean=mean,
                std=std,
                percentiles=percentiles,
                config=config,
            )
        )
    return reports
