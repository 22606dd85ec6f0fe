import math
import re

import numpy as np
import pytest

from oceval import (
    BootstrapConfig,
    BoundingBox,
    ConfigError,
    Detection,
    GroundTruthInstance,
    OcCostParams,
    ValidationError,
    dataset_map,
    dataset_oc_cost,
    run_bootstrap,
    trial_sample,
)

BOX = BoundingBox(0, 0, 10, 10)


def scene(score, image_id):
    return (image_id, [Detection(BOX, 1, score)], [GroundTruthInstance(BOX, 1)])


def varied_inputs(rng, count=10):
    inputs = []
    for image_id in range(count):
        score = float(rng.uniform(0.2, 1.0))
        inputs.append(scene(score, image_id))
    return inputs


def test_every_trial_number_draws_its_own_sample():
    # the trial fills the counter's upper three words as an integer: trials
    # from 2**63 on are not rounded through a float, so neighbours draw apart
    config = BootstrapConfig(sample_fraction=1.0, with_replacement=True)
    for trial in (2**63, 2**64 - 2, 2**192 - 2):
        assert not np.array_equal(trial_sample(config, trial, 1000), trial_sample(config, trial + 1, 1000))
    rng = np.random.Generator(np.random.Philox(key=0, counter=[0, 5, 0, 0]))
    assert np.array_equal(trial_sample(config, 5, 1000), rng.integers(0, 1000, size=1000, dtype=np.int64))


def test_no_trial_is_a_shifted_copy_of_its_neighbour():
    # Philox counts its blocks in the counter's lowest word; with the trial
    # there, trial t + 1 replayed trial t's draws one block later
    config = BootstrapConfig(100, 0.3, True, 0)
    for trial in (0, 1, 2**64 - 1):
        a, b = trial_sample(config, trial, 5000), trial_sample(config, trial + 1, 5000)
        for shift in range(1, 65):
            assert not np.array_equal(b[:-shift], a[shift:])
            assert not np.array_equal(a[:-shift], b[shift:])


def test_trial_means_spread_as_independent_samples_do():
    # the mean of k = 1500 draws with replacement from a population of
    # spread sigma has spread sigma / sqrt(k); 100 trials estimate it to
    # about 7% (one standard error)
    values = np.random.default_rng(0).uniform(size=5000)
    config = BootstrapConfig(100, 0.3, True, 0)
    means = [values[trial_sample(config, trial, 5000)].mean() for trial in range(100)]
    expected = values.std() / math.sqrt(1500)
    assert 0.75 < np.std(means, ddof=1) / expected < 1.25


def test_config_validation():
    with pytest.raises(ConfigError):
        BootstrapConfig(trials=0)
    with pytest.raises(ConfigError):
        BootstrapConfig(sample_fraction=0.0)
    with pytest.raises(ConfigError):
        BootstrapConfig(sample_fraction=1.2)
    for seed in (-1, 2**128):
        with pytest.raises(ConfigError):
            BootstrapConfig(seed=seed)
    with pytest.raises(ConfigError, match=re.escape("seed must be an integer, got 1.5")):
        BootstrapConfig(seed=1.5)
    with pytest.raises(ConfigError, match=re.escape("trials must be an integer, got 2.5")):
        BootstrapConfig(trials=2.5)
    with pytest.raises(ConfigError, match=re.escape("population must be >= 1, got 0")):
        trial_sample(BootstrapConfig(), 0, 0)
    with pytest.raises(ConfigError, match=re.escape("trial must be >= 0, got -1")):
        trial_sample(BootstrapConfig(), -1, 10)
    assert len(trial_sample(BootstrapConfig(seed=2**128 - 1), 0, 10)) == 3
    cfg = BootstrapConfig()
    assert cfg.trials == 100
    assert cfg.sample_fraction == 0.3
    assert cfg.with_replacement


def test_trial_sample_deterministic_per_trial():
    cfg = BootstrapConfig(trials=10, seed=99)
    a = trial_sample(cfg, 3, 50)
    b = trial_sample(cfg, 3, 50)
    c = trial_sample(cfg, 4, 50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < 50
    assert len(a) == 15


def test_sample_size_exact_products():
    from oceval.bootstrap import sample_size

    assert sample_size(0.3, 10) == 3
    assert sample_size(1.0, 7) == 7
    assert sample_size(0.3, 7) == 3
    assert sample_size(0.5, 5) == 3


def test_without_replacement_draws_distinct():
    cfg = BootstrapConfig(trials=1, sample_fraction=0.5, with_replacement=False, seed=1)
    sample = trial_sample(cfg, 0, 20)
    assert len(set(sample.tolist())) == len(sample) == 10


def test_degenerate_config_equals_full_dataset(rng):
    inputs = varied_inputs(rng)
    cfg = BootstrapConfig(trials=1, sample_fraction=1.0, with_replacement=False, seed=5)
    reports = run_bootstrap([("d", inputs)], "oc-cost", cfg)
    full = dataset_oc_cost(inputs, OcCostParams()).mean_oc_cost
    assert reports[0].values[0] == full
    assert reports[0].mean == full
    assert reports[0].std == 0.0

    map_reports = run_bootstrap([("d", inputs)], "map", cfg)
    assert map_reports[0].values[0] == dataset_map(inputs).mean_ap


def test_runs_are_bit_identical(rng):
    inputs = varied_inputs(rng)
    cfg = BootstrapConfig(trials=20, seed=7)
    first = run_bootstrap([("d", inputs)], "oc-cost", cfg)
    second = run_bootstrap([("d", inputs)], "oc-cost", cfg)
    assert first[0].values == second[0].values
    assert first[0].percentiles == second[0].percentiles

    parallel = run_bootstrap([("d", inputs)], "oc-cost", cfg, jobs=4)
    assert parallel[0].values == first[0].values


def test_paired_sampling_dominance():
    # detector a is strictly better on every image, so every paired trial
    # must rank it lower
    better = []
    worse = []
    for image_id in range(12):
        better.append(scene(1.0, image_id))
        worse.append(scene(0.5, image_id))
    cfg = BootstrapConfig(trials=50, seed=3)
    rep_a, rep_b = run_bootstrap([("a", better), ("b", worse)], "oc-cost", cfg)
    assert all(va < vb for va, vb in zip(rep_a.values, rep_b.values))


def test_statistics_recomputable():
    inputs = [scene(0.9, i) for i in range(6)] + [scene(0.4, i) for i in range(6, 12)]
    cfg = BootstrapConfig(trials=30, seed=11)
    rep = run_bootstrap([("d", inputs)], "oc-cost", cfg)[0]
    values = rep.values
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert abs(rep.mean - mean) < 1e-12
    assert abs(rep.std - math.sqrt(var)) < 1e-12
    levels = np.percentile(np.asarray(values), [5, 25, 50, 75, 95])
    for level, expected in zip((5, 25, 50, 75, 95), levels):
        assert abs(rep.percentiles[level] - float(expected)) < 1e-12


def test_mismatched_coverage_rejected():
    a = [scene(0.9, 1), scene(0.9, 2)]
    b = [scene(0.9, 1), scene(0.9, 3)]
    with pytest.raises(ValidationError):
        run_bootstrap([("a", a), ("b", b)], "oc-cost", BootstrapConfig(trials=1))


def test_metric_validation():
    with pytest.raises(ConfigError):
        run_bootstrap([("a", [scene(0.9, 1)])], "accuracy", BootstrapConfig())
    with pytest.raises(ValidationError):
        run_bootstrap([], "oc-cost", BootstrapConfig())
    with pytest.raises(ValidationError):
        run_bootstrap([("a", [])], "oc-cost", BootstrapConfig())
