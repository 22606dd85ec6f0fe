"""One contract for every numeric setting: an integer setting takes a
Python or numpy integer, never a bool or a float, and a real setting an
int or a float, never a bool or NaN; a value past a bound, or of any
other type, is a ``ConfigError`` naming the setting."""

import math
from collections.abc import Sequence

import numpy as np
import pytest

from oceval import (
    BootstrapConfig,
    BoundingBox,
    ConfigError,
    Detection,
    FixtureSpec,
    GroundTruthInstance,
    MapParams,
    NmsParams,
    OcCostParams,
    dataset_oc_cost,
    lambda_sweep,
    read_report,
    run_bootstrap,
    trial_sample,
    tune,
    write_report,
)
from oceval.coco_io import bootstrap_payload, report_payload
from oceval.occost import check_jobs

# (owner.setting, the call that takes it, floor, bits: the value must be below 2**bits)
INTEGERS = [
    ("MapParams.recall_points", lambda v: MapParams(recall_points=v), 2, None),
    ("MapParams.max_detections", lambda v: MapParams(max_detections=v), 1, None),
    ("BootstrapConfig.trials", lambda v: BootstrapConfig(trials=v), 1, None),
    ("BootstrapConfig.seed", lambda v: BootstrapConfig(seed=v), 0, 128),
    ("trial_sample.trial", lambda v: trial_sample(BootstrapConfig(), v, 10), 0, 192),
    ("trial_sample.population", lambda v: trial_sample(BootstrapConfig(), 0, v), 1, None),
    ("FixtureSpec.images", lambda v: FixtureSpec(images=v), 1, None),
    ("FixtureSpec.gts_per_image", lambda v: FixtureSpec(gts_per_image=v), 0, None),
    ("FixtureSpec.noise_per_image", lambda v: FixtureSpec(noise_per_image=v), 0, None),
    ("FixtureSpec.categories", lambda v: FixtureSpec(categories=v), 1, None),
    ("FixtureSpec.image_size", lambda v: FixtureSpec(image_size=v), 64, None),
    ("FixtureSpec.seed", lambda v: FixtureSpec(seed=v), 0, 128),
    ("check_jobs.jobs", check_jobs, 1, None),
]

# (owner.setting, the call that takes it, lo, hi, whether lo itself is outside)
REALS = [
    ("OcCostParams.loc_weight", lambda v: OcCostParams(loc_weight=v), 0, 1, False),
    ("OcCostParams.dummy_cost", lambda v: OcCostParams(dummy_cost=v), 0, 1, False),
    ("NmsParams.score_threshold", lambda v: NmsParams(score_threshold=v), 0, 1, False),
    ("NmsParams.iou_threshold", lambda v: NmsParams(iou_threshold=v), 0, 1, False),
    ("MapParams.iou_thresholds[0]", lambda v: MapParams(iou_thresholds=(v,)), 0, 1, True),
    ("BootstrapConfig.sample_fraction", lambda v: BootstrapConfig(sample_fraction=v), 0, 1, True),
    ("FixtureSpec.jitter", lambda v: FixtureSpec(jitter=v), 0, 0.1, False),
    ("FixtureSpec.det_score", lambda v: FixtureSpec(det_score=v), 0, 1, False),
    ("FixtureSpec.noise_score", lambda v: FixtureSpec(noise_score=v), 0, 1, False),
]


def _rejects(setting, call, value):
    with pytest.raises(ConfigError) as caught:
        call(value)
    assert str(caught.value).startswith(f"{setting.split('.')[-1]} must be ")


@pytest.mark.parametrize(("setting", "call", "floor", "bits"), INTEGERS, ids=[s[0] for s in INTEGERS])
def test_integer_settings(setting, call, floor, bits):
    for value in (True, False, 1.5, 2.0, float(floor), "3", floor - 1, np.int64(floor - 1)):
        _rejects(setting, call, value)
    if bits is not None:
        _rejects(setting, call, 2**bits)
        call(2**bits - 1)
    for value in (floor, floor + 1, np.int64(floor), np.int32(floor + 1)):
        call(value)


@pytest.mark.parametrize(("setting", "call", "lo", "hi", "open_low"), REALS, ids=[s[0] for s in REALS])
def test_real_settings(setting, call, lo, hi, open_low):
    bad = [True, False, "0.05", math.nan, np.float64(math.nan), math.inf, -math.inf,
           lo - 0.01, hi + 0.01, np.float64(hi + 0.01)]
    for value in bad + ([lo, np.int64(lo)] if open_low else []):
        _rejects(setting, call, value)
    mid = (lo + hi) / 2
    ints = [hi, np.int64(hi)] if open_low else [lo, np.int64(lo)]
    for value in [mid, np.float64(mid), np.float32(mid), hi, *ints]:
        call(value)


class Unread(Sequence):
    """Per-image inputs that fail the test when anything reads them."""

    def __len__(self):
        raise AssertionError("the inputs were read before jobs was checked")

    def __getitem__(self, i):
        raise AssertionError("the inputs were read before jobs was checked")


ENTRY_POINTS = {
    "dataset_oc_cost": lambda inputs, jobs: dataset_oc_cost(inputs, OcCostParams(), jobs=jobs),
    "lambda_sweep": lambda inputs, jobs: lambda_sweep(inputs, [0.5], 0.6, jobs=jobs),
    "tune oc-cost": lambda inputs, jobs: tune(inputs, "oc-cost", jobs=jobs),
    "tune map": lambda inputs, jobs: tune(inputs, "map", jobs=jobs),
    "run_bootstrap oc-cost": lambda inputs, jobs: run_bootstrap([("d", inputs)], "oc-cost", jobs=jobs),
    "run_bootstrap map": lambda inputs, jobs: run_bootstrap([("d", inputs)], "map", jobs=jobs),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("jobs", [2.0, True, 0, "2"])
def test_jobs_is_checked_before_any_work(entry, jobs, count_pools):
    with pytest.raises(ConfigError, match="^jobs must be "):
        ENTRY_POINTS[entry](Unread(), jobs)
    assert count_pools() == 0


BOX = BoundingBox(0, 0, 10, 10)
INPUTS = [(i, [Detection(BOX, 1, 0.5)], [GroundTruthInstance(BOX, 1 + i % 2)]) for i in range(3)]


def test_numpy_jobs_forks_as_an_int_does(count_pools):
    serial = dataset_oc_cost(INPUTS, OcCostParams())
    assert dataset_oc_cost(INPUTS, OcCostParams(), jobs=np.int64(2)) == serial
    assert count_pools() == 1


def test_numpy_settings_reach_the_written_report(tmp_path):
    path = str(tmp_path / "report.json")
    config = BootstrapConfig(trials=np.int64(2), seed=np.int64(3))
    reports = run_bootstrap([("d", INPUTS)], config=config)
    assert reports[0].values == run_bootstrap([("d", INPUTS)], config=BootstrapConfig(trials=2, seed=3))[0].values
    write_report(bootstrap_payload(reports), path)
    assert read_report(path)["detectors"][0]["config"]["seed"] == 3
    write_report(report_payload(dataset_oc_cost(INPUTS, OcCostParams(np.int64(1), np.float32(0.5)))), path)
    assert read_report(path)["params"] == {"lambda": 1, "beta": 0.5}
