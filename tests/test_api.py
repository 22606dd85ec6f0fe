"""The public names of the package: what it exports, and what it does not."""

import importlib
import inspect
import pkgutil

import pytest

import oceval

PUBLIC = [
    "BoundingBox",
    "Detection",
    "GroundTruthInstance",
    "DetectionArrays",
    "GroundTruthArrays",
    "OcCostParams",
    "ImagePlan",
    "ImageEvalResult",
    "DatasetReport",
    "image_oc_cost",
    "dataset_oc_cost",
    "lambda_sweep",
    "MapParams",
    "MapReport",
    "dataset_map",
    "image_maps",
    "NmsParams",
    "TuneResult",
    "nms",
    "default_grid",
    "tune",
    "BootstrapConfig",
    "BootstrapReport",
    "trial_sample",
    "run_bootstrap",
    "DatasetIndex",
    "DetectionSet",
    "SkippedRecordWarning",
    "load_ground_truth",
    "load_detections",
    "detection_inputs",
    "write_report",
    "read_report",
    "FixtureSpec",
    "generate_fixture",
    "OcevalError",
    "ConfigError",
    "ParseError",
    "ValidationError",
    "__version__",
]

# references the tests compare kernels against (tests/oracles.py)
ORACLES = [
    "brute_force_solve",
    "MAX_BRUTE_FORCE_SIDE",
    "area",
    "iou",
    "giou",
    "iou_matrix",
    "localization_cost",
    "classification_cost",
    "unit_cost",
    "unit_cost_matrix",
]

MODULES = [
    importlib.import_module(f"oceval.{info.name}")
    for info in pkgutil.iter_modules(oceval.__path__)
    if not info.name.startswith("_")
]


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC) == 40
    assert oceval.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(oceval, name), name


def test_no_oracle_is_importable_from_the_package():
    for module in [oceval, *MODULES]:
        for name in ORACLES:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_module_export_is_defined_there(module):
    # bench/tracing.py wraps exactly these functions: a stale entry drops a span
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, name
