"""Detection evaluation via per-image optimal correction cost.

The core metric treats evaluation as a correction problem: detections
are transported onto ground truths (or onto a dummy endpoint priced at
a fixed cost) by an exact solver, and the image's score is the
normalized cost of the optimal plan. A classical mAP implementation,
an NMS threshold tuner, bootstrap consistency analysis, COCO-format
I/O, and a CLI are included.
"""

from .bootstrap import BootstrapConfig, BootstrapReport, run_bootstrap, trial_sample
from .coco_io import (
    DatasetIndex,
    DetectionSet,
    SkippedRecordWarning,
    detection_inputs,
    load_detections,
    load_ground_truth,
    read_report,
    write_report,
)
from .costs import (
    CostMatrix,
    Detection,
    GroundTruthInstance,
    OcCostParams,
    build_problem,
    classification_cost,
    localization_cost,
    unit_cost,
)
from .errors import ConfigError, OcevalError, ParseError, ValidationError
from .fixtures import FixtureSpec, generate_fixture
from .geometry import BoundingBox, area, giou, iou, pairwise_giou, pairwise_iou
from .map_metric import (
    MapParams,
    MapReport,
    average_precision,
    dataset_map,
    image_maps,
    match_greedy,
    single_image_map,
)
from .nms import NmsParams, TuneResult, default_grid, nms, tune
from .occost import (
    DatasetReport,
    ImageEvalResult,
    PairCost,
    dataset_oc_cost,
    image_oc_cost,
    lambda_sweep,
)
from .transport import TransportPlan, brute_force_solve, solve

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "area",
    "iou",
    "giou",
    "pairwise_iou",
    "pairwise_giou",
    "Detection",
    "GroundTruthInstance",
    "OcCostParams",
    "CostMatrix",
    "localization_cost",
    "classification_cost",
    "unit_cost",
    "build_problem",
    "TransportPlan",
    "solve",
    "brute_force_solve",
    "PairCost",
    "ImageEvalResult",
    "DatasetReport",
    "image_oc_cost",
    "dataset_oc_cost",
    "lambda_sweep",
    "MapParams",
    "MapReport",
    "match_greedy",
    "average_precision",
    "dataset_map",
    "single_image_map",
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
