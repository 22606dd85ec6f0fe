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
    DetectionArrays,
    GroundTruthArrays,
    GroundTruthInstance,
    OcCostParams,
    build_problem,
)
from .errors import ConfigError, OcevalError, ParseError, ValidationError
from .fixtures import FixtureSpec, generate_fixture
from .geometry import BoundingBox, pairwise_giou
from .map_metric import (
    MapParams,
    MapReport,
    dataset_map,
    image_maps,
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
from .transport import TransportPlan, solve

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "pairwise_giou",
    "Detection",
    "GroundTruthInstance",
    "DetectionArrays",
    "GroundTruthArrays",
    "OcCostParams",
    "CostMatrix",
    "build_problem",
    "TransportPlan",
    "solve",
    "PairCost",
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
