"""Command-line interface.

Subcommands: evaluate, bootstrap, sweep-lambda, tune-nms, gen-fixture.

Settings resolve in precedence order: command-line flag, then
environment variable (OCEVAL_<NAME>), then config file key (--config,
flat key=value lines), then built-in default. File paths are flags
only. Exit codes: 0 success, 2 usage error, 3 parse error, 4 validation
error, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Sequence
from typing import Any

from .bootstrap import BootstrapConfig, run_bootstrap
from .coco_io import (
    detection_inputs,
    histogram_payload,
    load_detections,
    load_ground_truth,
    report_payload,
    sweep_payload,
    write_report,
)
from .costs import ImageInput, OcCostParams
from .errors import ConfigError, OcevalError, ParseError, ValidationError
from .fixtures import FixtureSpec, generate_fixture
from .map_metric import MapParams, build_match_table, image_maps, map_from_table
from .nms import default_grid, nms, tune
from .occost import dataset_oc_cost, lambda_sweep

__all__ = ["main", "build_parser"]

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def read_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored; keys are
    normalized to underscores."""
    settings: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                settings[key.strip().replace("-", "_").lower()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    return settings


def _parse_scalar(text: str, kind: str, source: str) -> Any:
    try:
        if kind == "float":
            return float(text)
        if kind == "int":
            return int(text)
        if kind == "floats":
            return [float(part) for part in text.split(",") if part.strip() != ""]
        if kind == "bool":
            word = text.strip().lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return text
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def resolve(
    args: argparse.Namespace,
    config: dict[str, str],
    name: str,
    default: Any,
    kind: str = "str",
) -> Any:
    """Flag > OCEVAL_ environment variable > config file > default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    key = name.rstrip("_")
    env_key = "OCEVAL_" + key.upper()
    env = os.environ.get(env_key)
    if env is not None:
        return _parse_scalar(env, kind, f"environment variable {env_key}")
    if key in config:
        return _parse_scalar(config[key], kind, f"config file key {key}")
    return default


def _floats_arg(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cost_params(args: argparse.Namespace, config: dict[str, str]) -> OcCostParams:
    return OcCostParams(
        loc_weight=resolve(args, config, "lambda_", 0.5, "float"),
        dummy_cost=resolve(args, config, "beta", 0.6, "float"),
    )


def _load_inputs(
    args: argparse.Namespace, config: dict[str, str], dt_paths: Sequence[str]
) -> list[list[ImageInput]]:
    """Per-image inputs of each detection file, against one load of the
    ground truth."""
    strict = resolve(args, config, "strict", True, "bool")
    include_crowd = resolve(args, config, "include_crowd", False, "bool")
    index = load_ground_truth(args.gt, strict=strict)
    return [
        detection_inputs(
            index, load_detections(path, index, strict=strict), include_crowd=include_crowd
        )
        for path in dt_paths
    ]


def _output_format(args: argparse.Namespace, config: dict[str, str]) -> str:
    fmt = resolve(args, config, "format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
    return fmt


def cmd_evaluate(args: argparse.Namespace, config: dict[str, str]) -> int:
    params = _cost_params(args, config)
    jobs = resolve(args, config, "jobs", 1, "int")
    with_map = resolve(args, config, "with_map", False, "bool")
    (inputs,) = _load_inputs(args, config, [args.dt])

    report = dataset_oc_cost(inputs, params, jobs=jobs)
    print(f"mean_oc_cost {report.mean_oc_cost:.6f}")

    per_image_map = None
    if with_map:
        table = build_match_table(inputs, MapParams())
        map_report = map_from_table(table, range(len(inputs)))
        print(f"mean_ap {map_report.mean_ap:.6f}")
        per_image_map = dict(zip((image_id for image_id, _, _ in inputs), image_maps(table)))

    if args.out:
        payload = report_payload(report, per_image_map)
        if with_map:
            payload["mean_ap"] = map_report.mean_ap
        write_report(payload, args.out, _output_format(args, config))
    return 0


def cmd_sweep_lambda(args: argparse.Namespace, config: dict[str, str]) -> int:
    beta = resolve(args, config, "beta", 0.6, "float")
    jobs = resolve(args, config, "jobs", 1, "int")
    lambdas = resolve(args, config, "lambdas", [0.0, 0.25, 0.5, 0.75, 1.0], "floats")
    (inputs,) = _load_inputs(args, config, [args.dt])

    rows = lambda_sweep(inputs, lambdas, beta, jobs=jobs)
    for lam, value in rows:
        print(f"lambda {lam:g} mean_oc_cost {value:.6f}")
    if args.out:
        write_report(sweep_payload(rows, beta), args.out, _output_format(args, config))
    return 0


def cmd_bootstrap(args: argparse.Namespace, config: dict[str, str]) -> int:
    jobs = resolve(args, config, "jobs", 1, "int")
    metric = resolve(args, config, "metric", "oc-cost")
    bconfig = BootstrapConfig(
        trials=resolve(args, config, "trials", 100, "int"),
        sample_fraction=resolve(args, config, "sample_fraction", 0.3, "float"),
        with_replacement=resolve(args, config, "with_replacement", True, "bool"),
        seed=resolve(args, config, "seed", 0, "int"),
    )
    params = _cost_params(args, config)

    names = []
    seen: dict[str, int] = {}
    for path in args.dt:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in seen:
            seen[name] += 1
            name = f"{name}_{seen[name]}"
        else:
            seen[name] = 0
        names.append(name)
    detectors = list(zip(names, _load_inputs(args, config, args.dt)))

    reports = run_bootstrap(detectors, metric, bconfig, oc_params=params, jobs=jobs)
    for rep in reports:
        print(f"detector {rep.detector} mean {rep.mean:.6f} std {rep.std:.6f}")
    if args.out:
        write_report(reports, args.out, _output_format(args, config))
    return 0


def cmd_tune_nms(args: argparse.Namespace, config: dict[str, str]) -> int:
    params = _cost_params(args, config)
    jobs = resolve(args, config, "jobs", 1, "int")
    objective = resolve(args, config, "objective", "oc-cost")
    score_thresholds = resolve(args, config, "score_thresholds", None, "floats")
    iou_thresholds = resolve(args, config, "iou_thresholds", None, "floats")
    (inputs,) = _load_inputs(args, config, [args.dt])

    grid = default_grid(score_thresholds, iou_thresholds)
    result = tune(inputs, objective, grid, oc_params=params, jobs=jobs)
    print(
        f"best score_threshold {result.best_params.score_threshold:g} "
        f"iou_threshold {result.best_params.iou_threshold:g} "
        f"{result.objective_kind} {result.objective_value:.6f}"
    )
    if args.out:
        write_report(result, args.out, _output_format(args, config))

    if args.emit_count_histogram:
        gt_counts = [len(gts) for _, _, gts in inputs]
        before = [len(dets) for _, dets, _ in inputs]
        after = [len(nms(dets, result.best_params)) for _, dets, _ in inputs]
        payload = histogram_payload(gt_counts, before, after)
        print(f"gt_count_mean {payload['gt_mean']:.6f}")
        write_report(payload, args.emit_count_histogram, _output_format(args, config))
    return 0


def cmd_gen_fixture(args: argparse.Namespace, config: dict[str, str]) -> int:
    spec = FixtureSpec(
        images=resolve(args, config, "images", 10, "int"),
        gts_per_image=resolve(args, config, "gts_per_image", 7, "int"),
        categories=resolve(args, config, "categories", 3, "int"),
        image_size=resolve(args, config, "image_size", 640, "int"),
        det_score=resolve(args, config, "det_score", 0.9, "float"),
        jitter=resolve(args, config, "jitter", 0.05, "float"),
        noise_per_image=resolve(args, config, "noise_per_image", 0, "int"),
        noise_score=resolve(args, config, "noise_score", 0.1, "float"),
        seed=resolve(args, config, "seed", 0, "int"),
    )
    gt_doc, det_records = generate_fixture(spec)
    try:
        with open(args.gt_out, "w", encoding="utf-8") as handle:
            json.dump(gt_doc, handle)
        with open(args.dt_out, "w", encoding="utf-8") as handle:
            json.dump(det_records, handle)
    except OSError as exc:
        raise ParseError(f"cannot write fixture: {exc}") from exc
    print(
        f"images {spec.images} annotations {len(gt_doc['annotations'])} "
        f"detections {len(det_records)}"
    )
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", help="key=value settings file")


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gt", required=True, help="COCO instances JSON")
    strictness = parser.add_mutually_exclusive_group()
    strictness.add_argument("--strict", dest="strict", action="store_true", default=None)
    strictness.add_argument("--lenient", dest="strict", action="store_false")
    parser.add_argument(
        "--include-crowd", dest="include_crowd", action="store_true", default=None
    )


def _add_cost(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lambda", dest="lambda_", metavar="WEIGHT", type=float, default=None,
        help="localization weight in the unit cost",
    )
    parser.add_argument(
        "--beta", type=float, default=None, help="dummy correction cost"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oceval",
        description="Image-level detection evaluation via optimal correction cost",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="mean OC-cost of one detector")
    _add_data(p)
    _add_cost(p)
    _add_common(p)
    p.add_argument("--dt", required=True, help="COCO results JSON")
    p.add_argument("--with-map", dest="with_map", action="store_true", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bootstrap", help="resampled metric distributions per detector")
    _add_data(p)
    _add_cost(p)
    _add_common(p)
    p.add_argument("--dt", action="append", required=True, help="one per detector")
    p.add_argument("--metric", choices=("oc-cost", "map"), default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--sample-fraction", dest="sample_fraction", type=float, default=None)
    replacement = p.add_mutually_exclusive_group()
    replacement.add_argument(
        "--with-replacement", dest="with_replacement", action="store_true", default=None
    )
    replacement.add_argument(
        "--no-replacement", dest="with_replacement", action="store_false"
    )
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("sweep-lambda", help="mean OC-cost over localization weights")
    _add_data(p)
    _add_cost(p)
    _add_common(p)
    p.add_argument("--dt", required=True)
    p.add_argument("--lambdas", type=_floats_arg, default=None)
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("tune-nms", help="grid-search NMS thresholds")
    _add_data(p)
    _add_cost(p)
    _add_common(p)
    p.add_argument("--dt", required=True)
    p.add_argument("--objective", choices=("oc-cost", "map"), default=None)
    p.add_argument(
        "--score-thresholds", dest="score_thresholds", type=_floats_arg, default=None
    )
    p.add_argument(
        "--iou-thresholds", dest="iou_thresholds", type=_floats_arg, default=None
    )
    p.add_argument("--emit-count-histogram", help="write detection-count histogram here")
    p.set_defaults(func=cmd_tune_nms)

    p = sub.add_parser("gen-fixture", help="generate a synthetic COCO dataset")
    _add_common(p)
    p.add_argument("--gt-out", required=True)
    p.add_argument("--dt-out", required=True)
    p.add_argument("--images", type=int, default=None)
    p.add_argument("--gts-per-image", dest="gts_per_image", type=int, default=None)
    p.add_argument("--categories", type=int, default=None)
    p.add_argument("--image-size", dest="image_size", type=int, default=None)
    p.add_argument("--det-score", dest="det_score", type=float, default=None)
    p.add_argument("--jitter", type=float, default=None)
    p.add_argument("--noise-per-image", dest="noise_per_image", type=int, default=None)
    p.add_argument("--noise-score", dest="noise_score", type=float, default=None)
    p.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = read_config(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 4
    except OcevalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
