"""Command-line interface.

Subcommands: evaluate, bootstrap, sweep-lambda, tune-nms, gen-fixture.

Settings resolve in precedence order: command-line flag, then
environment variable (OCEVAL_<NAME>), then config file key (--config,
flat key=value lines), then the library's default: a setting that none
of them sets is not passed on. File paths are flags only. Exit codes: 0
success, 2 usage error, 3 parse error, 4 validation error, 5 internal
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import fields
from typing import Any, get_type_hints

from .bootstrap import BootstrapConfig, run_bootstrap
from .coco_io import (
    bootstrap_payload,
    detection_inputs,
    histogram_payload,
    load_detections,
    load_ground_truth,
    report_payload,
    sweep_payload,
    tune_payload,
    write_report,
)
from .costs import ImageInput, OcCostParams
from .errors import ConfigError, OcevalError, ParseError, ValidationError
from .fixtures import FixtureSpec, generate_fixture
from .map_metric import MapParams, build_match_table, image_maps, map_from_table
from .nms import default_grid, tune
from .occost import dataset_oc_cost, lambda_sweep

__all__ = ["main", "build_parser"]

# The localization weights sweep-lambda scores when none are given.
SWEEP_LAMBDAS: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def read_config(path: str) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored; keys are
    normalized to underscores and must each be a setting of some
    subcommand. A leading byte-order mark is skipped."""
    settings: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_").lower()
                if key not in _PARSE:
                    raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
                settings[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc
    return settings


def _boolean(text: str) -> bool:
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _floats(text: str) -> list[float]:
    """Comma-separated floats; empty parts are skipped."""
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        # argparse shows an ArgumentTypeError's own message
        raise argparse.ArgumentTypeError(str(exc)) from exc


# Every setting's parse function, which reads its flag's value, its
# OCEVAL_<NAME> environment variable and its config-file key alike.
# gen-fixture's settings are FixtureSpec's fields, seed among them.
_PARSE: dict[str, Callable[[str], Any]] = {
    **get_type_hints(FixtureSpec),
    **dict.fromkeys(["lambda", "beta", "sample_fraction"], float),
    **dict.fromkeys(["jobs", "trials"], int),
    **dict.fromkeys(["format", "metric", "objective"], str),
    **dict.fromkeys(["strict", "include_crowd", "with_map", "with_replacement"], _boolean),
    **dict.fromkeys(["lambdas", "score_thresholds", "iou_thresholds"], _floats),
}


def resolve(args: argparse.Namespace, config: dict[str, str], name: str) -> Any:
    """Setting ``name`` from its flag, else its OCEVAL_ environment
    variable, else its config-file key. None when none of them sets it, or
    when the subcommand has no flag for it."""
    if not hasattr(args, name):
        return None
    value = getattr(args, name)
    if value is not None:
        return value
    env_key = "OCEVAL_" + name.upper()
    if env_key in os.environ:
        text, source = os.environ[env_key], f"environment variable {env_key}"
    elif name in config:
        text, source = config[name], f"config file key {name}"
    else:
        return None
    try:
        return _PARSE[name](text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _given(
    args: argparse.Namespace, config: dict[str, str], *names: str, **renamed: str
) -> dict[str, Any]:
    """The settings that are set, as keyword arguments: each of ``names``
    under its own name, and each value of ``renamed`` under its key."""
    keywords = [(name, name) for name in names] + list(renamed.items())
    values = [(keyword, resolve(args, config, name)) for keyword, name in keywords]
    return {keyword: value for keyword, value in values if value is not None}


def _cost_params(args: argparse.Namespace, config: dict[str, str]) -> OcCostParams:
    return OcCostParams(**_given(args, config, loc_weight="lambda", dummy_cost="beta"))


def _load_inputs(
    args: argparse.Namespace, config: dict[str, str], dt_paths: Sequence[str]
) -> list[list[ImageInput]]:
    """Per-image inputs of each detection file, against one load of the
    ground truth."""
    load = _given(args, config, "strict")
    join = _given(args, config, "include_crowd")
    index = load_ground_truth(args.gt, **load)
    return [
        detection_inputs(index, load_detections(path, index, **load), **join)
        for path in dt_paths
    ]


def cmd_evaluate(args: argparse.Namespace, config: dict[str, str]) -> int:
    params = _cost_params(args, config)
    run = _given(args, config, "jobs")
    with_map = resolve(args, config, "with_map")
    output = _given(args, config, "format")
    (inputs,) = _load_inputs(args, config, [args.dt])

    report = dataset_oc_cost(inputs, params, **run)
    print(f"mean_oc_cost {report.mean_oc_cost:.6f}")

    per_image_map = mean_ap = None
    if with_map:
        table = build_match_table(inputs, MapParams())
        mean_ap = map_from_table(table, range(len(inputs))).mean_ap
        print(f"mean_ap {mean_ap:.6f}")
        if args.out:
            per_image_map = dict(zip((image_id for image_id, _, _ in inputs), image_maps(table)))

    if args.out:
        write_report(report_payload(report, per_image_map, mean_ap), args.out, **output)
    return 0


def cmd_sweep_lambda(args: argparse.Namespace, config: dict[str, str]) -> int:
    beta = _cost_params(args, config).dummy_cost
    run = _given(args, config, "jobs")
    lambdas = resolve(args, config, "lambdas")
    output = _given(args, config, "format")
    (inputs,) = _load_inputs(args, config, [args.dt])

    rows = lambda_sweep(inputs, SWEEP_LAMBDAS if lambdas is None else lambdas, beta, **run)
    for lam, value in rows:
        print(f"lambda {lam:g} mean_oc_cost {value:.6f}")
    if args.out:
        write_report(sweep_payload(rows, beta), args.out, **output)
    return 0


def cmd_bootstrap(args: argparse.Namespace, config: dict[str, str]) -> int:
    run = _given(args, config, "jobs", "metric")
    bconfig = BootstrapConfig(
        **_given(args, config, "trials", "sample_fraction", "with_replacement", "seed")
    )
    params = _cost_params(args, config)
    output = _given(args, config, "format")

    # a file stem another detector has taken becomes the first free stem_1, stem_2, ...
    names: list[str] = []
    for path in args.dt:
        stem = os.path.splitext(os.path.basename(path))[0]
        name, suffix = stem, 0
        while name in names:
            suffix += 1
            name = f"{stem}_{suffix}"
        names.append(name)
    detectors = list(zip(names, _load_inputs(args, config, args.dt)))

    reports = run_bootstrap(detectors, config=bconfig, oc_params=params, **run)
    for rep in reports:
        print(f"detector {rep.detector} mean {rep.mean:.6f} std {rep.std:.6f}")
    if args.out:
        write_report(bootstrap_payload(reports), args.out, **output)
    return 0


def cmd_tune_nms(args: argparse.Namespace, config: dict[str, str]) -> int:
    params = _cost_params(args, config)
    run = _given(args, config, "jobs", "objective")
    axes = _given(args, config, "score_thresholds", "iou_thresholds")
    output = _given(args, config, "format")
    (inputs,) = _load_inputs(args, config, [args.dt])

    result = tune(inputs, grid=default_grid(**axes), oc_params=params, **run)
    print(
        f"best score_threshold {result.best_params.score_threshold:g} "
        f"iou_threshold {result.best_params.iou_threshold:g} "
        f"{result.objective_kind} {result.objective_value:.6f}"
    )
    if args.out:
        write_report(tune_payload(result), args.out, **output)

    if args.emit_count_histogram:
        gt_counts = [len(gts) for _, _, gts in inputs]
        before = [len(dets) for _, dets, _ in inputs]
        payload = histogram_payload(gt_counts, before, result.survivor_counts)
        print(f"gt_count_mean {payload['gt_mean']:.6f}")
        write_report(payload, args.emit_count_histogram, **output)
    return 0


def cmd_gen_fixture(args: argparse.Namespace, config: dict[str, str]) -> int:
    spec = FixtureSpec(**_given(args, config, *(field.name for field in fields(FixtureSpec))))
    gt_doc, det_records = generate_fixture(spec)
    try:
        # json.dumps, unlike json.dump, writes through the C encoder
        with open(args.gt_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(gt_doc))
        with open(args.dt_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(det_records))
    except OSError as exc:
        raise ParseError(f"cannot write fixture: {exc}") from exc
    print(
        f"images {spec.images} annotations {len(gt_doc['annotations'])} "
        f"detections {len(det_records)}"
    )
    return 0


def _flag(parser: Any, name: str, **kwargs: Any) -> None:
    """Add the flag of setting ``name``: ``--name``, dashes for underscores.
    A flag that takes a value reads it with the setting's parse function."""
    if "action" not in kwargs:
        kwargs["type"] = _PARSE[name]
    parser.add_argument("--" + name.replace("_", "-"), dest=name, default=None, **kwargs)


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gt", required=True, help="COCO instances JSON")
    strictness = parser.add_mutually_exclusive_group()
    _flag(strictness, "strict", action="store_true")
    strictness.add_argument("--lenient", dest="strict", action="store_false")
    _flag(parser, "include_crowd", action="store_true")


def _add_cost(parser: argparse.ArgumentParser, with_lambda: bool = True) -> None:
    if with_lambda:
        _flag(parser, "lambda", metavar="WEIGHT", help="localization weight in the unit cost")
    _flag(parser, "beta", help="dummy correction cost")


def _add_run(parser: argparse.ArgumentParser, *settings: str) -> None:
    """Report output, job count, the given settings, and the config file."""
    parser.add_argument("--out", help="report output path")
    _flag(parser, "format", choices=("json", "csv"))
    _flag(parser, "jobs", help="processes for the OC-cost per-image stage only, the caller "
          "and N-1 forked workers; on a 2-vCPU VM 2 took 55-80%% of the time of 1 from 2000 "
          "COCO-density images up, broke even near 1000 and lost at 100 (see docs/config.md)")
    for name in settings:
        _flag(parser, name)
    parser.add_argument("--config", help="key=value settings file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oceval",
        description="Image-level detection evaluation via optimal correction cost",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="mean OC-cost of one detector")
    _add_data(p)
    _add_cost(p)
    _add_run(p)
    p.add_argument("--dt", required=True, help="COCO results JSON")
    _flag(p, "with_map", action="store_true")

    p = sub.add_parser("bootstrap", help="resampled metric distributions per detector")
    _add_data(p)
    _add_cost(p)
    _add_run(p, "seed")
    p.add_argument("--dt", action="append", required=True, help="one per detector")
    _flag(p, "metric", choices=("oc-cost", "map"))
    _flag(p, "trials")
    _flag(p, "sample_fraction")
    replacement = p.add_mutually_exclusive_group()
    _flag(replacement, "with_replacement", action="store_true")
    replacement.add_argument("--no-replacement", dest="with_replacement", action="store_false")

    # without abbreviations, a stray --lambda is an error, not --lambdas
    p = sub.add_parser(
        "sweep-lambda", help="mean OC-cost over localization weights", allow_abbrev=False
    )
    _add_data(p)
    _add_cost(p, with_lambda=False)
    _add_run(p)
    p.add_argument("--dt", required=True)
    _flag(p, "lambdas")

    p = sub.add_parser("tune-nms", help="grid-search NMS thresholds")
    _add_data(p)
    _add_cost(p)
    _add_run(p)
    p.add_argument("--dt", required=True)
    _flag(p, "objective", choices=("oc-cost", "map"))
    _flag(p, "score_thresholds")
    _flag(p, "iou_thresholds")
    p.add_argument("--emit-count-histogram", help="write detection-count histogram here")

    p = sub.add_parser("gen-fixture", help="generate a synthetic COCO dataset")
    p.add_argument("--config", help="key=value settings file")
    p.add_argument("--gt-out", required=True)
    p.add_argument("--dt-out", required=True)
    for field in fields(FixtureSpec):
        _flag(p, field.name)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built at its first call in a process."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up at each call, so a replaced cmd_* function takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        config = read_config(args.config) if getattr(args, "config", None) else {}
        return command(args, config)
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
