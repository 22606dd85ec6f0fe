import argparse
import importlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oceval.cli
import oceval.occost
from oceval import (
    BootstrapConfig,
    FixtureSpec,
    NmsParams,
    OcCostParams,
    OcevalError,
    detection_inputs,
    load_detections,
    load_ground_truth,
    nms,
    read_report,
)
from oceval.cli import build_parser, main, read_config


def run_fixture(tmp_path, **kwargs):
    gt = tmp_path / "gt.json"
    dt = tmp_path / "dt.json"
    argv = ["gen-fixture", "--gt-out", str(gt), "--dt-out", str(dt)]
    for key, value in kwargs.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    assert main(argv) == 0
    return str(gt), str(dt)


def test_gen_fixture_and_perfect_evaluate(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=5, gts_per_image=3, jitter=0, det_score=1)
    assert main(["evaluate", "--gt", gt, "--dt", dt]) == 0
    out = capsys.readouterr().out
    assert "mean_oc_cost 0.000000" in out


def test_evaluate_empty_detections_gives_beta(tmp_path, capsys):
    gt, _ = run_fixture(tmp_path, images=4, gts_per_image=2)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["evaluate", "--gt", gt, "--dt", str(empty)]) == 0
    assert "mean_oc_cost 0.600000" in capsys.readouterr().out
    assert main(["evaluate", "--gt", gt, "--dt", str(empty), "--beta", "0.3"]) == 0
    assert "mean_oc_cost 0.300000" in capsys.readouterr().out


def test_evaluate_with_map_and_report(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=4, gts_per_image=3, jitter=0.02)
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--with-map", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "mean_ap 1.000000" in printed
    doc = read_report(str(out))
    assert doc["kind"] == "evaluate"
    assert doc["mean_ap"] == 1.0
    assert all("map" in row for row in doc["per_image"])
    assert [row["image_id"] for row in doc["per_image"]] == [1, 2, 3, 4]


def test_evaluate_with_map_golden(tmp_path):
    # noise boxes tie the real detections' score, so pooling order matters;
    # the values are pinned exactly as the two-pass implementation wrote them
    gt, dt = run_fixture(
        tmp_path, images=6, gts_per_image=5, categories=3, jitter=0.1,
        noise_per_image=4, noise_score=0.9, seed=7,
    )
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--with-map", "--out", str(out)]) == 0
    doc = read_report(str(out))
    assert doc["mean_ap"] == 0.4296929268449361
    assert [row["map"] for row in doc["per_image"]] == [
        0.6333333333333333,
        0.6922442244224424,
        0.6168316831683168,
        0.6841584158415842,
        0.6252475247524752,
        0.6336633663366337,
    ]


def test_evaluate_with_map_scores_images_only_for_a_report(tmp_path, capsys, monkeypatch):
    # per-image mAP feeds only the report's "map" column
    gt, dt = run_fixture(tmp_path, images=4, gts_per_image=3, jitter=0.05, noise_per_image=2)
    capsys.readouterr()
    out = tmp_path / "report.json"
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--with-map", "--out", str(out)]) == 0
    with_report = capsys.readouterr().out
    calls = []
    monkeypatch.setattr(oceval.cli, "image_maps", lambda table: calls.append(table) or [])
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--with-map"]) == 0
    assert calls == []
    assert capsys.readouterr().out == with_report


def test_exit_codes(tmp_path):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    # usage: bad lambda value
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--lambda", "1.5"]) == 2
    # parse: not json
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    assert main(["evaluate", "--gt", str(bad), "--dt", dt]) == 3
    # validation: dangling annotation reference
    doc = json.loads((tmp_path / "gt.json").read_text())
    doc["annotations"][0]["image_id"] = 999
    dangle = tmp_path / "dangle.json"
    dangle.write_text(json.dumps(doc))
    assert main(["evaluate", "--gt", str(dangle), "--dt", dt]) == 4
    # argparse usage error for missing required flag
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--gt", gt])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "exc, message",
    [(OcevalError("solver gave up"), "error: solver gave up"),
     (RuntimeError("boom"), "internal error: RuntimeError('boom')")],
)
def test_exit_code_5(tmp_path, capsys, monkeypatch, exc, message):
    # an oceval error that is not a usage, parse or validation error, and
    # any other exception, both exit 5 with their own message on every
    # subcommand
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    capsys.readouterr()

    def failing(args, config):
        raise exc

    for command in ["evaluate", "bootstrap", "sweep-lambda", "tune-nms", "gen-fixture"]:
        monkeypatch.setattr(oceval.cli, "cmd_" + command.replace("-", "_"), failing)
        if command == "gen-fixture":
            argv = [command, "--gt-out", str(tmp_path / "g.json"), "--dt-out", str(tmp_path / "d.json")]
        else:
            argv = [command, "--gt", gt, "--dt", dt]
        assert main(argv) == 5, command
        assert capsys.readouterr().err.strip() == message, command


@pytest.mark.parametrize("section", ["images", "categories"])
@pytest.mark.parametrize("lenient", [[], ["--lenient"]])
def test_duplicate_image_or_category_id_exits_4_in_both_modes(tmp_path, capsys, section, lenient):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    doc = json.loads(Path(gt).read_text())
    doc[section].append(dict(doc[section][0]))
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(doc))
    assert main(["evaluate", "--gt", str(dup), "--dt", dt, *lenient]) == 4
    first = doc[section][0]["id"]
    noun = "image" if section == "images" else "category"
    assert f"duplicate {noun} id {first}" in capsys.readouterr().err


@pytest.mark.parametrize("lenient", [[], ["--lenient"]])
def test_a_malformed_iscrowd_exits_3_in_both_modes(tmp_path, capsys, lenient):
    # iscrowd is part of every annotation's structure: a bad one is a parse
    # error even when its record also refers to an unknown image
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    doc = json.loads(Path(gt).read_text())
    doc["annotations"][1].update(image_id=99, iscrowd=2)
    bad = tmp_path / "crowd.json"
    bad.write_text(json.dumps(doc))
    assert main(["evaluate", "--gt", str(bad), "--dt", dt, *lenient]) == 3
    assert "annotations[1] (id 2).iscrowd must be 0 or 1" in capsys.readouterr().err


def test_annotation_ids_may_repeat(tmp_path, capsys):
    # annotation ids only name records in messages: repeated or missing ids
    # load and score as distinct ground truths
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=3, jitter=0.05)
    capsys.readouterr()
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--with-map"]) == 0
    expected = capsys.readouterr().out
    doc = json.loads(Path(gt).read_text())
    for rec in doc["annotations"]:
        rec["id"] = 7
    del doc["annotations"][-1]["id"]
    same = tmp_path / "same_ids.json"
    same.write_text(json.dumps(doc))
    assert main(["evaluate", "--gt", str(same), "--dt", dt, "--with-map"]) == 0
    assert capsys.readouterr().out == expected
    index = load_ground_truth(str(same))
    assert sum(map(len, index.ground_truths.values())) == len(doc["annotations"])
    # and a bad record is named by its id, repeats and all
    doc["annotations"][1]["bbox"] = [0, 0, -1, 5]
    same.write_text(json.dumps(doc))
    assert main(["evaluate", "--gt", str(same), "--dt", dt]) == 4
    assert "annotations[1] (id 7)" in capsys.readouterr().err


def test_lenient_mode_flag(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    doc = json.loads((tmp_path / "gt.json").read_text())
    doc["annotations"][0]["image_id"] = 999
    dangle = tmp_path / "dangle.json"
    dangle.write_text(json.dumps(doc))
    with pytest.warns(Warning):
        assert main(["evaluate", "--gt", str(dangle), "--dt", dt, "--lenient"]) == 0


def test_env_and_config_precedence(tmp_path, capsys, monkeypatch):
    gt, _ = run_fixture(tmp_path, images=2, gts_per_image=2)
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    cfg = tmp_path / "oceval.cfg"
    cfg.write_text("# comment\nbeta = 0.2\n")

    assert main(["evaluate", "--gt", gt, "--dt", str(empty), "--config", str(cfg)]) == 0
    assert "mean_oc_cost 0.200000" in capsys.readouterr().out

    monkeypatch.setenv("OCEVAL_BETA", "0.4")
    assert main(["evaluate", "--gt", gt, "--dt", str(empty), "--config", str(cfg)]) == 0
    assert "mean_oc_cost 0.400000" in capsys.readouterr().out

    assert main(
        ["evaluate", "--gt", gt, "--dt", str(empty), "--config", str(cfg), "--beta", "0.9"]
    ) == 0
    assert "mean_oc_cost 0.900000" in capsys.readouterr().out


def test_bad_env_value_is_usage_error(tmp_path, monkeypatch):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    monkeypatch.setenv("OCEVAL_JOBS", "many")
    assert main(["evaluate", "--gt", gt, "--dt", dt]) == 2


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("beta=0.3\n\n# note\nsample-fraction = 0.5\n")
    settings = read_config(str(cfg))
    assert settings == {"beta": "0.3", "sample_fraction": "0.5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("beta 0.3\n")
    from oceval import ConfigError

    with pytest.raises(ConfigError):
        read_config(str(bad))


def test_a_byte_order_mark_hides_no_config_key(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=3, noise_per_image=5)
    capsys.readouterr()
    reports = []
    for name, prefix in (("plain.cfg", ""), ("bom.cfg", "\ufeff")):
        cfg = tmp_path / name
        cfg.write_text(prefix + "beta = 0.3\n", encoding="utf-8")
        assert read_config(str(cfg)) == {"beta": "0.3"}
        assert main(["evaluate", "--gt", gt, "--dt", dt, "--config", str(cfg)]) == 0
        reports.append(capsys.readouterr().out)
    assert main(["evaluate", "--gt", gt, "--dt", dt]) == 0
    assert reports[0] == reports[1] != capsys.readouterr().out


@pytest.mark.parametrize("line", ["betta = 0.3", "lenient = true", "gt = other.json"])
def test_a_config_key_of_no_subcommand_is_a_usage_error(tmp_path, capsys, line):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    cfg = tmp_path / "oceval.cfg"
    cfg.write_text(f"# shared\n{line}\n")
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--config", str(cfg)]) == 2
    key = line.partition(" ")[0]
    assert f"{cfg}:2: unknown setting {key!r}" in capsys.readouterr().err


def test_a_config_key_of_another_subcommand_is_allowed(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    cfg = tmp_path / "oceval.cfg"
    cfg.write_text("trials = 5\nbeta = 0.3\n")
    capsys.readouterr()
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--config", str(cfg)]) == 0
    with_config = capsys.readouterr().out
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--beta", "0.3"]) == 0
    assert with_config == capsys.readouterr().out


def test_sweep_lambda_output(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=3, gts_per_image=2, jitter=0.03)
    out = tmp_path / "sweep.csv"
    assert main(
        ["sweep-lambda", "--gt", gt, "--dt", dt, "--lambdas", "0,0.5,1",
         "--out", str(out), "--format", "csv"]
    ) == 0
    printed = capsys.readouterr().out
    assert printed.count("lambda") == 3
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,mean_oc_cost"
    assert len(lines) == 4
    # a bad or an empty lambda list is a usage error
    assert main(["sweep-lambda", "--gt", gt, "--dt", dt, "--lambdas", "0,2"]) == 2
    assert main(["sweep-lambda", "--gt", gt, "--dt", dt, "--lambdas", ""]) == 2


def test_bootstrap_cli_deterministic(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=6, gts_per_image=2, jitter=0.02)
    out1 = tmp_path / "b1.json"
    out2 = tmp_path / "b2.json"
    argv = ["bootstrap", "--gt", gt, "--dt", dt, "--trials", "8", "--seed", "21"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = read_report(str(out1))
    assert doc["kind"] == "bootstrap"
    assert len(doc["detectors"][0]["values"]) == 8
    assert doc["detectors"][0]["config"]["seed"] == 21


def test_bootstrap_cli_multiple_detectors(tmp_path, monkeypatch):
    gt, dt = run_fixture(tmp_path, images=5, gts_per_image=2, jitter=0, det_score=1)
    # the ground truth is loaded once for any number of detection files
    calls = []
    load = oceval.cli.load_ground_truth

    def counting_load(path, **kwargs):
        calls.append(path)
        return load(path, **kwargs)

    monkeypatch.setattr(oceval.cli, "load_ground_truth", counting_load)
    worse = tmp_path / "worse.json"
    dets = json.loads((tmp_path / "dt.json").read_text())
    for det in dets:
        det["score"] = 0.5
    worse.write_text(json.dumps(dets))
    out = tmp_path / "boot.json"
    assert main(
        ["bootstrap", "--gt", gt, "--dt", dt, "--dt", str(worse),
         "--trials", "5", "--seed", "2", "--out", str(out)]
    ) == 0
    doc = read_report(str(out))
    names = [d["detector"] for d in doc["detectors"]]
    assert names == ["dt", "worse"]
    assert calls == [gt]
    a, b = doc["detectors"]
    assert all(x < y for x, y in zip(a["values"], b["values"]))


def test_bootstrap_cli_names_each_detector_once(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=3, gts_per_image=2)
    argv = ["bootstrap", "--gt", gt, "--trials", "2"]
    # a taken file stem gets the first free name among stem_1, stem_2, ...
    for folder, stem in [("x", "a"), ("y", "a"), ("z", "a_1"), ("w", "a")]:
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / f"{stem}.json"
        path.write_text(Path(dt).read_text())
        argv += ["--dt", str(path)]
    out = tmp_path / "boot.json"
    assert main(argv + ["--out", str(out)]) == 0
    names = [d["detector"] for d in read_report(str(out))["detectors"]]
    assert names == ["a", "a_1", "a_1_1", "a_2"]


@pytest.mark.parametrize(
    "command", [["bootstrap", "--metric", "map"], ["tune-nms", "--objective", "map"]]
)
def test_jobs_below_one_is_a_usage_error_on_map_paths(tmp_path, capsys, command):
    gt, dt = run_fixture(tmp_path, images=3, gts_per_image=2)
    capsys.readouterr()
    assert main([*command, "--gt", gt, "--dt", dt, "--jobs", "0"]) == 2
    assert capsys.readouterr().err.strip() == "usage error: jobs must be >= 1, got 0"


def test_jobs_above_one_without_fork_is_a_usage_error(tmp_path, capsys, monkeypatch):
    gt, dt = run_fixture(tmp_path, images=3, gts_per_image=2)
    monkeypatch.setattr(oceval.occost, "get_all_start_methods", lambda: ["spawn"])
    capsys.readouterr()
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--jobs", "2"]) == 2
    assert capsys.readouterr().err.strip() == (
        "usage error: jobs must be 1 on this platform, got 2: worker processes are forked, "
        "and it has no 'fork' start method"
    )
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--jobs", "1"]) == 0


def test_tune_nms_cli(tmp_path, capsys):
    gt, dt = run_fixture(
        tmp_path, images=4, gts_per_image=4, jitter=0, det_score=0.9,
        noise_per_image=2, noise_score=0.1,
    )
    out = tmp_path / "tune.json"
    hist = tmp_path / "hist.json"
    assert main(
        ["tune-nms", "--gt", gt, "--dt", dt, "--out", str(out),
         "--emit-count-histogram", str(hist)]
    ) == 0
    printed = capsys.readouterr().out
    assert "minimize-oc-cost" in printed
    doc = read_report(str(out))
    assert doc["best"]["score_threshold"] > 0.1
    hist_doc = read_report(str(hist))
    assert hist_doc["gt_mean"] == 4.0
    # after tuning, the count histogram collapses onto the gt histogram
    for row in hist_doc["bins"]:
        assert row["after"] == row["gt"]


@pytest.mark.parametrize("objective", ["oc-cost", "map"])
def test_count_histogram_reuses_the_tuning_passes(tmp_path, capsys, monkeypatch, objective):
    # pre-NMS output: two to four overlapping copies of each object at decaying scores
    rng = np.random.default_rng(5)
    images, annotations, dets = [], [], []
    for image_id in range(1, 9):
        images.append({"id": image_id, "width": 200, "height": 200})
        for _ in range(int(rng.integers(0, 4))):
            x, y, w, h = (float(v) for v in rng.uniform([0, 0, 20, 20], [150, 150, 50, 50]))
            label = int(rng.integers(1, 3))
            annotations.append({"id": len(annotations) + 1, "image_id": image_id,
                                "category_id": label, "bbox": [x, y, w, h]})
            for copy in range(int(rng.integers(2, 5))):
                dx, dy = (float(v) for v in rng.normal(0, 4, size=2))
                dets.append({"image_id": image_id, "category_id": label,
                             "bbox": [x + dx, y + dy, w, h], "score": 0.9 * 0.7**copy})
    gt, dt = tmp_path / "gt.json", tmp_path / "dt.json"
    gt.write_text(json.dumps({"images": images, "annotations": annotations,
                              "categories": [{"id": 1, "name": "a"}, {"id": 2, "name": "b"}]}))
    dt.write_text(json.dumps(dets))

    calls = []
    nms_module = importlib.import_module("oceval.nms")  # the package's ``nms`` is the function
    original = nms_module._nms_passes
    monkeypatch.setattr(nms_module, "_nms_passes", lambda *args: calls.append(1) or original(*args))
    hist = tmp_path / "hist.json"
    argv = ["tune-nms", "--gt", str(gt), "--dt", str(dt), "--objective", objective,
            "--score-thresholds", "0.05,0.3,0.5", "--iou-thresholds", "0.3,0.6",
            "--out", str(tmp_path / "tune.json"), "--emit-count-histogram", str(hist)]
    for jobs in ("1", "2"):
        calls.clear()
        assert main([*argv, "--jobs", jobs]) == 0
        assert len(calls) == 1  # one batched call for every image and IoU threshold

    # the histogram's "after" column counts what NMS keeps at the best point
    best = read_report(str(tmp_path / "tune.json"))["best"]
    index = load_ground_truth(str(gt))
    kept = [len(nms(image_dets, NmsParams(best["score_threshold"], best["iou_threshold"])))
            for _, image_dets, _ in detection_inputs(index, load_detections(str(dt), index))]
    after = Counter(kept)
    assert [row["after"] for row in read_report(str(hist))["bins"]] == [
        after[count] for count in range(len(read_report(str(hist))["bins"]))
    ]
    assert 0 < sum(kept) < len(dets)


@pytest.mark.parametrize("objective", ["oc-cost", "map"])
def test_tune_nms_on_no_images_exits_4(tmp_path, capsys, objective):
    gt, dt = tmp_path / "gt.json", tmp_path / "dt.json"
    gt.write_text(json.dumps({"images": [], "annotations": [],
                              "categories": [{"id": 1, "name": "a"}]}))
    dt.write_text("[]")
    assert main(["tune-nms", "--gt", str(gt), "--dt", str(dt), "--objective", objective]) == 4
    assert "cannot evaluate an empty image sequence" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["evaluate"], ["sweep-lambda"], ["tune-nms"], ["bootstrap", "--metric", "oc-cost"]],
)
def test_jobs_below_one_on_no_images_is_a_usage_error(tmp_path, capsys, command):
    # the job count is checked before the images, on every subcommand
    gt, dt = tmp_path / "gt.json", tmp_path / "dt.json"
    gt.write_text(json.dumps({"images": [], "annotations": [],
                              "categories": [{"id": 1, "name": "a"}]}))
    dt.write_text("[]")
    assert main([*command, "--gt", str(gt), "--dt", str(dt), "--jobs", "0"]) == 2
    assert capsys.readouterr().err.strip() == "usage error: jobs must be >= 1, got 0"


def test_tune_nms_single_point_grid(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    assert main(
        ["tune-nms", "--gt", gt, "--dt", dt,
         "--score-thresholds", "0.5", "--iou-thresholds", "0.6"]
    ) == 0
    assert "score_threshold 0.5 iou_threshold 0.6" in capsys.readouterr().out


def test_gen_fixture_rejects_bad_spec(tmp_path, capsys):
    argv = ["gen-fixture", "--gt-out", str(tmp_path / "g.json"), "--dt-out", str(tmp_path / "d.json")]
    for flag, message in [
        (["--jitter", "0.5"], "jitter must be in [0, 0.1], got 0.5"),
        (["--gts-per-image", "-1"], "gts_per_image must be >= 0, got -1"),
        (["--image-size", "32"], "image_size must be >= 64, got 32"),
    ]:
        assert main(argv + flag) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


def test_out_of_range_seed_is_usage_error(tmp_path):
    gt, dt = run_fixture(tmp_path, images=3, gts_per_image=2)
    assert main(["bootstrap", "--gt", gt, "--dt", dt, "--trials", "2", "--seed", "-1"]) == 2
    assert main(["bootstrap", "--gt", gt, "--dt", dt, "--trials", "2", "--seed", str(2**128)]) == 2
    assert main(
        ["gen-fixture", "--gt-out", str(tmp_path / "g.json"),
         "--dt-out", str(tmp_path / "d.json"), "--seed", "-1"]
    ) == 2


def _exit_code(argv):
    """main's exit code, including argparse's own exit on a usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Per subcommand: the extra arguments of a run that succeeds, a bad flag
# value, a bad environment variable and a bad config-file line.
SUBCOMMANDS = {
    "evaluate": ([], ["--beta", "2"], ("OCEVAL_JOBS", "many"), "with-map = maybe"),
    "bootstrap": (
        ["--trials", "3"], ["--sample-fraction", "0"], ("OCEVAL_SEED", "-1"),
        "sample_fraction = lots",
    ),
    "sweep-lambda": (["--lambdas", "0,1"], ["--beta", "x"], ("OCEVAL_JOBS", "0"), "beta = 7"),
    "tune-nms": (
        ["--score-thresholds", "0.5", "--iou-thresholds", "0.5"], ["--objective", "best"],
        ("OCEVAL_LAMBDA", "-1"), "jobs = none",
    ),
    "gen-fixture": ([], ["--images", "0"], ("OCEVAL_JITTER", "0.5"), "categories = 0"),
}
READERS = ["evaluate", "bootstrap", "sweep-lambda", "tune-nms"]

# The stderr prefix and message of the cases whose message no other test reads.
CASE_MESSAGES = {
    "unreadable": ("parse error", "gt.json: cannot read file"),
    "unwritable": ("parse error", ": cannot write "),
    "no config": ("usage error", "oceval.cfg: cannot read config file"),
}


@pytest.mark.parametrize(
    "command, case, expected",
    [(command, case, code) for command in SUBCOMMANDS
     for case, code in [("ok", 0), ("flag", 2), ("env", 2), ("config", 2)]]
    + [(command, "not json", 3) for command in READERS]
    + [(command, "dangling", 4) for command in READERS]
    + [(command, "unreadable", 3) for command in READERS]
    + [(command, "unwritable", 3) for command in SUBCOMMANDS]
    + [(command, "no config", 2) for command in SUBCOMMANDS],
)
def test_exit_code_per_subcommand(tmp_path, monkeypatch, capsys, command, case, expected):
    gt, dt = run_fixture(tmp_path, images=3, gts_per_image=2)
    extra, bad_flag, (env_key, env_value), bad_config = SUBCOMMANDS[command]
    missing = tmp_path / "missing"
    if command == "gen-fixture":
        out = missing if case == "unwritable" else tmp_path
        argv = [command, "--gt-out", str(out / "g.json"), "--dt-out", str(tmp_path / "d.json")]
    else:
        if case == "not json":
            gt = str(tmp_path / "bad.json")
            Path(gt).write_text("nope")
        if case == "unreadable":
            gt = str(missing / "gt.json")
        if case == "dangling":
            doc = json.loads(Path(gt).read_text())
            doc["annotations"][0]["image_id"] = 999
            gt = str(tmp_path / "dangle.json")
            Path(gt).write_text(json.dumps(doc))
        argv = [command, "--gt", gt, "--dt", dt, *extra]
        if case == "unwritable":
            argv += ["--out", str(missing / "report.json")]
    if case == "flag":
        argv += bad_flag
    if case == "env":
        monkeypatch.setenv(env_key, env_value)
    if case == "config":
        cfg = tmp_path / "oceval.cfg"
        cfg.write_text(bad_config + "\n")
        argv += ["--config", str(cfg)]
    if case == "no config":
        argv += ["--config", str(missing / "oceval.cfg")]
    assert _exit_code(argv) == expected
    err = capsys.readouterr().err
    if case in CASE_MESSAGES:
        kind, message = CASE_MESSAGES[case]
        assert err.startswith(kind + ": ") and message in err


def _replaced(doc, section, index, value):
    doc[section][index] = value
    return doc


@pytest.mark.parametrize(
    "which, edit, message",
    [("gt", lambda doc: _replaced(doc, "images", 0, 5), "images[0] must be an object"),
     ("gt", lambda doc: _replaced(doc, "categories", 0, "person"), "categories[0] must be an object"),
     ("gt", lambda doc: _replaced(doc, "categories", 0, {"id": 1, "name": 3}),
      "categories[0].name must be a string"),
     ("dt", lambda records: {"detections": records}, "top level must be a list of detection records")],
    ids=["image entry", "category entry", "category name", "detections top level"],
)
def test_malformed_files_exit_3(tmp_path, capsys, which, edit, message):
    paths = dict(zip(("gt", "dt"), run_fixture(tmp_path, images=2, gts_per_image=2)))
    doc = edit(json.loads(Path(paths[which]).read_text()))
    paths[which] = str(tmp_path / "malformed.json")
    Path(paths[which]).write_text(json.dumps(doc))
    assert main(["evaluate", "--gt", paths["gt"], "--dt", paths["dt"]]) == 3
    assert capsys.readouterr().err == f"parse error: {paths[which]}: {message}\n"


def test_list_and_boolean_settings(tmp_path, monkeypatch, capsys):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    assert _exit_code(["sweep-lambda", "--gt", gt, "--dt", dt, "--lambdas", "0.5,x"]) == 2
    assert "argument --lambdas: could not convert string to float: 'x'" in capsys.readouterr().err
    # boolean words, any case, from a config key and from a variable
    cfg = tmp_path / "oceval.cfg"
    cfg.write_text("with_map = YES\n")
    assert main(["evaluate", "--gt", gt, "--dt", dt, "--config", str(cfg)]) == 0
    assert "mean_ap " in capsys.readouterr().out
    doc = json.loads(Path(gt).read_text())
    doc["annotations"][0]["image_id"] = 999
    dangle = tmp_path / "dangle.json"
    dangle.write_text(json.dumps(doc))
    assert main(["evaluate", "--gt", str(dangle), "--dt", dt]) == 4
    monkeypatch.setenv("OCEVAL_STRICT", "off")
    with pytest.warns(Warning):
        assert main(["evaluate", "--gt", str(dangle), "--dt", dt]) == 0


@pytest.mark.parametrize(
    "command, flag",
    [("evaluate", ["--seed", "1"]), ("sweep-lambda", ["--seed", "1"]),
     ("tune-nms", ["--seed", "1"]), ("sweep-lambda", ["--lambda", "0.5"]),
     ("gen-fixture", ["--out", "r.json"]), ("gen-fixture", ["--format", "csv"]),
     ("gen-fixture", ["--jobs", "2"])],
)
def test_flags_a_subcommand_would_ignore_are_rejected(tmp_path, capsys, command, flag):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    if command == "gen-fixture":
        argv = [command, "--gt-out", str(tmp_path / "g.json"), "--dt-out", str(tmp_path / "d.json")]
    else:
        argv = [command, "--gt", gt, "--dt", dt]
    assert _exit_code(argv + flag) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unset_settings_take_library_defaults(tmp_path, capsys, monkeypatch):
    gt, dt = run_fixture(tmp_path, images=3, gts_per_image=2)
    out = tmp_path / "sweep.json"
    # a variable of a setting sweep-lambda does not have is not read
    monkeypatch.setenv("OCEVAL_LAMBDA", "5")
    assert main(["sweep-lambda", "--gt", gt, "--dt", dt, "--out", str(out)]) == 0
    doc = read_report(str(out))
    assert doc["beta"] == OcCostParams().dummy_cost
    assert [row["lambda"] for row in doc["rows"]] == list(oceval.cli.SWEEP_LAMBDAS)
    monkeypatch.delenv("OCEVAL_LAMBDA")

    out = tmp_path / "boot.json"
    assert main(["bootstrap", "--gt", gt, "--dt", dt, "--out", str(out)]) == 0
    config = read_report(str(out))["detectors"][0]["config"]
    assert config == vars(BootstrapConfig())

    capsys.readouterr()
    run_fixture(tmp_path)
    assert capsys.readouterr().out.startswith(f"images {FixtureSpec().images} ")


CONFIG_DOC = Path(__file__).resolve().parent.parent / "docs" / "config.md"


def _parser_settings(doc):
    """Each subcommand's settings: the dests of its flags, less --help and
    the file-path flags that the config doc lists."""
    paths_sentence = doc[doc.index("File paths"):doc.index("are flags only")]
    paths = {flag[2:].replace("-", "_") for flag in re.findall(r"`(--[\w-]+)`", paths_sentence)}
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        command: {a.dest for a in parser._actions if a.option_strings} - paths - {"help"}
        for command, parser in subparsers.choices.items()
    }


def test_config_doc_environment_table_matches_the_parsers():
    doc = CONFIG_DOC.read_text()
    settings = _parser_settings(doc)
    documented = {}
    for line in doc.splitlines():
        if line.startswith("| `OCEVAL_"):
            variables, _, used_by = line.strip("|").split("|")
            commands = {word.strip() for word in used_by.split(",")}
            for name in re.findall(r"`OCEVAL_(\w+)`", variables):
                documented[name.lower()] = commands
    for name, commands in documented.items():
        users = {command for command, names in settings.items() if name in names}
        assert commands == users, name
    assert set(documented) == set().union(*settings.values())


def test_cli_import_loads_no_scipy():
    # start-up is the largest stage of a short CLI run; scipy alone used to
    # cost most of it, so no module of the import path may pull it in
    src = Path(oceval.cli.__file__).resolve().parents[1]
    probe = "import sys, oceval.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_a_one_process_run_loads_no_multiprocessing(tmp_path):
    # only a fan-out to worker processes needs multiprocessing, which an
    # import of the CLI and a --jobs 1 evaluation must not load
    src = Path(oceval.cli.__file__).resolve().parents[1]
    gt, dt = str(tmp_path / "gt.json"), str(tmp_path / "dt.json")
    probe = (
        "import sys, oceval.cli\n"
        "print('multiprocessing' in sys.modules)\n"
        f"oceval.cli.main(['gen-fixture', '--images', '3', '--gt-out', {gt!r}, '--dt-out', {dt!r}])\n"
        f"oceval.cli.main(['evaluate', '--gt', {gt!r}, '--dt', {dt!r}, '--jobs', '1', '--with-map'])\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert [lines[0], lines[-1]] == ["False", "False"]


def test_main_reuses_one_parser_and_build_parser_makes_a_new_one(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(oceval.cli, "build_parser", lambda: built.append(1) or build_parser())
    oceval.cli._parser.cache_clear()
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    assert main(["evaluate", "--gt", gt, "--dt", dt]) == 0
    assert len(built) == 1
    assert build_parser() is not build_parser()
    oceval.cli._parser.cache_clear()
