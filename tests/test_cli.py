import json

import pytest

from oceval import read_report
from oceval.cli import main, read_config


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
    # bad lambda is a usage error
    assert main(["sweep-lambda", "--gt", gt, "--dt", dt, "--lambdas", "0,2"]) == 2


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


def test_bootstrap_cli_multiple_detectors(tmp_path):
    gt, dt = run_fixture(tmp_path, images=5, gts_per_image=2, jitter=0, det_score=1)
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
    a, b = doc["detectors"]
    assert all(x < y for x, y in zip(a["values"], b["values"]))


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


def test_tune_nms_single_point_grid(tmp_path, capsys):
    gt, dt = run_fixture(tmp_path, images=2, gts_per_image=2)
    assert main(
        ["tune-nms", "--gt", gt, "--dt", dt,
         "--score-thresholds", "0.5", "--iou-thresholds", "0.6"]
    ) == 0
    assert "score_threshold 0.5 iou_threshold 0.6" in capsys.readouterr().out


def test_gen_fixture_rejects_bad_spec(tmp_path):
    code = main(
        ["gen-fixture", "--gt-out", str(tmp_path / "g.json"),
         "--dt-out", str(tmp_path / "d.json"), "--jitter", "0.5"]
    )
    assert code == 2


def test_out_of_range_seed_is_usage_error(tmp_path):
    gt, dt = run_fixture(tmp_path, images=3, gts_per_image=2)
    assert main(["bootstrap", "--gt", gt, "--dt", dt, "--trials", "2", "--seed", "-1"]) == 2
    assert main(["bootstrap", "--gt", gt, "--dt", dt, "--trials", "2", "--seed", str(2**128)]) == 2
    assert main(
        ["gen-fixture", "--gt-out", str(tmp_path / "g.json"),
         "--dt-out", str(tmp_path / "d.json"), "--seed", "-1"]
    ) == 2
