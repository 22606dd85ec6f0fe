"""Shows that the benchmark's output checks fail on wrong output.

Run from the root of an oceval checkout:

    python3 bench/selftest.py

It writes a 30-image pre-NMS dataset under .bench_work/selftest, runs
``oceval evaluate --with-map`` and the program's NMS on it, confirms that
the checks pass on the real output, and then that each check reports a
deliberately wrong output: a perturbed per-image ``oc_cost`` (once with
the mean left stale, once with the mean recomputed so that only the
linear-programming check can catch it), a perturbed ``mean_ap``, and a
kept box that overlaps a kept box of its own label. Exits 1 if any
check stays silent.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from oceval.nms import NmsParams  # noqa: E402


def main() -> int:
    directory = os.path.join(os.getcwd(), ".bench_work", "selftest")
    os.makedirs(directory, exist_ok=True)
    workloads.write_inputs(workloads.raw_inputs(30)(5), directory)
    gt, dt = (os.path.join(directory, name) for name in workloads.INPUT_FILES[:2])
    out = os.path.join(directory, "evaluate.json")
    code, err = runner.run_cli(["evaluate", "--gt", gt, "--dt", dt, "--with-map", "--out", out])
    if code != 0:
        print(f"evaluate failed: {err}")
        return 1
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    scenes = checks.load_scenes(gt, dt)
    everything = list(scenes)
    params = NmsParams(0.2, 0.5)
    kept, _ = runner.nms_survivors(runner.program_inputs(scenes), params)
    reference = checks.reference_map(scenes)

    def evaluate_check(doc):
        return checks.check_evaluate(doc, scenes, workloads.LAMBDA, workloads.BETA, everything)

    def nms_check(masks):
        return checks.check_nms(scenes, masks, params.score_threshold, params.iou_threshold)

    stale_mean = copy.deepcopy(report)
    row = max(stale_mean["per_image"], key=lambda r: r["matched_pairs"])
    row["oc_cost"] += 1e-6
    fixed_mean = copy.deepcopy(stale_mean)
    values = [r["oc_cost"] for r in fixed_mean["per_image"]]
    fixed_mean["mean_oc_cost"] = math.fsum(values) / len(values)

    overlapping = copy.deepcopy(kept)
    for image_id, scene in scenes.items():
        mat, _ = checks.overlaps(scene.det_boxes, scene.det_boxes)
        same = scene.det_labels[:, None] == scene.det_labels[None, :]
        mask = overlapping[image_id]
        hits = np.flatnonzero(~mask & (same[:, mask] & (mat[:, mask] > params.iou_threshold)).any(axis=1))
        if hits.size:
            mask[hits[0]] = True
            break

    control = evaluate_check(report) + checks.check_map(report["mean_ap"], reference) + nms_check(kept)
    if control:
        print(f"FAIL: the checks reject the program's real output: {control}")
        return 1
    print("ok: the checks accept the program's real output")
    cases = [
        ("per-image oc_cost + 1e-6, mean left stale", evaluate_check(stale_mean)),
        ("per-image oc_cost + 1e-6, mean recomputed", evaluate_check(fixed_mean)),
        ("mean_ap + 1e-6", checks.check_map(report["mean_ap"] + 1e-6, reference)),
        ("a kept box overlapping a kept box of its label", nms_check(overlapping)),
    ]
    silent = 0
    for name, problems in cases:
        if problems:
            print(f"ok: {name} -> {problems[0]}")
        else:
            silent += 1
            print(f"FAIL: {name} was not reported")
    return 1 if silent else 0


if __name__ == "__main__":
    sys.exit(main())
