"""The benchmark's workloads, their inputs and their fixed job lists.

Every input is a pure function of the run seed. The program only ever
sees the COCO files written here; the jobs are ``oceval`` command lines.
``oceval`` is imported only inside the set-up step, which times it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

LAMBDA = 0.5
BETA = 0.6


def manifest(root: str) -> dict:
    """BENCHMARK.json, the one list of the benchmark's workloads and metrics."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def philox(seed: int, *counter: int) -> np.random.Generator:
    """Counter-based stream: one independent stream per (seed, counter)."""
    return np.random.Generator(
        np.random.Philox(key=seed % 2**64, counter=[*counter, 0, 0, 0, 0][:4])
    )


def second_detector(records: list[dict], seed: int) -> list[dict]:
    """A weaker detector on the same images: boxes moved by up to 4% and
    resized by up to 5% of their size, scores scaled by 0.7 to 1.0, and
    only a fifth of the boxes scored below 0.5 kept."""
    rng = philox(seed, 0, 1)
    draws = rng.uniform(size=(len(records), 6))
    out = []
    for rec, (a, b, c, d, e, f) in zip(records, draws.tolist()):
        if rec["score"] < 0.5 and f >= 0.2:
            continue
        x, y, w, h = rec["bbox"]
        box = (x + w * 0.08 * (a - 0.5), y + h * 0.08 * (b - 0.5), w * (0.95 + 0.1 * c), h * (0.95 + 0.1 * d))
        out.append(
            {
                "image_id": rec["image_id"],
                "category_id": rec["category_id"],
                "bbox": [round(v, 4) for v in box],
                "score": round(rec["score"] * (0.7 + 0.3 * e), 6),
            }
        )
    return out


def raw_inputs(images: int) -> Callable[[int], tuple]:
    """Pre-NMS detector output on 640-pixel images with 4 categories:
    every object is reported 2 to 5 times by jittered boxes with decaying
    scores (8% of them with a wrong label), plus 2 to 6 low-scored
    background boxes per image. Ground truth and the two detectors use
    separate streams, so both detectors see the same ground truth."""
    categories, size = 4, 640

    def box(rng: np.random.Generator, lo: float, hi: float) -> list[float]:
        w, h = rng.uniform(lo, hi, size=2)
        return [rng.uniform(0, size - w), rng.uniform(0, size - h), w, h]

    def detections(rng, image_id, objects) -> list[dict]:
        out = []
        for category, (x, y, w, h) in objects:
            top = rng.uniform(0.35, 1.0)
            for k in range(int(rng.integers(2, 6))):
                j = rng.uniform(-0.12, 0.12, size=4)
                label = category if rng.uniform() > 0.08 else int(rng.integers(1, categories + 1))
                bbox = [x + w * j[0], y + h * j[1], w * (1 + j[2]), h * (1 + j[3])]
                score = top * 0.75**k * rng.uniform(0.85, 1.0)
                out.append({"image_id": image_id, "category_id": label,
                            "bbox": [round(v, 2) for v in bbox], "score": round(score, 6)})
        for _ in range(int(rng.integers(2, 7))):
            out.append({"image_id": image_id, "category_id": int(rng.integers(1, categories + 1)),
                        "bbox": [round(v, 2) for v in box(rng, 20, 120)],
                        "score": round(rng.uniform(0.0, 0.35), 6)})
        return out

    def make(seed: int) -> tuple[dict, list[dict], list[dict]]:
        images_doc, annotations, dets, dets2 = [], [], [], []
        for index in range(images):
            image_id = index + 1
            images_doc.append({"id": image_id, "width": size, "height": size})
            rng = philox(seed, index, 0)
            objects = []
            for _ in range(int(rng.integers(4, 9))):
                category = int(rng.integers(1, categories + 1))
                bbox = [round(v, 2) for v in box(rng, 48, 160)]
                objects.append((category, bbox))
                annotations.append({"id": len(annotations) + 1, "image_id": image_id,
                                    "category_id": category, "bbox": bbox, "iscrowd": 0,
                                    "area": round(bbox[2] * bbox[3], 2)})
            dets += detections(philox(seed, index, 1), image_id, objects)
            dets2 += detections(philox(seed, index, 2), image_id, objects)
        gt_doc = {"images": images_doc, "annotations": annotations,
                  "categories": [{"id": c, "name": f"category_{c}"} for c in range(1, categories + 1)]}
        return gt_doc, dets, dets2

    return make


@dataclass(frozen=True)
class Workload:
    name: str
    # (images, noise boxes per image) for fixtures.generate_fixture, or None
    # when ``raw`` makes the inputs in the benchmark itself
    fixture: tuple[int, int] | None
    raw: Callable[[int], tuple[dict, list[dict], list[dict]]] | None
    lambdas: str
    score_thresholds: str
    iou_thresholds: str
    trials: int
    sample_fraction: float
    # short jobs run this many times per round, for more samples per run
    repeats: dict[str, int] = field(default_factory=dict)


COCO5K = Workload(
    "coco5k", (5000, 0), None,
    lambdas="0.5,1", score_thresholds="0.05,0.5", iou_thresholds="0.5",
    trials=10, sample_fraction=0.2,
)

# BENCHMARK.json lists clutter100 and raw-nms. coco5k runs with the same
# command for reference figures but is not among them: one round of its
# jobs takes about 34 s on a 2-vCPU host, so a run that fits the benchmark's
# time budget holds one sample per job, too few to be steady on a noisy host.
# For the same reason the gated workloads have 100 images: a round of their
# jobs takes 1-3 s, so a run holds 17 to 46 rounds spread over its length,
# and every metric is the median of as many samples (bench/README.md).
WORKLOADS = {
    w.name: w
    for w in [
        COCO5K,
        Workload(
            "clutter100", (100, 50), None,
            lambdas="0.5,1", score_thresholds="0.05,0.5", iou_thresholds="0.5",
            trials=10, sample_fraction=0.2,
            repeats={"evaluate_s": 2, "evaluate_jobs2_s": 2, "sweep_s": 2},
        ),
        Workload(
            "raw-nms", None, raw_inputs(100),
            lambdas="0.5,1", score_thresholds="0.1,0.25,0.4,0.55", iou_thresholds="0.3,0.5,0.7",
            trials=10, sample_fraction=0.2,
            repeats={"evaluate_s": 2, "evaluate_jobs2_s": 2, "sweep_s": 2},
        ),
    ]
}

# Exercises every command on a dozen images before anything is timed.
WARMUP = Workload("warmup", None, raw_inputs(12), "0.5,1", "0.1,0.5", "0.5", 3, 0.5)

INPUT_FILES = ("gt.json", "dt.json", "dt2.json")

# host-speed probes before and after the timed set-up, in each set-up process
PROBES = 4


def write_inputs(docs: tuple[dict, list[dict], list[dict]], directory: str) -> None:
    """Write (ground truth, detector, second detector) as INPUT_FILES."""
    for doc, name in zip(docs, INPUT_FILES):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc))


def jobs(workload: Workload, seed: int, inputs: str, out: str) -> list[tuple[str, list[str], list[str]]]:
    """One round: (metric, argv, output files) for each timed job, in a
    fixed order, followed by the extra runs of the workload's short jobs."""
    gt, dt, dt2 = (os.path.join(inputs, name) for name in INPUT_FILES)
    data = ["--gt", gt, "--dt", dt]

    def path(name: str) -> str:
        return os.path.join(out, name)

    grid = ["--score-thresholds", workload.score_thresholds,
            "--iou-thresholds", workload.iou_thresholds, "--jobs", "1"]
    once = [
        ("evaluate_s", ["evaluate", *data, "--jobs", "1", "--out", path("evaluate.json")],
         [path("evaluate.json")]),
        ("evaluate_map_s",
         ["evaluate", *data, "--with-map", "--jobs", "1", "--out", path("evaluate_map.json")],
         [path("evaluate_map.json")]),
        ("evaluate_jobs2_s", ["evaluate", *data, "--jobs", "2", "--out", path("evaluate_jobs2.json")],
         [path("evaluate_jobs2.json")]),
        ("sweep_s",
         ["sweep-lambda", *data, "--lambdas", workload.lambdas, "--jobs", "1", "--out", path("sweep.json")],
         [path("sweep.json")]),
        ("tune_oc_s",
         ["tune-nms", *data, "--objective", "oc-cost", *grid, "--out", path("tune_oc.json"),
          "--emit-count-histogram", path("tune_oc_counts.json")],
         [path("tune_oc.json"), path("tune_oc_counts.json")]),
        ("tune_map_s",
         ["tune-nms", *data, "--objective", "map", *grid, "--out", path("tune_map.json"),
          "--emit-count-histogram", path("tune_map_counts.json")],
         [path("tune_map.json"), path("tune_map_counts.json")]),
        ("bootstrap_map_s",
         ["bootstrap", "--gt", gt, "--dt", dt, "--dt", dt2, "--metric", "map",
          "--trials", str(workload.trials), "--sample-fraction", str(workload.sample_fraction),
          "--seed", str(seed % 2**63), "--jobs", "1", "--out", path("bootstrap.json")],
         [path("bootstrap.json")]),
    ]
    extra = [job for job in once for _ in range(workload.repeats.get(job[0], 1) - 1)]
    return once + extra


def program_setup(workload: Workload, seed: int) -> tuple[dict, list[dict]] | None:
    """The program's own part of making the inputs: ``generate_fixture``
    for a fixture workload, nothing for a raw one."""
    if workload.fixture is None:
        return None
    from oceval import fixtures

    images, noise = workload.fixture
    spec = fixtures.FixtureSpec(images=images, gts_per_image=7, noise_per_image=noise, seed=seed % 2**63)
    return fixtures.generate_fixture(spec)


def make_inputs(workload: Workload, seed: int, generated) -> tuple[dict, list[dict], list[dict]]:
    """(ground truth, detector, second detector) from ``program_setup``'s result."""
    if generated is None:
        return workload.raw(seed)
    gt_doc, dets = generated
    return gt_doc, dets, second_detector(dets, seed)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Time the program's part of a workload's set-up: importing oceval.cli and, for a "
                    "fixture workload, generate_fixture. With --out, also write the COCO files "
                    "(gt.json, dt.json, dt2.json) there. Prints the two times and the host-speed "
                    "probes taken around them as JSON.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="directory to write the COCO files into")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    import hostspeed

    probes = [hostspeed.probe() for _ in range(PROBES)]
    start = time.perf_counter()
    import oceval.cli  # noqa: E402,F401
    imported = time.perf_counter()
    generated = program_setup(workload, args.seed)
    done = time.perf_counter()
    probes += [hostspeed.probe() for _ in range(PROBES)]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_inputs(make_inputs(workload, args.seed, generated), args.out)
    print(json.dumps({"import_s": imported - start, "generate_s": done - imported, "probes_s": probes}))
