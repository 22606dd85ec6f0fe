"""The timed process of one benchmark run.

    python3 bench/runner.py --workload NAME --seed N --dir DIR --seconds S --trace 0|1

DIR holds the workload's COCO files, written before this process
started. Each job is one ``oceval.cli.main(argv)`` call in this process.
After an untimed warm-up, whole rounds of the workload's jobs run, each
round in the job order rotated by one, until the next round would end
after ``--seconds`` (at least two rounds); a round runs the workload's
short jobs more than once. With ``--trace 1`` each job then runs once
more with every public ``oceval`` function traced. Then every
job's output is checked. The last stdout line is a JSON object with the
per-job medians of wall time and of scaled time (bench/hostspeed.py),
the peak resident memory, the traced layers and the job counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import statistics
import sys
import time
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from oceval.bootstrap import BootstrapConfig, trial_sample  # noqa: E402
from oceval import cli  # noqa: E402
from oceval.costs import Detection, GroundTruthInstance, OcCostParams  # noqa: E402
from oceval.geometry import BoundingBox  # noqa: E402
from oceval.nms import NmsParams, nms  # noqa: E402
from oceval.occost import dataset_oc_cost  # noqa: E402
from tracing import Tracer  # noqa: E402

# A single sample per job swings with the host's speed; two keep a slow
# stretch from setting a metric alone when one round nearly fills --seconds.
MIN_ROUNDS = 2


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``oceval`` call: exit code and what it wrote to stderr.
    ``cli.main`` is looked up at call time so that tracing can wrap it."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code if isinstance(exc.code, int) else 2
    return code, err.getvalue()


def cpu_ticks() -> tuple[int, int]:
    """(steal, all) ticks of the host's CPUs since boot."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def peak_rss_mb() -> float:
    """High-water resident memory of this process. VmHWM belongs to the
    current address space, so it excludes whatever the parent held
    before exec."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Rounds:
    """Runs jobs, keeping each job's times, failures and first output bytes.
    A host-speed probe runs before each job, and each time is also kept
    scaled by the probes of its own round, so that a slow stretch of the
    host is corrected where it happened. A repeat whose output differs
    from the first is a wrong output."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.times: dict[str, list[float]] = {metric: [] for metric, _, _ in jobs}
        self.scaled: dict[str, list[float]] = {metric: [] for metric, _, _ in jobs}
        self.probes: list[float] = []
        self.first: dict[str, bytes] = {}
        self.failed: dict[str, list[str]] = {metric: [] for metric, _, _ in jobs}
        self.attempted = 0
        self.exited = Counter()  # runs per job that ended with a non-zero exit code
        self.wrong_output = False

    def run(self, offset: int) -> float:
        total = 0.0
        probes, times = [], []
        for k in range(len(self.jobs)):
            metric, argv, outputs = self.jobs[(k + offset) % len(self.jobs)]
            probes.append(hostspeed.probe())
            gc.collect()
            start = time.perf_counter()
            code, err = run_cli(argv)
            elapsed = time.perf_counter() - start
            total += elapsed
            self.attempted += 1
            self.times[metric].append(elapsed)
            times.append((metric, elapsed))
            if code != 0:
                self.exited[metric] += 1
                self.failed[metric].append(f"exit code {code}: {err.strip()[-300:]}")
                continue
            for path in outputs:
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except OSError:
                    self.failed[metric].append(f"{os.path.basename(path)} was not written")
                    self.wrong_output = True
                    continue
                if self.first.setdefault(path, data) != data:
                    self.failed[metric].append(f"{os.path.basename(path)} differs between repeats")
                    self.wrong_output = True
        factor = hostspeed.scale(probes)
        for metric, elapsed in times:
            self.scaled[metric].append(elapsed * factor)
        self.probes += probes
        return total


def program_inputs(scenes: dict) -> list:
    """The program's per-image inputs built from the benchmark's own read
    of the files: the same corner arithmetic as the loader, file order."""
    out = []
    for image_id, scene in scenes.items():
        dets = tuple(Detection(BoundingBox(*box), label, score) for box, label, score in zip(
            scene.det_boxes.tolist(), scene.det_labels.tolist(), scene.det_scores.tolist()))
        gts = [GroundTruthInstance(BoundingBox(*box), label)
               for box, label in zip(scene.gt_boxes.tolist(), scene.gt_labels.tolist())]
        out.append((image_id, dets, gts))
    return out


def nms_survivors(inputs, params: NmsParams) -> tuple[dict[int, np.ndarray], list]:
    """The program's NMS output as a mask over each image's detections in
    file order, and as filtered inputs."""
    masks, filtered = {}, []
    for image_id, dets, gts in inputs:
        kept = nms(dets, params)
        position = {id(det): i for i, det in enumerate(dets)}
        mask = np.zeros(len(dets), dtype=bool)
        mask[[position[id(det)] for det in kept]] = True
        masks[image_id] = mask
        filtered.append((image_id, kept, gts))
    return masks, filtered


class OutputChecks:
    """Checks of each job's first output, one method per job metric. A
    check that raises reports that as a problem of its job."""

    def __init__(self, workload, seed: int, inputs_dir: str, outputs: dict[str, bytes], jobs) -> None:
        self.workload, self.seed, self.outputs = workload, seed, outputs
        self.paths = {metric: files for metric, _, files in jobs}
        self.gt, self.dt, self.dt2 = (os.path.join(inputs_dir, name) for name in workloads.INPUT_FILES)
        self.scenes = checks.load_scenes(self.gt, self.dt)
        self.inputs = program_inputs(self.scenes)
        self.reference_map = checks.reference_map(self.scenes)
        self.survivors: dict[NmsParams, tuple] = {}

    def run(self) -> dict[str, list[str]]:
        problems = {}
        for metric in self.paths:
            try:
                problems[metric] = getattr(self, metric)()
            except Exception as exc:  # a malformed or missing output is that job's failure
                problems[metric] = [f"check raised {exc!r}"]
        return problems

    def report(self, metric: str, part: int = 0) -> dict:
        return json.loads(self.outputs[self.paths[metric][part]])

    def evaluate_s(self) -> list[str]:
        return checks.check_evaluate(self.report("evaluate_s"), self.scenes, workloads.LAMBDA, workloads.BETA,
                                     checks.lp_sample(self.scenes, self.seed))

    def evaluate_map_s(self) -> list[str]:
        with_map = self.report("evaluate_map_s")
        problems = checks.check_map(with_map["mean_ap"], self.reference_map)
        if with_map["mean_oc_cost"] != self.report("evaluate_s")["mean_oc_cost"]:
            problems.append("mean_oc_cost differs from evaluate")
        return problems

    def evaluate_jobs2_s(self) -> list[str]:
        same = self.outputs[self.paths["evaluate_jobs2_s"][0]] == self.outputs[self.paths["evaluate_s"][0]]
        return [] if same else ["--jobs 2 report differs from the --jobs 1 report"]

    def sweep_s(self) -> list[str]:
        lambdas = [float(v) for v in self.workload.lambdas.split(",")]
        return checks.check_sweep(self.report("sweep_s"), lambdas, self.report("evaluate_s")["mean_oc_cost"])

    def tune_oc_s(self) -> list[str]:
        return self._tune("tune_oc_s", minimize=True)

    def tune_map_s(self) -> list[str]:
        return self._tune("tune_map_s", minimize=False)

    def _tune(self, metric: str, minimize: bool) -> list[str]:
        tuned = self.report(metric)
        scores = [float(v) for v in self.workload.score_thresholds.split(",")]
        ious = [float(v) for v in self.workload.iou_thresholds.split(",")]
        problems = checks.check_tune_choice(tuned, scores, ious, minimize)
        if problems:
            return problems
        best = NmsParams(tuned["best"]["score_threshold"], tuned["best"]["iou_threshold"])
        if best not in self.survivors:
            self.survivors[best] = nms_survivors(self.inputs, best)
        kept, filtered = self.survivors[best]
        problems = checks.check_nms(self.scenes, kept, best.score_threshold, best.iou_threshold)
        problems += checks.check_counts(self.report(metric, 1), self.scenes, kept)
        everything = all(mask.all() for mask in kept.values())
        value = tuned["objective_value"]
        # With nothing removed, the kept boxes are the evaluate job's input, checked there.
        if minimize:
            expected = self.report("evaluate_s")["mean_oc_cost"] if everything else dataset_oc_cost(
                filtered, OcCostParams(workloads.LAMBDA, workloads.BETA)).mean_oc_cost
            if value != expected:
                problems.append(f"evaluate on the kept boxes gives {expected!r}, the grid {value!r}")
        else:
            problems += checks.check_map(value, self.reference_map if everything else checks.reference_map(
                {i: scene.only(kept[i]) for i, scene in self.scenes.items()}))
        return problems

    def bootstrap_map_s(self) -> list[str]:
        """The first and last trial of the first detector and the first
        trial of the second, recomputed with the reference mAP on the
        trial's image multiset."""
        detectors = self.report("bootstrap_map_s")["detectors"]
        if [d["detector"] for d in detectors] != ["dt", "dt2"]:
            return ["bootstrap report does not hold the two detectors"]
        trials = self.workload.trials
        config = BootstrapConfig(trials, self.workload.sample_fraction, True, self.seed % 2**63)
        problems = []
        for det, scenes, chosen_trials in zip(
                detectors, (self.scenes, checks.load_scenes(self.gt, self.dt2)), ((0, trials - 1), (0,))):
            values = det["values"]
            if len(values) != trials or det["mean"] != math.fsum(values) / len(values):
                problems.append(f"{det['detector']}: trial count or mean is wrong")
                continue
            for trial in chosen_trials:
                sample = trial_sample(config, trial, len(scenes)).tolist()
                problems += [f"{det['detector']} trial {trial}: {p}"
                             for p in checks.check_map(values[trial], checks.reference_map(scenes, sample))]
        return problems


def main_run(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    inputs_dir = os.path.join(args.dir, "inputs")
    out_dir = os.path.join(args.dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    jobs = workloads.jobs(workload, args.seed, inputs_dir, out_dir)

    warm_dir = os.path.join(args.dir, "warmup")
    for _, argv, _ in workloads.jobs(workloads.WARMUP, 0, warm_dir, warm_dir):
        run_cli(argv)

    steal0, all0 = cpu_ticks()
    rounds = Rounds(jobs)
    began = time.perf_counter()
    count = 0
    while True:
        last = rounds.run(count)
        count += 1
        if count >= MIN_ROUNDS and time.perf_counter() - began + last > args.seconds:
            break
    result: dict = {
        "times": {metric: statistics.median(values) for metric, values in rounds.times.items()},
        "scaled": {metric: statistics.median(values) for metric, values in rounds.scaled.items()},
        "probes_s": rounds.probes,
        "samples": {metric: values[:] for metric, values in rounds.times.items()},
        "peak_rss_mb": peak_rss_mb(),
        "rounds": count,
    }
    if args.trace:
        untraced = sum(result["times"].values())
        once = list({metric: (metric, argv, outputs) for metric, argv, outputs in jobs}.values())
        tracer = Tracer()
        tracer.install()
        traced_rounds = Rounds(once)
        try:
            traced = traced_rounds.run(0)
        finally:
            tracer.uninstall()
        # generate_fixture runs in the set-up processes, not here
        wanted = [m["name"] for m in workloads.manifest(os.getcwd())["per_layer"]
                  if m["name"] != "fixtures.generate_fixture_s"]
        layers, skipped = tracer.metrics(wanted)
        tracer.save(os.path.join(args.dir, "spans.npz"))
        result.update(layers=layers, skipped=skipped, traced_s=traced, untraced_s=untraced,
                      trace_scale=hostspeed.scale(traced_rounds.probes),
                      spans=len(tracer.start))
    steal1, all1 = cpu_ticks()

    checked = time.perf_counter()
    try:
        problems = OutputChecks(workload, args.seed, inputs_dir, rounds.first, jobs).run()
    except Exception as exc:  # the inputs themselves could not be read back
        problems = {metric: [f"check set-up raised {exc!r}"] for metric in rounds.times}
    result["checks_s"] = time.perf_counter() - checked
    failed = 0
    failures = []
    wrong_output = rounds.wrong_output
    for metric, runs in rounds.times.items():
        failures += [f"{metric}: {p}" for p in rounds.failed[metric][:5]]
        if rounds.exited[metric] == len(runs):  # no output to check
            failed += len(runs)
        elif problems.get(metric):  # every repeat wrote the output that failed its check
            failed += len(runs)
            failures += [f"{metric}: {p}" for p in problems[metric][:5]]
            wrong_output = True
        else:
            failed += len(rounds.failed[metric])
    result.update(
        attempted=rounds.attempted, failed=failed, failures=failures, wrong_output=wrong_output,
        steal_ticks=steal1 - steal0, all_ticks=all1 - all0,
    )
    return result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


if __name__ == "__main__":
    print(json.dumps(main_run(parse_args())))
