"""Benchmark of every ``oceval`` CLI job on one workload.

Run from the root of an oceval checkout:

    python3 bench/run.py --workload coco5k --seed 1 --seconds 20 --trace 0

The run first times the program's part of the set-up in several fresh
processes (bench/workloads.py: importing ``oceval.cli`` and, for a
fixture workload, ``generate_fixture``; ``setup_s`` is the median), the
first of which also writes the workload's COCO files. Then one timed
Python process (bench/runner.py) calls ``oceval.cli.main`` for each job
in-process. The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds every
``end_to_end`` metric of BENCHMARK.json with ``--trace 0`` and every
``per_layer`` one with ``--trace 1``. Every time is scaled to the
reference host's speed by host-speed probes taken in the process that
measured it (bench/hostspeed.py). The line before it gives context: the
unscaled wall-clock medians, the scales, the probe times and the host's
steal ticks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5
TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oceval", "cli.py")):
        fail("run this from the root of an oceval checkout (src/oceval is missing)")
    sys.path.insert(0, HERE)
    import hostspeed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    manifest = workloads.manifest(root)
    seconds = manifest["run_seconds"] if args.seconds is None else args.seconds
    deadline = time.monotonic() + TIMEOUT_S

    work = os.path.join(root, ".bench_work", workload.name)
    shutil.rmtree(work, ignore_errors=True)
    warmup = os.path.join(work, "warmup")
    os.makedirs(warmup)
    workloads.write_inputs(workloads.WARMUP.raw(0), warmup)

    env = {k: v for k, v in os.environ.items() if not k.startswith("OCEVAL_")}
    env.update(
        PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )

    def child(*argv: str) -> str:
        try:
            done = subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"{os.path.basename(argv[0])} ran past the run's {TIMEOUT_S} s")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail(f"{os.path.basename(argv[0])} exited with code {done.returncode}")
        return lines[-1]

    setups = []
    for k in range(SETUPS):
        out = ["--out", os.path.join(work, "inputs")] if k == 0 else []
        setups.append(json.loads(child(os.path.join(HERE, "workloads.py"), "--workload", workload.name,
                                       "--seed", str(args.seed), *out)))
    setup_times = [s["import_s"] + s["generate_s"] for s in setups]
    setup_scales = [hostspeed.scale(s.pop("probes_s")) for s in setups]

    result = json.loads(child(os.path.join(HERE, "runner.py"), "--workload", workload.name,
                              "--seed", str(args.seed), "--dir", work, "--seconds", str(seconds),
                              "--trace", str(args.trace)))
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    # Every time is brought to the reference host's speed by the probes
    # taken next to it (bench/hostspeed.py): a set-up by its own process's,
    # a job by its round's, a traced layer by the traced pass's.
    if args.trace:
        # generate_fixture runs in the set-up processes, which time it themselves.
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        values = {name: value * result["trace_scale"] if units.get(name) == "s" else value
                  for name, value in result["layers"].items()}
        values["fixtures.generate_fixture_s"] = statistics.median(
            s["generate_s"] * f for s, f in zip(setups, setup_scales))
        wanted = manifest["per_layer"]
        print(f"trace: {result['spans']} spans in {os.path.join(work, 'spans.npz')}; "
              f"overhead {result['traced_s'] - result['untraced_s']:.3f} s "
              f"({result['traced_s']:.3f} s traced, {result['untraced_s']:.3f} s untraced); "
              f"skipped {result['skipped'] or 'none'}")
    else:
        values = dict(result["scaled"], peak_rss_mb=result["peak_rss_mb"],
                      setup_s=statistics.median(t * f for t, f in zip(setup_times, setup_scales)))
        wanted = manifest["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    steal_share = result["steal_ticks"] / result["all_ticks"] if result["all_ticks"] else 0.0
    print("context: " + json.dumps({
        "rounds": result["rounds"], "setup_runs_s": setups, "checks_s": result["checks_s"],
        "setup_scales": setup_scales, "run_scale": hostspeed.scale(result["probes_s"]),
        "probe_s": [min(result["probes_s"]), statistics.median(result["probes_s"]), max(result["probes_s"])],
        "wall_medians_s": dict(result["times"], setup_s=statistics.median(setup_times)),
        "steal_ticks": result["steal_ticks"], "steal_share": round(steal_share, 4),
        "nproc": os.cpu_count(), "samples_s": result["samples"],
    }))
    print(json.dumps({
        "correct": not result["wrong_output"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
