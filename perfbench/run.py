#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload paper_uniform --seed 7 \
        --seconds 10 --trace 0

Builds the agingsim library, agingd and the harness from the sources of
this checkout (Release, into .bench_build/perfbench), runs the workload for
--seconds with inputs generated from --seed, checks its outputs, and prints
as the last line of stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics of a traced run (see layers.py). A JSON line just
before it carries context: the sim_digest of every simulated statistic,
the calibrated spin-loop rate, the kernel the defaults resolve to, the
failed fraction and workload-specific figures. The exit code is 0 only when
every check passed. See README.md for workloads and metric definitions.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the source tree as it was

import layers  # noqa: E402

WORKLOADS = ("paper_uniform", "paper_fir", "mc_campaign", "serve_mix")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the harness and agingd; returns the
    directory holding both binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no agingsim sources under {ROOT}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "perfbench_harness", "agingd"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def harness_env():
    """The caller's environment minus every AGINGSIM_* knob, so the program
    runs with its defaults whatever the shell has set."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("AGINGSIM_")}


def run_group(cmd, timeout):
    """Runs the harness in its own process group and, once it has exited
    (or timed out), kills and reaps whatever it left behind (a daemon)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=harness_env(),
                            stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"harness timed out after {timeout:.0f} s")
        return -1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def end_to_end(result):
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "wall_s": statistics.median(result["job_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run(args):
    """Runs one workload; returns (result dict, metrics dict)."""
    bin_dir = build()
    started = time.monotonic()
    keep = args.out is not None
    out_dir = args.out or tempfile.mkdtemp(
        prefix=f"{args.workload}-", dir=os.path.dirname(build_dir()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        # Relative paths keep agingd's socket path short.
        rel_out = os.path.relpath(out_dir, ROOT)
        cmd = [os.path.join(bin_dir, "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", rel_out,
               "--agingd", os.path.relpath(os.path.join(bin_dir, "agingd"),
                                           ROOT)]
        if args.tiny:
            cmd.append("--tiny")
        budget = max(30.0, 170.0 - (time.monotonic() - started))
        returncode = run_group(cmd, budget)
        if returncode != 0:
            raise RuntimeError(f"harness exited with {returncode}")
        with open(os.path.join(out_dir, "result.json")) as f:
            result = json.load(f)
        if args.trace:
            values = layers.per_layer(result, out_dir)
            units = dict(layers.PER_LAYER)
        else:
            values = end_to_end(result)
            units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        return result, metrics
    finally:
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="test-sized inputs (the benchmark's own tests)")
    p.add_argument("--out", help="keep the harness's files in this directory")
    args = p.parse_args()

    try:
        result, metrics = run(args)
    except Exception as e:  # noqa: BLE001 - any failure means no result
        log(f"failed: {e}")
        return 1
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"])
    for f in result["failures"]:
        log(f"check failed: {f}")
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "sim_digest": result["sim_digest"],
        "kernel": result["kernel"],
        "threads": result["threads"],
        "spin_iter_per_us": result["spin_iter_per_us"],
        "failed_frac": failed / attempted,
        "jobs": len(result["job_s"]) + len(result["traced_job_s"]),
        **result["context"],
    }
    print(json.dumps({"context": context}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
