#!/usr/bin/env python3
"""The nowlb benchmark: modelled efficiency and simulator cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sor_loaded --seed 0 --seconds 10 --trace 0

It builds perfbench/ (a Release tree, and a gprof tree for traced runs)
under .bench_build/, runs the nowlb-perfbench driver, and prints one JSON
line last: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, measured untraced; with --trace 1
they are the per-layer ones, from a hub-attached pass, the
real-arithmetic verification pass and a gprof profile. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import gprof_layers  # noqa: E402  (perfbench/ is the script's directory)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("sor_loaded", "mm_oscillating", "fuzz_faults")
FIGURES = ("sor_loaded", "mm_oscillating")
DRIVER = "nowlb-perfbench"


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(name, extra):
    """Configure (once) and build one tree; return the driver's path."""
    tree = os.path.join(BUILD_ROOT, name)
    if not any(os.path.exists(os.path.join(tree, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", tree, *gen,
                        "-DCMAKE_BUILD_TYPE=Release", *extra],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", tree, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(tree, DRIVER)


def drive(binary, mode, args, cwd=None):
    """Run the driver in one mode; return its last stdout line as JSON."""
    cmd = [binary, "--mode=" + mode, "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s --mode=%s failed (exit %d)"
                           % (DRIVER, mode, proc.returncode))
    return json.loads(lines[-1])


def fingerprint(binary):
    """Host and build stamp; refuses anything but a Release build."""
    info = subprocess.run([binary, "--mode=info"], check=True,
                          capture_output=True, text=True).stdout
    info = json.loads(info.strip().splitlines()[-1])
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    stamp = {"nproc": os.cpu_count(), "compiler": info["compiler"],
             "build_type": info["build_type"], "cpu": cpu}
    if info["build_type"] != "Release":
        raise RuntimeError("refusing to report from a %r build"
                           % info["build_type"])
    return stamp


def tally(*parts):
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    return attempted, failed


def end_to_end(release, args):
    timed = drive(release, "timed", args)
    parts = [timed]
    if args.workload in FIGURES:
        parts.append(drive(release, "verify", args))
    attempted, failed = tally(*parts)
    log("%d timed runs" % len(timed["host_s"]))
    metrics = {
        "host_s": (statistics.median(timed["host_s"]), "s"),
        "setup_s": (statistics.median(timed["setup_s"]), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "virtual_s": (timed["virtual_s"], "sim_s"),
        "eff": (timed["eff"], "ratio"),
        "eff_static": (timed["eff_static"], "ratio"),
        "pass_share": (1.0 - failed / attempted, "share"),
    }
    return attempted, failed, metrics


def profile(gprof_bin, args):
    """Run the -pg driver in a scratch directory; return layer metrics."""
    work = tempfile.mkdtemp(prefix="gprof-", dir=BUILD_ROOT)
    try:
        run = drive(gprof_bin, "profile", args, cwd=work)
        return gprof_layers.layer_metrics(
            gprof_bin, os.path.join(work, "gmon.out"), run["profile.runs"],
            run["profile.wall_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)


# Driver output keys that are bookkeeping or end-to-end, not per-layer.
NOT_PER_LAYER = {"attempted", "failed", "host_s", "setup_s", "peak_rss_mb",
                 "virtual_s", "eff", "eff_static", "profile.runs",
                 "profile.wall_s"}
RATIOS = {"model.trace_eff", "model.cp_coverage", "obs.overhead",
          "heldout.eff", "heldout.eff_static"}


def unit_of(name):
    """The unit of a per-layer metric, from its name."""
    if name.startswith(("host_share.", "check.move_reach_share.")):
        return "share"
    if name in RATIOS:
        return "ratio"
    if name.endswith("_pts"):
        return "pts"
    if name.endswith("_ns_per_event"):
        return "ns"
    if name.endswith("_s"):
        # Simulated seconds from the model; everything else is host time.
        virtual = name.startswith(("model.", "heldout.")) or \
            name == "lb.period_s"
        return "sim_s" if virtual else "s"
    return "count"


def per_layer(release, gprof_bin, args):
    half = argparse.Namespace(**vars(args))
    half.seconds = args.seconds / 2
    timed = drive(release, "timed", half)
    hub = drive(release, "hub", half)
    parts = [timed, hub]
    fig = args.workload in FIGURES
    if fig:
        parts.append(drive(release, "verify", args))
    attempted, failed = tally(*parts)

    values = {}
    # A later pass wins: the verification pass times the figure's own
    # run_scenario and oracle. Failure counts add up over the passes.
    for part in parts:
        for key, v in part.items():
            if key.startswith("check.failures."):
                values[key] = values.get(key, 0) + v
            elif key not in NOT_PER_LAYER:
                values[key] = v
    # check::run_scenario builds its cluster internally and hides its
    # competing loads, and the figures generate no scenarios: those
    # layer calls are not made separately, so they read 0.
    for key in ("lb.cluster_build_s", "model.competing_s",
                "check.generate_s"):
        values.setdefault(key, 0.0)
    values["sim.host_ns_per_event"] = \
        1e9 * timed["sim.run_s"] / max(hub["sim.events"], 1)
    values["model.eff_gap_pts"] = 100 * (hub["model.trace_eff"] - timed["eff"])
    values["model.eff_gain_pts"] = 100 * (timed["eff"] - timed["eff_static"])
    if not fig:
        # The sweep is already the seed's own configuration.
        for key in ("virtual_s", "eff", "eff_static"):
            values["heldout." + key] = timed[key]

    m = {k: (v, unit_of(k)) for k, v in values.items()}
    m.update(profile(gprof_bin, args))
    return attempted, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        os.makedirs(BUILD_ROOT, exist_ok=True)
        release = build("release", [])
        # Both trees are built up front, so only a checkout's first run
        # pays for compilation.
        gprof_bin = build("gprof", ["-DNOWLB_BENCH_GPROF=ON"])
        stamp = fingerprint(release)
        if args.trace:
            attempted, failed, metrics = per_layer(release, gprof_bin, args)
        else:
            attempted, failed, metrics = end_to_end(release, args)
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            KeyError, ValueError) as e:
        log("error: %s" % e)
        return 1

    print("host: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
