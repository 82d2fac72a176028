#!/usr/bin/env python3
"""Run one spiv benchmark workload and print its metrics as one JSON line.

    python3 spivbench/run.py --workload serve-warm --seed 1 --seconds 25 \
        --trace 0

Run from the root of a spiv source tree.  The first run builds spiv-serve
and the benchmark's own binary, spivbench (Release), under .bench_build/;
later runs reuse
that build.

--trace 0  spawns the real spiv-serve on a unix socket and measures the
           end-to-end metrics with no tracing anywhere.
--trace 1  replays the same request sequence against an in-process server
           whose handler times every layer call, and prints the per-layer
           metrics (see spivbench/README.md).

Every verdict is checked against spivbench/reference_verdicts.tsv.  The
last line of standard output is the JSON result.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
JOBS = 4  # spiv-serve --jobs, and the build's parallelism

WORKLOADS = ("serve-warm", "serve-cold", "exact-eqsmt")
# Server spawns per run whose set-up time is measured; the last one serves
# the timed requests.
SETUP_REPEATS = {"serve-warm": 3, "serve-cold": 21, "exact-eqsmt": 21}
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("server_peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def log(msg):
    print("spivbench: " + msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment for every child: no SPIV_* overrides."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SPIV_")}


def build(bench_dir):
    """Configure once, then build spiv-serve and spivbench."""
    build_dir = os.path.join(bench_dir, "spivbench")
    os.makedirs(bench_dir, exist_ok=True)
    with open(os.path.join(bench_dir, "build.log"), "a") as out:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", build_dir, "--target", "spiv-serve",
                      "spivbench", "--parallel", str(JOBS)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                raise BenchError("build failed (see %s)" % out.name)
    serve = os.path.join(build_dir, "spiv", "src", "service", "spiv-serve")
    bench_bin = os.path.join(build_dir, "spivbench")
    return serve, bench_bin


def run_json(cmd, timeout, cwd=None):
    """Run a spivbench command and parse its one-line JSON output."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout, cwd=cwd, env=clean_env())
    if proc.returncode != 0:
        raise BenchError("%s failed: %s" % (cmd[1], proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wait_ready(sock_path, proc, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise BenchError("spiv-serve exited with %d" % proc.returncode)
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(sock_path)
            return
        except OSError:
            time.sleep(0.0001)
        finally:
            s.close()
    raise BenchError("spiv-serve did not listen within %.0f s" % timeout)


def stop_server(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Tally:
    """Requests attempted and failed over every load a run makes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]


def run_untraced(args, serve, bench_bin, work, reference):
    """Spawn spiv-serve SETUP_REPEATS times; time each set-up; serve the
    timed closed loop from the last one."""
    props = read_props(work)
    load = [bench_bin, "load", "--work", work, "--reference", reference]
    tally = Tally()
    setups = []
    proc = None
    server_log = open(os.path.join(work, "server.log"), "w")
    try:
        for i in range(SETUP_REPEATS[args.workload]):
            sock = os.path.join(work, "serve-%d.sock" % i)
            cmd = [serve, "--listen", sock, "--jobs", str(JOBS)]
            if props["store"]:
                cmd += ["--cache-dir", os.path.join(work, "store-%d" % i)]
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=work, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL,
                                    stderr=server_log, env=clean_env())
            wait_ready(sock, proc)
            if args.workload == "serve-warm":
                tally.add(run_json(load + ["--socket", sock, "--list", "prime"],
                                   timeout=120))
            setups.append(time.perf_counter() - t0)
            if i + 1 < SETUP_REPEATS[args.workload]:
                stop_server(proc)
        timed = run_json(load + ["--socket", sock, "--list", "requests",
                                 "--seconds", str(args.seconds)],
                         timeout=args.seconds + 120)
        tally.add(timed)
        rss = peak_rss_mb(proc.pid)
    finally:
        if proc is not None:
            stop_server(proc)
        server_log.close()
    if timed["completed"] == 0:
        raise BenchError("no request completed")
    per_slice = timed["completed"] // props["windows"]
    log("%s: %d timed requests in %.3f s, statistics are the best of %d "
        "slice(s) of %d; per slice latency_p90_ms has %d samples above it "
        "and latency_p99_ms %d; set-up times %s" % (
            args.workload, timed["completed"], timed["wall_s"],
            props["windows"], per_slice, per_slice // 10, per_slice // 100,
            ", ".join("%.4f" % s for s in setups)))
    values = {
        "setup_s": statistics.median(setups),
        "throughput_rps": timed["throughput_rps"],
        "latency_p50_ms": timed["p50_ms"],
        "latency_p90_ms": timed["p90_ms"],
        "latency_p99_ms": timed["p99_ms"],
        "server_peak_rss_mb": rss,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return tally, metrics


def run_traced(args, bench_bin, work, reference, bench_dir):
    trace_dir = os.path.join(bench_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, args.workload + ".jsonl")
    # Two passes (untraced, then traced) share the run's time.
    result = run_json([bench_bin, "replay", "--work", work,
                       "--reference", reference,
                       "--seconds", str(args.seconds / 2.0),
                       "--trace-out", trace_out],
                      timeout=2 * args.seconds + 150)
    tally = Tally()
    tally.add(result)
    for note in result["notes"]:
        log("%s: %s" % (args.workload, note))
    log("%s: spans written to %s" % (args.workload, trace_out))
    return tally, result["metrics"]


def read_props(work):
    with open(os.path.join(work, "workload.txt")) as f:
        name, cycle, store, connections, unit, windows = f.read().split()
    return {"name": name, "cycle": cycle == "1", "store": store == "1",
            "connections": int(connections), "unit": int(unit),
            "windows": int(windows)}


def source_identity():
    """The git commit when the tree is a checkout, else a digest of src/."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit or "unknown", digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference",
                        default=os.path.join(HERE, "reference_verdicts.tsv"),
                        help="verdict table to check against")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.exists(os.path.join(ROOT, "src", "service",
                                       "spiv_serve.cpp")):
        log("no spiv source tree at %s" % ROOT)
        return 2
    bench_dir = os.path.join(ROOT, ".bench_build")
    reference = os.path.abspath(args.reference)
    work = os.path.join(bench_dir, "work", "%s-s%d-%d" % (
        args.workload, args.seed, os.getpid()))
    try:
        serve, bench_bin = build(bench_dir)
        shutil.rmtree(work, ignore_errors=True)
        subprocess.run([bench_bin, "gen", "--workload", args.workload,
                        "--seed", str(args.seed), "--reference", reference,
                        "--out", work], check=True, env=clean_env())
        if args.trace:
            tally, metrics = run_traced(args, bench_bin, work, reference,
                                        bench_dir)
        else:
            tally, metrics = run_untraced(args, serve, bench_bin, work,
                                          reference)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in tally.failures:
        log("FAILED %s" % failure)
    commit, src_digest = source_identity()
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": platform.node(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": src_digest,
            "build_type": BUILD_TYPE}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(bench_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(dict(meta, **result)) + "\n")
    print("meta " + json.dumps(meta))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
