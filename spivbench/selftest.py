#!/usr/bin/env python3
"""Self-tests of the spiv benchmark.  Run from the repository root:

    python3 spivbench/selftest.py        # about two minutes on 4 cores

They check that a short run of every workload prints every metric that
BENCHMARK.json names, with its unit, and no failure; that a corrupted
reference verdict is reported as a failure; and that a seed fixes the
request sequence byte for byte.
"""
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the runner, for its build and paths)

BENCH_DIR = os.path.join(ROOT, ".bench_build")
SCRATCH = os.path.join(BENCH_DIR, "selftest")
REFERENCE = os.path.join(HERE, "reference_verdicts.tsv")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(workload, trace, seconds, seed=3, extra=()):
    """Run the benchmark command; return (exit code, parsed last line)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd + list(extra), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def generate(bench_bin, workload, seed, out):
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([bench_bin, "gen", "--workload", workload,
                    "--seed", str(seed), "--reference", REFERENCE,
                    "--out", out], check=True)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class MockServer:
    """A unix-socket stand-in for spiv-serve that records every byte it
    receives and answers each verify with its reference verdict."""

    def __init__(self, path, verdicts):
        self.path = path
        self.verdicts = verdicts
        self.received = b""
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen(8)
        self.thread = threading.Thread(target=self.serve)
        self.thread.start()

    def serve(self):
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as lines:
            next_id = 0
            for raw in lines:
                self.received += raw
                line = raw.decode().strip()
                if line.startswith("deadline "):
                    reply = "ok deadline=" + line.split()[1]
                else:
                    next_id += 1
                    key, status = self.verdicts[line[len("verify "):]]
                    reply = "queued id=%d\nresult id=%d status=%s key=%s" % (
                        next_id, next_id, status, key)
                conn.sendall((reply + "\n").encode())

    def close(self):
        self.thread.join(timeout=60)
        self.listener.close()


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.serve, cls.bench_bin = run.build(BENCH_DIR)
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)

    def test_spec_matches_runner(self):
        # serve-warm stays runnable but is not a benchmark workload
        # (README.md, "Workloads").
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]},
                             set(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                         list(run.END_TO_END))

    def test_short_runs_print_every_metric_without_failures(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = bench(workload, trace, seconds=2)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)

    def test_corrupted_reference_verdict_is_a_failure(self):
        work = os.path.join(SCRATCH, "corrupt")
        generate(self.bench_bin, "serve-cold", 7, work)
        with open(os.path.join(work, "requests.txt")) as f:
            first = f.readline().split()
        # Flip the verdict of the first request the run will send.
        case, mode, method, backend, engine, digits = first[:6]
        case = os.path.basename(case)[:-len(".spivcase")]
        corrupted = os.path.join(SCRATCH, "corrupted.tsv")
        flipped = 0
        with open(REFERENCE) as src, open(corrupted, "w") as dst:
            for line in src:
                cols = line.rstrip("\n").split("\t")
                if cols[1:7] == [case, mode, method, backend, engine, digits]:
                    cols[8] = "invalid" if cols[8] == "valid" else "valid"
                    flipped += 1
                dst.write("\t".join(cols) + "\n")
        self.assertEqual(flipped, 1)
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, result = bench("serve-cold", trace, seconds=1, seed=7,
                                     extra=("--reference", corrupted))
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                dirs = [os.path.join(SCRATCH, "%s-%s" % (workload, tag))
                        for tag in ("a", "b", "c")]
                for d, seed in zip(dirs, (11, 11, 12)):
                    generate(self.bench_bin, workload, seed, d)
                names = sorted(os.listdir(os.path.join(dirs[0], "cases")))
                for name in ["requests.txt", "prime.txt", "workload.txt"] + [
                        os.path.join("cases", n) for n in names]:
                    self.assertEqual(read_bytes(os.path.join(dirs[0], name)),
                                     read_bytes(os.path.join(dirs[1], name)),
                                     name)
                self.assertNotEqual(
                    read_bytes(os.path.join(dirs[0], "requests.txt")),
                    read_bytes(os.path.join(dirs[2], "requests.txt")))

    def test_same_seed_sends_byte_identical_requests(self):
        verdicts = {}
        with open(REFERENCE) as f:
            next(f)
            for line in f:
                c = line.split("\t")
                tail = "cases/%s.spivcase %s %s %s %s %s 120" % tuple(c[1:7])
                verdicts[tail] = (c[7], c[8])
        sent = []
        for tag in ("a", "b"):
            work = os.path.join(SCRATCH, "send-" + tag)
            generate(self.bench_bin, "exact-eqsmt", 5, work)
            sock = os.path.join(work, "mock.sock")
            server = MockServer(sock, verdicts)
            try:
                result = subprocess.run(
                    [self.bench_bin, "load", "--work", work, "--reference",
                     REFERENCE, "--socket", sock, "--list", "requests",
                     "--seconds", "1"],
                    stdout=subprocess.PIPE, text=True, timeout=120, check=True)
            finally:
                server.close()
            self.assertEqual(json.loads(result.stdout)["failed"], 0)
            with open(os.path.join(work, "requests.txt")) as f:
                expected = "deadline 100\n" + "".join(
                    "verify " + line for line in f)
            self.assertEqual(server.received.decode(), expected)
            sent.append(server.received)
        self.assertEqual(sent[0], sent[1])


if __name__ == "__main__":
    unittest.main(verbosity=2)
