#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

Run from the repository root (builds the benchmark first, as run.py does):

    python3 simbench/test_simbench.py

Each test drives the simbench binary with one-second runs (three trials) of
meta_kv_linked, the workload with the shorter trials.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402

WORKLOAD = "meta_kv_linked"
DEFAULT_SEED = 7
SCRATCH = os.path.join(bench_run.BUILD, "test-scratch")


def simbench(*args, reference=None):
    """Run the binary; return (stdout, parsed JSON result from the last line)."""
    command = [bench_run.BINARY, "--workload", WORKLOAD, "--seconds", "1",
               "--reference", reference or os.path.join(HERE, "reference.txt"),
               *map(str, args)]
    out = subprocess.run(command, capture_output=True, text=True, check=True)
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def simulated_outputs(stdout):
    """The `simulated outputs` block of a run's report, as a dict."""
    lines = stdout.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("simulated outputs"))
    fields = {}
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        field, value = line.split()
        fields[field] = value
    return fields


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SimbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not bench_run.build():
            raise RuntimeError("simbench build failed")
        os.makedirs(SCRATCH, exist_ok=True)

    def test_same_seed_gives_identical_outputs(self):
        outputs = {}
        for seed in (DEFAULT_SEED, 12):
            first, r1 = simbench("--seed", seed, "--trace", 0)
            second, r2 = simbench("--seed", seed, "--trace", 0)
            self.assertTrue(r1["correct"] and r2["correct"])
            self.assertEqual(r1["failed"], 0)
            outputs[seed] = simulated_outputs(first)
            self.assertEqual(outputs[seed], simulated_outputs(second))
        # The seed reaches the trace: another seed serves other ops.
        self.assertNotEqual(outputs[DEFAULT_SEED], outputs[12])

    def test_perturbed_reference_counts_every_op_failed(self):
        perturbed = os.path.join(SCRATCH, "perturbed-reference.txt")
        with open(os.path.join(HERE, "reference.txt")) as f:
            lines = f.read().splitlines()
        key = f"{WORKLOAD} {DEFAULT_SEED} counters.cache_hits "
        index = next(i for i, l in enumerate(lines) if l.startswith(key))
        lines[index] = key + str(int(lines[index][len(key):]) + 1)
        with open(perturbed, "w") as f:
            f.write("\n".join(lines) + "\n")
        for seed in (DEFAULT_SEED, 12):  # direct check, and default-seed check
            stdout, result = simbench("--seed", seed, reference=perturbed)
            self.assertFalse(result["correct"])
            self.assertGreater(result["attempted"], 0)
            self.assertEqual(result["failed"], result["attempted"])
            self.assertIn("counters.cache_hits", stdout)

    def test_traced_run_keeps_simulated_outputs(self):
        untraced, r0 = simbench("--seed", DEFAULT_SEED, "--trace", 0)
        traced, r1 = simbench("--seed", DEFAULT_SEED, "--trace", 1,
                              "--spans", os.path.join(SCRATCH, "spans.tsv"))
        self.assertTrue(r0["correct"] and r1["correct"])
        self.assertEqual(r1["failed"], 0)
        self.assertEqual(simulated_outputs(untraced), simulated_outputs(traced))

    def test_metrics_match_benchmark_json(self):
        spec = benchmark_json()
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            _, result = simbench("--seed", DEFAULT_SEED, "--trace", trace)
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in declared})
            if trace == 0:
                self.assertTrue(all(m["value"] > 0
                                    for m in result["metrics"].values()))

    def test_reference_covers_default_and_held_out_seeds(self):
        with open(os.path.join(HERE, "reference.txt")) as f:
            entries = {tuple(l.split()[:2]) for l in f
                       if l.strip() and not l.startswith("#")}
        for workload in benchmark_json()["workloads"]:
            seeds = {seed for name, seed in entries if name == workload["name"]}
            self.assertEqual(len(seeds), 2, workload["name"])

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "simbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "simbench/run.py", "--workload", WORKLOAD,
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
