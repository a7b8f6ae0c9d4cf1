#!/usr/bin/env python3
"""Self-tests of the benchmark harness (not of countgen).

Run from the repository root with ``python3 bench/selftest.py`` (or
``python3 -m pytest bench/selftest.py``); takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import product
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def prepared(name, seed):
    workload = workloads.WORKLOADS[name]()
    work_dir = run.BENCH_DIR / "work" / name
    work_dir.mkdir(parents=True, exist_ok=True)
    workload.prepare(seed, work_dir)
    _, ctx = run.set_up(workload)
    return workload, ctx


def main_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_flagship_dfa_text_matches_its_regex(self):
        trans = {}
        for line in workloads.FLAGSHIP_DFA.splitlines():
            if line.startswith("trans"):
                _, q, sym, target = line.split()
                trans[int(q), sym] = int(target)
        for length in range(8):
            for letters in product("abc", repeat=length):
                q = 0
                for sym in letters:
                    q = trans[q, sym]
                word = "".join(letters)
                self.assertEqual(q in (3, 8), oracles.in_flagship(word), word)

    def test_smoke_run_of_each_workload_passes_the_gate(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload, ctx = prepared(name, run.DEFAULT_SEED)
                records = run.run_pass(
                    workload, ctx, run.DEFAULT_SEED, lambda done: done < run.GOLDEN_ROUNDS
                )
                self.assertEqual(len(records), run.GOLDEN_ROUNDS * len(workload.kinds))
                self.assertEqual(run.count_errors(workload, run.DEFAULT_SEED, records), 0)

    def test_wrong_sampler_is_counted_as_an_error(self):
        workload, ctx = prepared("regular", 5)
        with mock.patch.object(ctx.cg.dfa, "dfa_sample", lambda a, n, src, **kw: "a" * n):
            records = run.run_pass(workload, ctx, 5, lambda done: done < 1)
        wrong = [r["kind"] for r in records if r["error"] is not None]
        self.assertEqual(wrong, ["dfa_sample"])
        self.assertEqual(run.count_errors(workload, 5, records), 1)

    def test_changed_tape_breaks_the_golden_digest(self):
        workload, ctx = prepared("cfl", run.DEFAULT_SEED)
        records = run.run_pass(
            workload, ctx, run.DEFAULT_SEED, lambda done: done < run.GOLDEN_ROUNDS
        )
        records[0]["bits"] += 1
        self.assertEqual(run.count_errors(workload, run.DEFAULT_SEED, records), len(records))

    def test_printed_metric_names_equal_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    code, result = main_output(
                        "--workload", name, "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
                        "--trace", str(trace),
                    )
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertEqual(
                        {m: result["metrics"][m]["unit"] for m in result["metrics"]},
                        {m["name"]: m["unit"] for m in SPEC[section]},
                    )

    def test_seed_changes_the_schedule_but_not_the_metric_names(self):
        for name, cls in workloads.WORKLOADS.items():
            workload = cls()
            first = [next(run.schedule(workload, seed)) for seed in (1, 2)]
            self.assertNotEqual(first[0], first[1], name)
        names = [
            set(main_output("--workload", "cfl", "--seed", seed, "--seconds", "1")[1]["metrics"])
            for seed in ("1", "2")
        ]
        self.assertEqual(names[0], names[1])

    def test_scaling_cancels_a_uniformly_slower_host(self):
        times, kernels = [0.2, 0.5, 0.1], [0.003, 0.0031, 0.0029, 0.003]
        slow = run.scaled([2 * t for t in times], [2 * k for k in kernels])
        for a, b in zip(run.scaled(times, kernels), slow):
            self.assertAlmostEqual(a, b)
        # a slower request on an unchanged host shows in full
        self.assertAlmostEqual(
            run.scaled([0.4, 0.5, 0.1], kernels)[0], 2 * run.scaled(times, kernels)[0]
        )

    def test_exits_nonzero_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / run.BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
            done = subprocess.run(
                SPEC["command"] + ["--workload", "regular", "--seed", "0", "--seconds", "1",
                                   "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
