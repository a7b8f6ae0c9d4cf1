#!/usr/bin/env python3
"""countgen benchmark: one workload, one process, one closed-loop client.

Usage:
    python3 bench/run.py --workload {regular,cfl,cli} [--seed N]
                         [--seconds S] [--trace 0|1]

With ``--trace 0`` the workload is set up several times (each time from
a fresh ``import countgen``), then whole rounds of requests run until
``--seconds`` have passed, and the end-to-end metrics are printed.  Set-up
and request times are CPU time of this process (``time.process_time``):
the library is single-threaded and does no I/O while timed, so on an idle
core this equals wall time, and it leaves out time the host gives the
core to other tenants.  Each time is then scaled to a reference host
speed by the calibration kernel of ``calibrate.py``, run between timed
intervals; the raw CPU figures are printed beside the metrics.  With
``--trace 1`` the first ``max(2, seconds // 5)`` rounds run twice, once
plain and once with spans around every public entry point, and the
per-layer metrics are printed; both passes must produce the same output
digest.  Every request is checked against an independent reference; the
last line of standard output is one JSON object, and the exit code is 1
when any request failed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibrate
import tracing
from workloads import WORKLOADS, import_countgen

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 40  # run_seconds in BENCHMARK.json
SETUP_REPEATS = 15
CLOCK = calibrate.CLOCK  # see the module docstring
SPEED_WINDOW = 3  # kernel runs on each side of a timed interval that set its speed
GOLDEN_ROUNDS = 2  # rounds covered by the golden tape digest
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


def schedule(workload, seed: int):
    """Endless rounds of requests: every kind once per round, seeded order."""
    rng = random.Random(f"countgen-bench:{workload.name}:{seed}")
    index = 0
    while True:
        kinds = list(workload.kinds)
        rng.shuffle(kinds)
        yield [(index + i, kind, workload.params(kind, rng)) for i, kind in enumerate(kinds)]
        index += len(kinds)


def set_up(workload):
    """Fresh import plus workload set-up; returns (seconds, context)."""
    start = CLOCK()
    cg = import_countgen(SRC_DIR)
    ctx = workload.setup(cg)
    return CLOCK() - start, ctx


def scaled(times, kernels) -> list:
    """``times`` at the reference speed of ``calibrate.REFERENCE_S``.

    ``kernels[i]`` is the kernel time measured just before interval i and
    ``kernels[i + 1]`` just after it.  The interval's speed is the median
    kernel time over ``SPEED_WINDOW`` runs on each side, so one stray
    kernel reading moves nothing, while a slow or fast spell of the host
    lasting a few intervals slows or speeds the intervals and their
    kernels alike.
    """
    assert len(kernels) == len(times) + 1
    return [
        t * calibrate.REFERENCE_S
        / statistics.median(kernels[max(0, i + 1 - SPEED_WINDOW): i + 1 + SPEED_WINDOW])
        for i, t in enumerate(times)
    ]


def run_pass(workload, ctx, seed: int, more_rounds, tracer=None) -> list:
    """Run rounds while ``more_rounds(rounds_done)``; one record per request.

    ``latency`` is the request's CPU time, ``scaled`` the same at the
    reference speed, and ``wall`` its wall-clock time, the clock of the
    tracer's spans.
    """
    records, kernels = [], []
    for done, requests in enumerate(schedule(workload, seed)):
        if not more_rounds(done):
            break
        for index, kind, p in requests:
            kernels.append(calibrate.kernel_seconds())
            if tracer is not None:
                tracer.request = index
            start, wall_start = CLOCK(), time.perf_counter()
            try:
                raw = workload.call(ctx, kind, p)
                latency, wall = CLOCK() - start, time.perf_counter() - wall_start
                value, bits, fail, error = workload.check(ctx, kind, p, raw)
            except Exception as exc:  # a raising request is an error, not a crash
                latency, wall = CLOCK() - start, time.perf_counter() - wall_start
                value, bits, fail = f"raised {type(exc).__name__}", 0, False
                error = "".join(traceback.format_exception_only(exc)).strip()
            if error is not None:
                print(f"# error in request {index} ({kind}): {error}", file=sys.stderr)
            records.append(
                {"index": index, "round": done, "kind": kind, "params": p, "value": value,
                 "bits": bits, "fail": fail, "error": error, "latency": latency,
                 "wall": wall}
            )
    kernels.append(calibrate.kernel_seconds())
    for r, t in zip(records, scaled([r["latency"] for r in records], kernels)):
        r["scaled"] = t
    return records


def digest(records) -> str:
    tape = hashlib.sha256()
    for r in records:
        line = json.dumps([r["index"], r["kind"], r["params"], r["value"], r["bits"]], sort_keys=True)
        tape.update(line.encode() + b"\n")
    return tape.hexdigest()


def golden_digest(workload, records) -> str:
    return digest(records[: GOLDEN_ROUNDS * len(workload.kinds)])


def count_errors(workload, seed: int, records) -> int:
    """Requests that raised or failed their check; all of them on a tape break."""
    if seed == DEFAULT_SEED and golden_digest(workload, records) != GOLDEN.get(workload.name):
        print(f"# golden tape digest mismatch on {workload.name}", file=sys.stderr)
        return len(records)
    return sum(r["error"] is not None for r in records)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def kind_report(records) -> None:
    by_kind = defaultdict(list)
    for r in records:
        by_kind[r["kind"]].append(r)
    for kind, rs in [*by_kind.items(), ("(all kinds)", records)]:
        print(
            f"#   {kind:16s} requests={len(rs):4d} "
            f"p50_ms={statistics.median(r['latency'] for r in rs) * 1e3:10.3f} "
            f"(scaled {statistics.median(r['scaled'] for r in rs) * 1e3:10.3f}) "
            f"bits/request={sum(r['bits'] for r in rs) / len(rs):12.1f} "
            f"fails={sum(r['fail'] for r in rs)} errors={sum(r['error'] is not None for r in rs)}"
        )


def untraced(workload, seed, seconds):
    setups, kernels = [], [calibrate.kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        elapsed, ctx = set_up(workload)
        setups.append(elapsed)
        kernels.append(calibrate.kernel_seconds())
    wall_start = time.perf_counter()
    deadline = wall_start + seconds
    records = run_pass(
        workload, ctx, seed,
        lambda done: done < GOLDEN_ROUNDS or time.perf_counter() < deadline,
    )
    wall = time.perf_counter() - wall_start
    latencies = [r["scaled"] for r in records]
    round_times = defaultdict(float)
    for r in records:
        round_times[r["round"]] += r["scaled"]
    errors = count_errors(workload, seed, records)
    tail = percentile(latencies, workload.tail_percentile)
    beyond = sum(x > tail for x in latencies)
    print(f"# {workload.name} seed={seed} untraced: {len(records)} requests "
          f"in {len(records) // len(workload.kinds)} rounds, tape {digest(records)[:16]}")
    print(f"#   latency_tail_ms is p{workload.tail_percentile} ({beyond} requests beyond it)")
    cpu = [r["latency"] for r in records]
    print(f"#   timed phase: {wall:.2f} s wall, {sum(cpu):.2f} s CPU in requests; "
          f"unscaled CPU p50 {statistics.median(cpu) * 1e3:.3f} ms, "
          f"p{workload.tail_percentile} {percentile(cpu, workload.tail_percentile) * 1e3:.3f} ms, "
          f"set-up {statistics.median(setups):.4f} s; median kernel "
          f"{statistics.median(kernels) * 1e3:.3f} ms (reference {calibrate.REFERENCE_S * 1e3:g} ms)")
    kind_report(records)
    metrics = {
        "setup_s": (statistics.median(scaled(setups, kernels)), "s"),
        "ops_per_s": (len(workload.kinds) / statistics.median(round_times.values()), "requests/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return records, errors, metrics


def traced(workload, seed, seconds):
    rounds = max(GOLDEN_ROUNDS, seconds // 5)
    _, ctx = set_up(workload)
    plain = run_pass(workload, ctx, seed, lambda done: done < rounds)
    tracer = tracing.Tracer(ctx.cg)
    tracer.install()
    try:
        spanned = run_pass(workload, ctx, seed, lambda done: done < rounds, tracer)
    finally:
        tracer.uninstall()
    errors = count_errors(workload, seed, plain) + count_errors(workload, seed, spanned)
    if digest(plain) != digest(spanned):
        print("# traced and untraced tapes differ", file=sys.stderr)
        errors = len(plain) + len(spanned)
    records = plain + spanned
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-{seed}.tsv")

    fail = ctx.cg.coins.FAIL
    layers = tracing.layer_metrics(tracer, fail)
    layers["trace.overhead_ratio"] = (
        sum(r["scaled"] for r in spanned) / sum(r["scaled"] for r in plain)
    )
    layers["fail_ratio"] = sum(r["fail"] for r in records) / len(records)
    layers["error_ratio"] = errors / len(records)
    print(f"# {workload.name} seed={seed} traced: {len(spanned)} requests in {rounds} rounds, "
          f"{len(tracer.spans)} spans, tape {digest(spanned)[:16]}")
    kind_report(spanned)
    kind_of = {r["index"]: r["kind"] for r in spanned}
    breakdown = tracing.kind_breakdown(tracer, kind_of)
    latency_of = defaultdict(float)
    for r in spanned:
        latency_of[r["kind"]] += r["wall"]
    for kind, entry in breakdown.items():
        top = sorted(entry["self"].items(), key=lambda kv: -kv[1])[:3]
        shares = ", ".join(f"{name} {t / latency_of[kind]:.0%}" for name, t in top)
        ratio = len(entry["distinct"]) / entry["oracle"] if entry["oracle"] else 0.0
        print(f"#   {kind:16s} oracle_distinct_ratio={ratio:.4f} "
              f"(of {entry['oracle']} calls); self time: {shares}")
    busiest = max((k for k in layers if k.endswith("_s")), key=layers.get)
    print(f"#   largest self time: {busiest} = {layers[busiest]:.3f} s")
    units = {"_s": "s", "_calls": "count", "_ratio": "ratio"}
    metrics = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, "ns/bit" if name == "coins.ns_per_bit" else unit)
    return records, errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC_DIR / "countgen").is_dir():
        print(f"error: no countgen sources under {SRC_DIR}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work_dir = BENCH_DIR / "work" / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    workload.prepare(args.seed, work_dir)
    run = traced if args.trace else untraced
    records, errors, metrics = run(workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": errors == 0,
        "attempted": len(records),
        "failed": errors,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
