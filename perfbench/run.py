#!/usr/bin/env python3
"""The repository benchmark: host-time metrics of the fast engine.

Run from the repository root::

    python3 perfbench/run.py --workload rodinia-shield --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``bench_workloads.py``): ``rodinia-shield``,
``fuzz-campaign`` and ``serve-tenants``.  The seed is the only input:
each workload generates its inputs from it.

``--trace 0`` measures the end-to-end metrics with no instrumentation
but one clock pair per ``GPU.run``.  It repeats *rounds* over the same
inputs until ``--seconds`` have passed; each round starts from the cache
state of a fresh process (warm device pool and warm memos dropped).
Throughputs and launch percentiles are taken over all rounds together.
Set-up time is measured in separate short-lived processes, several
times, and reported as the median.  Host times are scaled by the host's
speed, probed between launches with a fixed piece of work that runs no
simulator code (see ``PROBE_NOMINAL_S``).

``--trace 1`` alternates untraced and traced rounds over the same inputs
and reports per-layer metrics from the traced ones (per round), the
traced run's reconciliation residual and the tracing overhead.  Spans
are written to ``perfbench/out/``.

Every run checks its outputs: per-item results must repeat in every
round, must match ``digests.json`` for the seeds recorded there, and
must pass the checks that hold for any seed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 if correct, 1 on a failed check, 2 when the
benchmark cannot run (missing sources, a non-default ``REPRO_*``
setting).

``--record-digests`` rewrites ``digests.json`` for the default and the
held-out seed; do it only when simulated behaviour is meant to change.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import bench_trace
import bench_workloads

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")

#: The default seed, and the held-out seed kept for re-checking claims
#: on data not used while tuning.  Both have recorded digests.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: Rounds of a traced run at least: one untraced, one traced.
TRACED_MIN_ROUNDS = 2

#: Set-up is measured this many times, in fresh processes.
SETUP_PROBES = 5

#: Set-up is mostly process start and imports: file reads, unmarshalling
#: and page faults, whose speed on a shared host the interpreter-only
#: host probe does not follow.  Each set-up time is scaled instead to a
#: host on which this reference process, which starts Python and imports
#: standard-library modules, is ready after SETUP_REFERENCE_NOMINAL_S.
SETUP_REFERENCE = (
    "import argparse, ast, asyncio, csv, dataclasses, decimal, difflib, "
    "dis, email.parser, fractions, hashlib, http.client, inspect, "
    "ipaddress, json, logging.handlers, multiprocessing, pickletools, "
    "pydoc, random, sqlite3, statistics, tarfile, tokenize, typing, "
    "unittest, xml.dom.minidom, zipfile; print('READY', flush=True)")
SETUP_REFERENCE_NOMINAL_S = 0.18

#: Host-time metrics are scaled to a host on which one host-speed probe
#: (``bench_trace.host_probe``) takes this long.  The host is a share of
#: a machine whose speed drifts by a third over minutes; the probe tracks
#: that drift, and it runs no simulator code, so a faster or slower
#: simulator still moves every metric by its own amount.
PROBE_NOMINAL_S = 0.005

#: A traced round fails when its self times leave more than this share
#: of its wall time unattributed (either sign).
RESIDUAL_BOUND = 0.05

#: Environment settings that silently change the workload, with the
#: values that leave it as defined here.
ENV_DEFAULTS = {"REPRO_ENGINE": ("", "fast"),
                "REPRO_SCALE": ("", "1", "1.0"),
                "REPRO_POOL_MAX_IDLE": ("", "4")}


def fail_to_run(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def guard_environment() -> None:
    bad = {k: os.environ[k] for k, ok in ENV_DEFAULTS.items()
           if os.environ.get(k, "") not in ok}
    if bad:
        fail_to_run(f"refusing to run with non-default {bad}: these change "
                    "the workload; unset them")


def import_repro() -> None:
    """Import the simulator from this checkout's ``src/`` and pin the
    fast engine."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail_to_run(f"no simulator sources at {SRC}")
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        fail_to_run(f"imported repro from {repro.__file__}, not {SRC}")
    from repro.engine import set_engine
    set_engine("fast")


def set_up(name: str, seed: int):
    """Build the workload's inputs and provision its first device."""
    from repro.device import acquire_device, release_device
    workload = bench_workloads.WORKLOADS[name](seed)
    config, shield = workload.device_args
    release_device(acquire_device(config, shield, seed=seed))
    return workload


def host_speed(probe_s) -> float:
    """How much slower than nominal the host ran while ``probe_s`` were
    taken (above 1: slower)."""
    return statistics.mean(probe_s) / PROBE_NOMINAL_S


def time_to_ready(command) -> float:
    """Seconds from starting ``command`` until it prints ``READY``."""
    start = clock()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline().strip()
            ready = clock() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()               # a no-op once the process has exited
    if code != 0 or line != "READY":
        raise RuntimeError(f"{command[2:]} failed: {line!r}, exit {code}")
    return ready


def measure_setup(args) -> list:
    """Seconds from process start to ready, in fresh processes, each
    scaled by the start-up time of a reference process run just before
    and just after it."""
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe"]
    reference = [sys.executable, "-c", SETUP_REFERENCE]
    samples = []
    for _ in range(SETUP_PROBES):
        before = time_to_ready(reference)
        ready = time_to_ready(command)
        after = time_to_ready(reference)
        samples.append(ready * SETUP_REFERENCE_NOMINAL_S * 2
                       / (before + after))
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, q):
    """The ``q``-th percentile by the Harrell-Davis estimator: a mean of
    all order statistics weighted by the Beta density around rank ``q``%.

    Launches of a few very different sizes leave gaps of a fifth between
    neighbouring order statistics near p90; a single order statistic
    jumps across such a gap when two launches swap places, the weighted
    mean moves with them smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


@dataclass
class Round:
    output: object              # bench_workloads.RoundOutput
    wall: float                 # host seconds, probing taken out
    launch_s: list              # host seconds of each GPU.run, in order
    probe_s: list               # host-speed probe times
    probe_at: list              # launches of the round before each probe
    instructions: int           # simulated warp instructions
    cell_hits: int              # memoized cell replays (must stay 0)
    traced: bool


def run_round(workload, rec, traced: bool) -> Round:
    from repro.device import reset_device_cache, warm_memo_stats
    reset_device_cache()          # a fresh process's cache state
    instr0, launch0 = rec.instructions, len(rec.launch_s)
    probe0, probing0 = len(rec.probe_s), rec.probe_wall
    memo0 = rec.worker_memo["cell_hits"]
    patches = bench_trace.Patches()
    bench_trace.install_launch_clock(rec, patches)
    bench_trace.install_worker_bridge(rec, patches)
    if traced:
        rec.tracing = True
        bench_trace.install_spans(rec, patches)
    try:
        start = clock()
        output = workload.run_round(rec)
        wall = clock() - start - (rec.probe_wall - probing0)
        if traced:
            rec.harvest_all()
    finally:
        patches.undo()
        rec.tracing = False
    cell_hits = (warm_memo_stats()["cell_hits"]
                 + rec.worker_memo["cell_hits"] - memo0)
    return Round(output, wall, rec.launch_s[launch0:],
                 rec.probe_s[probe0:],
                 [at - launch0 for at in rec.probe_at[probe0:]],
                 rec.instructions - instr0, cell_hits, traced)


def check_rounds(name: str, seed: int, rounds) -> tuple:
    """(attempted, failed, messages) over every round's items.

    An output keyed ``"*"`` covers the whole round, so a bad one fails
    every item of it.
    """
    with open(DIGESTS) as fh:
        recorded = json.load(fh).get(name, {}).get(str(seed))
    reference = rounds[0].output.outputs
    attempted = failed = 0
    messages = []
    for index, rnd in enumerate(rounds):
        out = rnd.output
        attempted += out.items
        bad = dict(out.failures)
        if rnd.cell_hits:
            bad["*"] = f"{rnd.cell_hits} memoized cell replay(s)"
        for item in set(recorded or reference) | set(out.outputs):
            value = out.outputs.get(item)
            if item in bad:
                continue
            if value is None:
                bad[item] = "no output"
            elif value != reference.get(item):
                bad[item] = f"round {index} differs from round 0"
            elif recorded is not None and value != recorded.get(item):
                bad[item] = (f"output {value} != recorded "
                             f"{recorded.get(item)}")
        failed += out.items if "*" in bad else len(bad)
        messages += [f"round {index} {item}: {why}"
                     for item, why in sorted(bad.items())]
    return attempted, failed, messages


def launch_speeds(rnd, fallback: float) -> list:
    """The host speed around each launch of ``rnd``: from the two probes
    before and the two after it, so a long launch is scaled by the speed
    while it ran."""
    speeds = []
    for index in range(len(rnd.launch_s)):
        after = bisect.bisect_left(rnd.probe_at, index + 1)
        near = rnd.probe_s[max(0, after - 2):after + 2]
        speeds.append(host_speed(near) if near else fallback)
    return speeds


def end_to_end(args, rounds, name) -> dict:
    """End-to-end metrics over every round of the run.

    Throughputs divide the items and simulated instructions of all
    rounds by their summed host time, so each is the mean over the whole
    measured period rather than of a round or of its best moments.
    Launch percentiles pool every launch of every round; set-up is the
    median over fresh processes.  Each launch's host time is scaled by
    the host speed probed around it, the rest of a round's by that probed
    during the round (see ``PROBE_NOMINAL_S``).
    """
    speed = host_speed([p for r in rounds for p in r.probe_s])
    scale = [host_speed(r.probe_s) if r.probe_s else speed for r in rounds]
    wall = 0.0
    launches_ms = []
    for rnd, k in zip(rounds, scale):
        launches = [s / near for s, near in
                    zip(rnd.launch_s, launch_speeds(rnd, k))]
        wall += sum(launches) + (rnd.wall - sum(rnd.launch_s)) / k
        launches_ms += [s * 1000 for s in launches]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "serve-tenants":    # plus the runner worker
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup = measure_setup(args)
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(r.output.items for r in rounds) / wall,
        "sim_kips": sum(r.instructions for r in rounds) / wall / 1000,
        "launch_p50_ms": percentile(launches_ms, 50),
        "launch_p90_ms": percentile(launches_ms, 90),
        "peak_rss_mb": rss_kb / 1024,
    }
    print(f"  host speed     {speed:.3f}x nominal time "
          f"({sum(len(r.probe_s) for r in rounds)} probes); round walls "
          f"below are unscaled")
    q1, q2, q3 = quartiles(setup)
    print(f"  setup_s        {q2:.4f} s  (q1 {q1:.4f}  q3 {q3:.4f}  "
          f"n={len(setup)} processes)")
    q1, q2, q3 = quartiles([r.wall for r in rounds])
    print(f"  round wall     total {sum(r.wall for r in rounds):.4f} s; "
          f"median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(rounds)} "
          f"rounds; round host speeds "
          + " ".join(f"{k:.3f}" for k in scale))
    beyond = len(launches_ms) - (len(launches_ms) * 9 + 9) // 10
    print(f"  launches       {len(launches_ms)} over all rounds "
          f"({beyond} beyond p90)")
    return values


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, rnd, cache, memo) -> dict:
    """Per-layer metrics of one traced round."""
    own = rec.self_times()
    calls = rec.calls()
    launches = calls["gpu.run"]
    sim = rec.sim
    hits = cache["hits"] + rec.worker_cache["hits"]
    misses = cache["misses"] + rec.worker_cache["misses"]
    init_hits = memo["init_hits"] + rec.worker_memo["init_hits"]
    init_misses = memo["init_misses"] + rec.worker_memo["init_misses"]
    return {
        "gpu.pipeline_s": own["gpu.pipeline"],
        "gpu.pipeline_ns_per_access": _ratio(
            own["gpu.pipeline"] * 1e9, calls["gpu.pipeline"]),
        "gpu.executor_s": own["gpu.executor"],
        "gpu.executor_ns_per_instr": _ratio(
            own["gpu.executor"] * 1e9, calls["gpu.executor"]),
        "gpu.core_s": own["gpu.core"],
        "gpu.run_s": own["gpu.run"],
        "analysis.stats_s": own["analysis.stats"],
        "analysis.stats_calls_per_launch": _ratio(
            calls["analysis.stats"], launches),
        "analysis.harness_s": own["analysis.harness"],
        "device.provision_s": own["device.provision"],
        "device.reset_s": own["device.reset"],
        "device.build_s": own["device.build"],
        "device.pool_hit_ratio": _ratio(hits, hits + misses),
        "device.memo_init_hit_ratio": _ratio(init_hits,
                                             init_hits + init_misses),
        "device.memo_cell_hits": rnd.cell_hits,
        "driver.launch_s": own["driver.launch"],
        "driver.finish_s": own["driver.finish"],
        "compiler.analyze_s": own["compiler.analyze"],
        "compiler.analyze_calls": calls["compiler.analyze"],
        "compiler.bat_hit_ratio": _ratio(
            rec.shield_launches - calls["compiler.analyze"],
            rec.shield_launches),
        "baselines.interpose_s": own["baselines.interpose"],
        "fuzz.case_s": own["fuzz.case"],
        "service.schedule_s": own["service.schedule"],
        "service.placement_s": own["service.placement"],
        "service.pair_frac": rnd.output.pair_frac,
        "runner.overhead_s": rec.runner_overhead_s,
        "gpu.instructions": sim["issue.instructions"],
        "gpu.mem_instructions": sim["issue.mem_instructions"],
        "gpu.transactions": sim["issue.transactions"],
        "gpu.l1d_hit_ratio": _ratio(sim["l1d.hits"],
                                    sim["l1d.hits"] + sim["l1d.misses"]),
        "core.bcu.check_skip_ratio": _ratio(
            sim["bcu.checks_skipped_static"], sim["bcu.mem_instructions"]),
        "core.rcache.l1_hit_ratio": _ratio(
            sim["rcache.l1.hits"],
            sim["rcache.l1.hits"] + sim["rcache.l1.misses"]),
        "core.rcache.l2_hit_ratio": _ratio(
            sim["rcache.l2.hits"],
            sim["rcache.l2.hits"] + sim["rcache.l2.misses"]),
        "core.bcu.rbt_fills": sim["bcu.rbt_fills"],
        "core.bcu.stall_cycles": sim["bcu.stall_cycles"],
        "shield_overhead_pct": bench_workloads.geomean_overhead_pct(
            rnd.output.shield_pairs),
        "trace.residual_s": rnd.wall - sum(own.values()),
    }


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def traced_run(args, workload, rec):
    """Alternate untraced and traced rounds; per-layer metrics."""
    from repro.device import device_cache_stats, warm_memo_stats
    rounds, per_round, spans = [], [], []
    start = clock()
    while len(rounds) < TRACED_MIN_ROUNDS or clock() - start < args.seconds:
        # U T T U ordering: neither side always runs first.
        traced = len(rounds) % 4 in (1, 2)
        rec.clear()
        rnd = run_round(workload, rec, traced)
        rounds.append(rnd)
        if traced:
            metrics = layer_metrics(rec, rnd, device_cache_stats(),
                                    warm_memo_stats())
            residual = metrics["trace.residual_s"]
            if abs(residual) > RESIDUAL_BOUND * rnd.wall:
                rnd.output.failures["*"] = (
                    f"trace residual {residual:.4f} s exceeds "
                    f"{RESIDUAL_BOUND:.0%} of {rnd.wall:.4f} s")
            per_round.append(metrics)
            spans += [dict(zip(("id", "parent", "name", "start", "end",
                                "self", "item"), s), round=len(rounds) - 1)
                      for s in rec.spans]
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}"
                                 ".jsonl")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    untraced = statistics.median(r.wall for r in rounds if not r.traced)
    traced_wall = statistics.median(r.wall for r in rounds if r.traced)
    values = {key: statistics.mean(m[key] for m in per_round)
              for key in per_round[0]}
    values["trace.overhead_pct"] = (traced_wall / untraced - 1) * 100
    print(f"  traced rounds {len(per_round)}, untraced "
          f"{len(rounds) - len(per_round)}; median wall traced "
          f"{traced_wall:.4f} s vs untraced {untraced:.4f} s; "
          f"{len(spans)} spans -> {os.path.relpath(path, ROOT)}")
    print(f"  self times reconcile to traced wall within "
          f"{RESIDUAL_BOUND:.0%} (residual {values['trace.residual_s']:.5f}"
          " s per round)")
    return rounds, values


def record_digests() -> None:
    data = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED}
    for name in bench_workloads.WORKLOADS:
        data[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            rnd = run_round(set_up(name, seed), bench_trace.Recorder(),
                            False)
            if rnd.output.failures:
                fail_to_run(f"{name} seed {seed}: {rnd.output.failures}")
            data[name][str(seed)] = rnd.output.outputs
            print(f"recorded {name} seed {seed}: "
                  f"{len(rnd.output.outputs)} item(s)")
    with open(DIGESTS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="rodinia-shield")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    guard_environment()
    import_repro()
    if args.record_digests:
        record_digests()
        return
    if args.workload not in bench_workloads.WORKLOADS:
        fail_to_run(f"unknown workload {args.workload!r} "
                    f"(have {sorted(bench_workloads.WORKLOADS)})")
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("READY", flush=True)
        return

    from repro.engine import current_engine
    print(f"perfbench {args.workload} seed {args.seed} "
          f"trace {args.trace}: engine={current_engine()} "
          f"cpus={os.cpu_count()} python={platform.python_version()}")
    print("  modelled caches, TLBs and RCaches start empty at every device "
          "reset; the warm pool and memos are dropped before every round")
    workload = set_up(args.workload, args.seed)
    rec = bench_trace.Recorder()
    if args.trace:
        rounds, values = traced_run(args, workload, rec)
    else:
        rounds = []
        start = clock()
        while not rounds or clock() - start < args.seconds:
            rounds.append(run_round(workload, rec, False))
        values = None
    attempted, failed, messages = check_rounds(args.workload, args.seed,
                                               rounds)
    if values is None:
        values = end_to_end(args, rounds, args.workload)
    units = declared_units(args.trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    for message in messages[:20]:
        print(f"  FAILED {message}")
    shield = statistics.mean(
        bench_workloads.geomean_overhead_pct(r.output.shield_pairs)
        for r in rounds)
    print("  round walls " + " ".join(
        f"{r.wall:.3f}{'T' if r.traced else ''}" for r in rounds))
    print(f"  rounds {len(rounds)}; items {attempted}, failed {failed} "
          f"(error_frac {failed / attempted:.4f}); simulated shield overhead "
          f"{shield:.3f}% (paper: 0.8%; model not validated against hardware)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in values.items()}}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
