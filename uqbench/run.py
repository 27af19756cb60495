#!/usr/bin/env python3
"""Host-cost benchmark for uqsim: end-to-end and per-layer metrics.

Run from the root of a uqsim checkout:

    python3 uqbench/run.py --workload social-steady --seed 42 \\
        --seconds 30 --trace 0

Builds uqbench/ (driver plus the simulator libraries from src/) into
.bench_build/. With --trace 0 it then starts one driver process per
repetition while another one still fits in --seconds (at least
MIN_REPS). run_s is scaled to a reference host speed, which the
driver's host-speed probe measures during the drive. Every
repetition's simulated result must repeat exactly within the run and,
at a pinned seed, equal pins.json. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 runs one traced
set (driver spans, slice observers, partition references and
in-process ablation pairs) and reports the per-layer metrics,
printing a per-layer table and writing the spans to .bench_out/.
--self-check checks the full-length pins with one repetition each,
then runs every workload in the driver's --short variant at both
pinned seeds and checks metric names, units and the short pins.
--record-pins rewrites pins.json. See README.md for the workloads and
how to read the tables.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "uqbench"
OUT = ROOT / ".bench_out"
PINS = HERE / "pins.json"

WORKLOADS = ["social-steady", "social-keyed-rw", "partition-4", "corpus-sweep"]
PINNED_SEEDS = [42, 7]  # 42 is the default seed, 7 the held-out one
MIN_REPS = 5  # end-to-end repetitions per run, at least
ABLATION_RUNS = 3  # --ablate processes per ablated layer, traced run
REP_TIMEOUT_S = 150
RUN_BUDGET_S = 100  # never start a repetition after this long

# Reference cost of one host-speed probe call (driver.cc, HostProbe):
# about what it took on the 4-vCPU Xeon VM of baseline.json in its
# fast phases. Only its being fixed matters; it sets the scale of run_s.
PROBE_CALL_S = 12e-6


def host_slowdown(r):
    """How much slower than the reference the host ran the drive."""
    return r["probe_s"] / (r["probe_calls"] * PROBE_CALL_S)


# name -> (unit, value of one repetition, how a run combines them).
# run_s is the drive's wall time at the reference host speed: the
# probe runs in turns with the drive and tracks the shared host's slow
# phases (README.md). Set-up runs before the drive, where the probe
# does not follow it; every repetition sets up the same worlds, so the
# fastest repetition is its host time.
END_TO_END = {
    "run_s": ("s", lambda r: r["run_s"] / host_slowdown(r), median),
    "setup_s": ("s", lambda r: r["setup_s"], min),
    "peak_rss_mb": ("MB", lambda r: r["peak_rss_mb"], median),
    "allocs_per_request": (
        "count", lambda r: r["drive_allocs"] / r["injected_total"], median),
}

# What each layer's metrics should move, and where (README.md).
LAYER_MOVES = {
    "core": "run_s on social-steady and corpus-sweep",
    "parallel": "run_s on partition-4 only",
    "heap": "allocs_per_request and peak_rss_mb everywhere; run_s most "
            "on social-steady",
    "rpc": "run_s everywhere (work count: a change means the "
           "simulation changed)",
    "net": "run_s everywhere (work count)",
    "cpu": "run_s everywhere (work count)",
    "trace": "run_s everywhere; peak_rss_mb through the span ring",
    "obs": "run_s and allocs_per_request on social-keyed-rw only",
    "data": "run_s and allocs_per_request on social-keyed-rw only",
    "replica": "run_s and allocs_per_request on social-keyed-rw only",
    "admission": "run_s and allocs_per_request on social-keyed-rw only",
    "apps": "setup_s, mostly on corpus-sweep and social-keyed-rw",
    "workload": "run_s on corpus-sweep",
    "host": "nothing: the host's speed, by which run_s is scaled",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no uqsim sources under {ROOT / 'src'}; run "
                         "from the root of a checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    with open(BUILD / "build.log", "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                raise BenchError(f"build failed; see {BUILD / 'build.log'}")
    return BUILD / "uqbench"


def drive(binary, workload, seed, *flags):
    """One repetition in its own process; returns its raw JSON."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--scenarios", str(ROOT / "scenarios"), *flags]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=REP_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {p.returncode}: "
                         f"{p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout)


def load_pins(short):
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text())["short" if short else "workloads"]


def variant(short):
    """Driver flags of the full-length or the short variant."""
    return ["--short"] if short else []


def shard_count(workload, flags):
    if "--shards" in flags:
        return int(flags[flags.index("--shards") + 1])
    return 4 if workload == "partition-4" else 1


class Checker:
    """Pins at pinned seeds; exact repeat within a run at every seed."""

    def __init__(self, workload, seed, short=False):
        self.workload = workload
        self.pins = load_pins(short).get(workload, {}).get(str(seed), {})
        self.seen = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def check(self, r, flags=()):
        """Check one repetition; returns True when it is correct."""
        key = shard_count(self.workload, list(flags))
        got = {k: r[k] for k in ("digest", "events", "completed")}
        ok = True
        pin = self.pins.get(str(key))
        if pin is not None and pin != got:
            self.problems.append(f"{' '.join(flags) or 'base'}: {got} "
                                 f"differs from pin {pin}")
            ok = False
        # Ablations and thread counts must reproduce the first result
        # seen at the same shard count.
        first = self.seen.setdefault(key, got)
        if first != got:
            self.problems.append(f"{' '.join(flags) or 'base'}: {got} "
                                 f"differs from {first}")
            ok = False
        return ok

    def count(self, r, ok):
        """The measured window's requests are the run's operations."""
        n = r["injected_measured"]
        self.attempted += n
        self.failed += (n if not ok else
                        min(n, r["dropped"] + r["failed"] + r["incomplete"]))


def ratio(num, den):
    return num / den if den else 0.0


def per_request(r, key):
    return ratio(r["layers"][key], r["injected_measured"])


def repeat(fn, seconds, at_least):
    """Call fn until another call would end past --seconds."""
    out = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        out.append(fn())
        now = time.monotonic()
        if len(out) >= at_least and (now - start + (now - t) > seconds or
                                     now - start > RUN_BUDGET_S):
            return out


def e2e_run(binary, workload, seed, seconds, min_reps=MIN_REPS,
            short=False):
    chk = Checker(workload, seed, short)
    reps = repeat(lambda: drive(binary, workload, seed, *variant(short)),
                  seconds, min_reps)
    for r in reps:
        chk.count(r, chk.check(r))
    values = {name: [fn(r) for r in reps]
              for name, (_, fn, _) in END_TO_END.items()}
    r = reps[0]
    log(f"{workload} seed {seed}: {len(reps)} repetitions, "
        f"digest {r['digest']}, {r['events']} events, "
        f"{r['completed']} completed")
    for w in r["worlds"][:3]:
        log(f"  {w['label']}: simulated p99 {w['p99_ms']:.3f} ms "
            "(information, not pinned)")
    print(f"{'metric':<22}{'value':>16}  unit   of   repetitions")
    for name, (unit, _, agg) in END_TO_END.items():
        vals = ", ".join(f"{v:.4g}" for v in values[name])
        print(f"{name:<22}{agg(values[name]):>16.6g}  {unit:<6} "
              f"{agg.__name__:<4} {vals}")
    print(f"{'failed_share':<22}{ratio(chk.failed, chk.attempted):>16.6g}"
          f"  ratio  ({chk.failed} of {chk.attempted} requests)")
    return chk, {name: {"value": agg(values[name]), "unit": unit}
                 for name, (unit, _, agg) in END_TO_END.items()}


def traced_set(binary, workload, seed, chk, short):
    """The traced base run, partition references and ablation pairs."""
    OUT.mkdir(exist_ok=True)
    v = variant(short)
    layouts = {"traced": []}
    if workload == "partition-4":
        # Measured runs drive the 4 shards on one thread (driver.cc);
        # the traced base runs them on 4 threads for parallel.*.
        layouts = {"traced": ["--threads", "4"],
                   "1-shard": ["--shards", "1", "--threads", "1"],
                   "1-thread": []}
    runs = {}
    ok = True
    for name, flags in layouts.items():
        spans = OUT / f"spans-{workload}-{seed}-{name}.json"
        r = drive(binary, workload, seed, *v, "--traced", "--spans",
                  str(spans), *flags)
        r["spans"] = json.loads(spans.read_text())
        spans.unlink()
        ok = chk.check(r, flags) and ok
        runs[name] = r

    # Host shares: each --ablate process drives the untraced base and
    # its ablated twin in turns on one CPU (driver.cc, ablatePair);
    # both must reproduce the base digest.
    layers = ["trace", "obs"] if workload == "social-keyed-rw" else ["trace"]
    shares = {}
    for layer in layers:
        ratios = []
        for _ in range(ABLATION_RUNS):
            flags = ["--ablate", layer]
            r = drive(binary, workload, seed, *v, *flags)
            ok = chk.check(r, flags) and ok
            ok = chk.check(r["ablated"], flags + ["(ablated)"]) and ok
            ratios.append(1.0 - r["ablated"]["cpu_s"] / r["cpu_s"])
        log(f"{workload} seed {seed}: {layer} host shares "
            + ", ".join(f"{x:.4f}" for x in ratios))
        shares[layer] = median(ratios)
    chk.count(runs["traced"], ok)
    return runs, shares


def layer_metrics(runs, shares):
    """Per-layer values of one traced set."""
    t = runs["traced"]

    def lay(key):
        return t["layers"][key]

    def per_req(key):
        return per_request(t, key)

    m = {}
    m["core.events"] = ("count", t["events"])
    m["core.events_per_request"] = ("count",
                                    t["events"] / t["injected_total"])
    m["core.ns_per_event"] = ("ns", t["run_s"] * 1e9 / t["events"])
    m["core.slice_ms_p50"] = ("ms", t["slice_ms_p50"])
    m["core.slice_ms_p99"] = ("ms", t["slice_ms_p99"])
    m["core.slices"] = ("count", t["slices"])

    ev = t["worlds"][0]["shard_events"]
    one = runs.get("1-shard")
    m["parallel.speedup_vs_1shard"] = (
        "x", one["run_s"] / t["run_s"] if one else 1.0)
    m["parallel.extra_events_share"] = (
        "ratio", t["events"] / one["events"] - 1.0 if one else 0.0)
    m["parallel.shard_events_imbalance"] = ("x", max(ev) / (sum(ev) / len(ev)))
    m["parallel.shard_busy_share"] = (
        "ratio", median([w["busy_share"] for w in t["worlds"]]))

    m["heap.bytes_per_request"] = ("B", t["drive_bytes"] / t["injected_total"])
    m["heap.live_peak_mb"] = ("MB", t["live_peak_bytes"] / 2**20)
    m["heap.leaked_allocs_per_request"] = (
        "count", t["leaked_allocs"] / t["injected_total"])
    m["heap.leaked_bytes_per_request"] = (
        "B", t["leaked_bytes"] / t["injected_total"])

    m["rpc.retries_per_request"] = ("count", per_req("rpc_retries"))
    m["rpc.pool_blocked_per_request"] = ("count", per_req("pool_blocked"))
    m["net.messages_per_request"] = ("count", per_req("net_messages"))
    m["net.bytes_per_request"] = ("B", per_req("net_bytes"))
    m["cpu.tasks_per_request"] = ("count", per_req("cpu_tasks"))

    m["trace.spans_per_request"] = ("count", per_req("spans_stored"))
    m["trace.evicted"] = ("count", lay("trace_evicted"))
    m["trace.host_share"] = ("ratio", shares["trace"])
    m["obs.intervals"] = ("count", lay("obs_intervals"))
    m["obs.host_share"] = ("ratio", shares.get("obs", 0.0))

    lookups = lay("data_hits") + lay("data_misses")
    m["data.lookups_per_request"] = (
        "count", ratio(lookups, t["injected_measured"]))
    m["data.hit_ratio"] = ("ratio", ratio(lay("data_hits"), lookups))
    m["data.invalidations_per_write"] = (
        "ratio", ratio(lay("data_invalidations"), lay("data_writes")))
    m["replica.writes_per_request"] = ("count", per_req("replica_writes"))
    m["replica.ryw_redirect_share"] = (
        "ratio", ratio(lay("replica_ryw_redirects"), lookups))
    m["admission.rejected_share"] = (
        "ratio", ratio(lay("admission_rejected"),
                       lay("admission_admitted") + lay("admission_rejected")))

    m["apps.world_ms"] = ("ms", t["world_s"] * 1e3)
    m["apps.build_ms"] = ("ms", t["build_s"] * 1e3)
    m["apps.enable_ms"] = ("ms", t["enable_s"] * 1e3)
    m["apps.teardown_ms"] = ("ms", t["teardown_s"] * 1e3)
    m["apps.tiers"] = ("count", lay("tiers"))
    m["apps.instances"] = ("count", lay("instances"))
    m["workload.arrivals"] = ("count", t["injected_total"])
    m["host.run_wall_s"] = ("s", t["run_s"])
    m["host.slowdown"] = ("x", host_slowdown(t))
    return m


def span_table(spans):
    """Count, total and self host time per driver span name."""
    rows = {}
    child = [0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            child[sp["parent"]] += sp["end_ns"] - sp["start_ns"]
    for sp, c in zip(spans, child):
        dur = sp["end_ns"] - sp["start_ns"]
        row = rows.setdefault(sp["name"], [0, 0, 0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - c
    return rows


def trace_run(binary, workload, seed, short=False):
    chk = Checker(workload, seed, short)
    runs, shares = traced_set(binary, workload, seed, chk, short)
    metrics = layer_metrics(runs, shares)

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps(
        {v: {"spans": r["spans"], "digest": r["digest"]}
         for v, r in runs.items()}))
    print(f"driver spans of the traced run ({trace_file}):")
    print(f"  {'span':<10}{'count':>7}{'total ms':>12}{'self ms':>12}")
    for name, (n, total, own) in span_table(runs["traced"]["spans"]).items():
        print(f"  {name:<10}{n:>7}{total / 1e6:>12.3f}{own / 1e6:>12.3f}")
    print(f"per-layer metrics, {workload} seed {seed}:")
    layer = None
    for name, (unit, value) in metrics.items():
        prefix = name.split(".")[0]
        if prefix != layer:
            layer = prefix
            print(f"  [{layer}] should move {LAYER_MOVES[layer]}")
        print(f"    {name:<36}{value:>16.6g}  {unit}")
    variants = ", ".join(f"{v} {r['digest']}" for v, r in runs.items())
    log(f"{workload} seed {seed}: digests {variants}; ablations and "
        f"untraced bases checked against them")
    return chk, {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()}


def run(args):
    binary = build()
    if args.trace:
        chk, metrics = trace_run(binary, args.workload, args.seed)
    else:
        chk, metrics = e2e_run(binary, args.workload, args.seed,
                               args.seconds)
    for p in chk.problems:
        log(f"MISMATCH {args.workload} seed {args.seed}: {p}")
    print(json.dumps({"correct": not chk.problems,
                      "attempted": chk.attempted, "failed": chk.failed,
                      "metrics": metrics}))
    return 0


def pin_runs(binary, short):
    """One repetition per workload, pinned seed and shard layout."""
    for workload in WORKLOADS:
        layouts = [[]]
        if workload == "partition-4":
            layouts.append(["--shards", "1", "--threads", "1"])
        for seed in PINNED_SEEDS:
            for flags in layouts:
                r = drive(binary, workload, seed, *variant(short), *flags)
                yield workload, seed, flags, r


def self_check():
    """Full-length pins, then the short variant: names, units, pins."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    declared = [w["name"] for w in spec["workloads"]]
    failures = [] if declared == WORKLOADS else [
        f"BENCHMARK.json workloads {declared} != {WORKLOADS}"]
    binary = build()

    def report(tag, found):
        failures.extend(f"{tag}: {f}" for f in found)
        log(f"self-check {tag}: {'FAILING' if found else 'ok'}")

    for workload, seed, flags, r in pin_runs(binary, short=False):
        chk = Checker(workload, seed)
        found = ([] if str(shard_count(workload, flags)) in chk.pins
                 else ["no pin recorded"])
        chk.check(r, flags)
        report(f"{workload} seed {seed} {' '.join(flags) or 'full'}",
               found + chk.problems)

    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            for trace in (0, 1):
                chk, metrics = (
                    trace_run(binary, workload, seed, short=True) if trace
                    else e2e_run(binary, workload, seed, 0, 1, short=True))
                got = {k: v["unit"] for k, v in metrics.items()}
                found = [] if chk.pins else ["no short pin recorded"]
                found += chk.problems
                if got != want[trace]:
                    found.append(f"emitted {got}, declared {want[trace]}")
                if chk.failed:
                    found.append(f"{chk.failed} of {chk.attempted} "
                                 "requests failed")
                report(f"{workload} seed {seed} short trace {trace}", found)
    for f in failures:
        log(f"SELF-CHECK FAILED: {f}")
    log("self-check passed" if not failures else "self-check failed")
    return 1 if failures else 0


def record_pins():
    """Rewrite pins.json: both variants, every pinned seed and layout."""
    binary = build()
    doc = {"note": "Simulated result of each workload at the default "
                   "seed 42 and the held-out seed 7, per shard count: "
                   "execution digest, events executed, requests "
                   "completed. 'short' pins the driver's --short "
                   "variant that --self-check runs. Rewrite with run.py "
                   "--record-pins only when a change is meant to alter "
                   "simulated results."}
    for key, short in (("workloads", False), ("short", True)):
        pins = doc[key] = {}
        for workload, seed, flags, r in pin_runs(binary, short):
            pins.setdefault(workload, {}).setdefault(str(seed), {})[
                str(shard_count(workload, flags))] = {
                    k: r[k] for k in ("digest", "events", "completed")}
            log(f"pinned {key} {workload} seed {seed} {flags}: "
                f"{r['digest']}")
    PINS.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=PINNED_SEEDS[0])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-pins", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        if args.self_check:
            return self_check()
        if args.record_pins:
            return record_pins()
        if args.workload is None:
            ap.error("--workload is required")
        return run(args)
    except (BenchError, subprocess.TimeoutExpired) as e:
        log(f"uqbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
