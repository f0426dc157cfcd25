#!/usr/bin/env python3
"""The repository's benchmark of the Piranha simulator.

One command builds the simulator from source, runs one workload for a
fixed time, checks every simulation it ran, and prints the metrics named
in BENCHMARK.json. Run it from the root of the repository:

    python3 perfbench/run.py --workload chip_oltp --seed 11603109 --seconds 36 --trace 0

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The line before it holds the run's metadata (host cores,
git revision, rustc version, load average, steal time), and a full record
of the run, every repetition included, is written under
<cargo target dir>/perfbench/.

Workloads (batch simulations of a fixed size; see src/main.rs):
  chip_oltp       P8 chip, OLTP, 200k + 300k instructions per CPU, serial.
  multichip_oltp  P4x4, OLTP, same scale, 2 lane workers.
  sampled_oltp    P8, OLTP bounded to 2000 txns per CPU, run to completion
                  under 25k/1k sampling.

Left out on purpose: serve_replay (about 6 ms a run, too short to time
steadily, and the store is not a hot path), DSS (78 ms for 4M
instructions, and no layer the three workloads miss), and sim_mips or
events per second (a fixed count divided by wall_ms: wall_ms's noise
counted twice). Two figures are per-layer metrics rather than end-to-end
ones, because end-to-end metrics must read alike for every seed:
cpu.sim_cpi (3 of 44 P4x4 seeds give 2-3.4x the usual CPI, e.g. seed 8)
and sample.cpi_err_pct (a small error whose spread across seeds is as
large as itself). Every run still checks the simulated results exactly.

Steadiness. On a shared 2-vCPU host, repetitions of one simulation vary
by 20-40%, in phases lasting seconds to minutes while other tenants take
core clock and last-level cache. A host-speed probe (perfbench's
host_index: an integer multiply chain and a 4 MiB pointer chase, about
60 ms) runs around every repetition; over a 3-minute chip_oltp series
its index correlated 0.83 with repetition time, where a loop over DRAM
alone does not follow the slowdowns. For the single-threaded workloads
wall_ms is the median over all repetitions of wall time divided by the
index around it, that is, wall time at calm-host speed; over ten seeds
this halved the interquartile spread (chip_oltp 0.25 -> 0.12). The
2-thread multichip_oltp is paced by cross-vCPU handoffs the probe does
not see (dividing doubled its spread, 0.07 -> 0.16), so its wall_ms is
the plain median. setup_s is the median of five Machine::new calls made
before every repetition, divided by the index. Repetitions during which the
hypervisor stole more than 2% of their time are not timed (in one
2-minute steal storm, 2-thread repetitions ran 5x slower and the probe
did not follow). A run starts several worker
processes one after another and repeats the simulation in each until
its share of --seconds is spent. The raw median and the median index go
into the metadata line. `--steady N` runs the benchmark N times with
seeds 1..N and prints, per metric, the median, the quartiles and the
interquartile range divided by the median; the bounds in BENCHMARK.json
come from that output.

Seeds. The seed is SystemConfig::seed. With the default seed (11603109,
0xB10CA5) every simulation's fingerprint must equal the pinned value
(tests/golden_fingerprints.tsv for the two detailed workloads). With any
other seed, every deterministic count and the fingerprint must be the
same in every repetition of the run. A mismatch or a panic is a failed
operation; its timings are not used.

Other modes:
  --steady N      run the benchmark N times (seeds 1..N) and print spreads.
  --self-test     tiny-scale check of the benchmark itself: every metric
                  is printed with its unit, and a wrong pinned fingerprint
                  is counted as a failure.
  --tiny, --pin H internal: tiny scale, and an overriding pinned
                  fingerprint (used by --self-test).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 0xB10CA5

# Fingerprints at the default seed. The first two are the rows
# P8|oltp|w200000+m300000 and P4x4|oltp|w200000+m300000 of
# tests/golden_fingerprints.tsv.
PINNED = {
    "chip_oltp": "a4fb79994497a9d2",
    "multichip_oltp": "c6eafb06634ecc43",
    "sampled_oltp": "d5e76ca65f1700bb",
}
# Full-detail aggregate CPI of the bounded OLTP workload at the default
# seed: the reference the sampled estimate's error is measured against.
PINNED_REF_CPI = 2.83518
# 8 CPUs x 2000 transactions (x 200 at tiny scale).
SAMPLED_COMMITS = {False: 16_000, True: 1_600}

# Worker processes per run, one after another, so that one process
# placed badly on the host does not set a whole run. Multichip
# repetitions take about 3.5 s, so it gets fewer.
PROCESSES = {"chip_oltp": 3, "multichip_oltp": 2, "sampled_oltp": 3}
# Workloads whose simulation runs on one thread, like the host probe.
SINGLE_THREADED = {"chip_oltp", "sampled_oltp"}
SETUPS_PER_REP = 5
# A repetition during which the hypervisor stole more than this share of
# its wall time (both vCPUs counted) is not timed. Quiet runs see well
# under 1%; in a steal storm 2-thread repetitions ran 5x slower.
STEAL_LIMIT = 0.02
JIFFY_MS = 1000 / os.sysconf("SC_CLK_TCK")


def target_dir():
    return os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target")
    )


def build():
    """Build the worker from source; return its path or exit non-zero."""
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    exe = os.path.join(target_dir(), "release", "perfbench")
    if proc.returncode != 0 or not os.path.exists(exe):
        sys.exit(f"perfbench: build failed (cargo exit {proc.returncode})")
    return exe


def run_worker(exe, args, timeout):
    """Run one worker process; return its JSON lines and exit status."""
    try:
        proc = subprocess.run([exe] + args, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
        out, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as e:
        out, code = e.stdout or b"", "timeout"
    rows = []
    for line in out.decode(errors="replace").splitlines():
        try:
            rows.append(json.loads(line))
        except ValueError:
            pass
    return rows, code


def read_steal():
    """Steal jiffies summed over all CPUs (/proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def command_output(cmd):
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=20
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the simulator's and the benchmark's sources, so a
    result names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def metadata_start():
    with open("/proc/loadavg") as f:
        load = f.read().split()[:3]
    return {
        "host_cores": len(os.sched_getaffinity(0)),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "loadavg_start": [float(x) for x in load],
        "_steal0": read_steal(),
        "_t0": time.time(),
    }


def metadata_end(meta):
    steal0 = meta.pop("_steal0")
    steal1 = read_steal()
    meta["steal_jiffies"] = None if steal0 is None or steal1 is None else steal1 - steal0
    meta["elapsed_s"] = time.time() - meta.pop("_t0")
    return meta


class Gate:
    """The correctness gate: counts attempted and failed simulations."""

    def __init__(self, workload, seed, tiny, pin):
        self.workload = workload
        self.pin = pin or (PINNED[workload] if seed == DEFAULT_SEED and not tiny else None)
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def fail(self, reason, n=1):
        self.attempted += n
        self.failed += n
        self.reasons[reason] += n

    def check(self, reps):
        """Check repetitions; return the ones that passed."""
        ok_dets = [json.dumps(r["det"], sort_keys=True) for r in reps if not r["error"]]
        # Determinism: every repetition must match the most common one.
        common = Counter(ok_dets).most_common(1)[0][0] if ok_dets else None
        passed = []
        for r in reps:
            if r["error"]:
                self.fail("panic: " + r["error"][:200])
                continue
            det = r["det"]
            if json.dumps(det, sort_keys=True) != common:
                self.fail("repetitions disagree (nondeterminism)")
            elif self.pin is not None and det["fingerprint"] != self.pin:
                self.fail(f"fingerprint {det['fingerprint']} != pinned {self.pin}")
            elif self.workload == "sampled_oltp" and det["committed"] != SAMPLED_COMMITS[self.tiny]:
                self.fail(f"committed {det['committed']} transactions")
            elif det["delivered"] + det["retransmits"] != det["walks"]:
                self.fail("fabric ledger: delivered + retransmits != walks")
            else:
                self.attempted += 1
                passed.append(r)
        return passed


def reps_of(rows):
    return [r for r in rows if r.get("kind") == "rep"]


def measure_plain(exe, args, gate, meta):
    """--trace 0: several worker processes, end-to-end metrics."""
    nproc = PROCESSES[args.workload]
    budget = args.seconds / nproc
    rss, reps, records = [], [], []
    for p in range(nproc):
        rows, code = run_worker(
            exe,
            ["plain", "--workload", args.workload, "--seed", str(args.seed),
             "--budget", f"{budget:.3f}", "--setups", str(SETUPS_PER_REP)]
            + (["--tiny"] if args.tiny else []),
            timeout=max(60.0, 4 * budget + 60),
        )
        records.append({"process": p, "exit": code, "rows": rows})
        reps += reps_of(rows)
        proc_rows = [r for r in rows if r.get("kind") == "proc"]
        rss += [r["peak_rss_mb"] for r in proc_rows]
        if code != 0 or not proc_rows:
            gate.fail(f"worker exited with {code}")
    passed = gate.check(reps)
    # Repetitions the hypervisor preempted are left out of the timings
    # (not of the gate), unless too few remain.
    timed = [r for r in passed if r["steal_jiffies"] * JIFFY_MS <= STEAL_LIMIT * r["wall_ms"]]
    if len(timed) < 2:
        timed = passed
    meta["reps_left_out_for_steal"] = len(passed) - len(timed)
    # Times at calm-host speed: each repetition, and the set-up calls
    # made before it, divided by the host-speed index measured around it.
    # The probe runs on one thread; 2-thread repetitions, paced by
    # cross-vCPU handoffs, do not follow it and are taken as measured.
    walls = [r["wall_ms"] / (r["host_index"] if args.workload in SINGLE_THREADED else 1.0)
             for r in timed]
    setups = [ms / r["host_index"] for r in timed for ms in r["setups_ms"]]
    metrics = None
    if walls and setups and rss:
        metrics = {
            "wall_ms": {"value": statistics.median(walls), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups) / 1e3, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        }
        meta["raw_wall_ms_median"] = statistics.median(r["wall_ms"] for r in timed)
        meta["host_index_median"] = statistics.median(r["host_index"] for r in timed)
        meta["sim_cpi"] = passed[0]["sim_cpi"]
    meta["wall_ms_samples"] = len(walls)
    meta["setup_samples"] = len(setups)
    return metrics, records


def measure_traced(exe, args, gate, meta):
    """--trace 1: one traced worker, per-layer metrics."""
    out_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    rows, code = run_worker(
        exe,
        ["traced", "--workload", args.workload, "--seed", str(args.seed),
         "--budget", f"{args.seconds:.3f}", "--spans", spans] + (["--tiny"] if args.tiny else []),
        timeout=max(60.0, 3 * args.seconds + 60),
    )
    if code != 0:
        gate.fail(f"worker exited with {code}")
    gate.check(reps_of(rows))
    layers = next((r for r in rows if r.get("kind") == "layers"), None)
    meta["spans_file"] = os.path.relpath(spans, ROOT)
    meta["span_self_ms"] = {r["name"]: r["self_ms"] for r in rows if r.get("kind") == "span"}
    if layers is None:
        return None, [{"exit": code, "rows": rows}]
    if args.workload == "sampled_oltp" and args.seed == DEFAULT_SEED and not args.tiny:
        if abs(layers["sample.ref_cpi"] - PINNED_REF_CPI) > 5e-6:
            gate.fail(f"reference CPI {layers['sample.ref_cpi']} != pinned {PINNED_REF_CPI}")
    metrics = {
        m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
        for m in load_benchmark()["per_layer"]
    }
    return metrics, [{"exit": code, "rows": rows}]


def bench(args):
    exe = build()
    meta = metadata_start()
    gate = Gate(args.workload, args.seed, args.tiny, args.pin)
    measure = measure_traced if args.trace else measure_plain
    metrics, records = measure(exe, args, gate, meta)
    meta = metadata_end(meta)
    meta["failures"] = dict(gate.reasons)
    result = {
        "correct": gate.failed == 0 and metrics is not None,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed if metrics is not None else max(gate.attempted, 1),
        "metrics": metrics or {},
    }
    out_dir = os.path.join(target_dir(), "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    )
    with open(record, "w") as f:
        json.dump({"args": vars(args), "meta": meta, "result": result, "processes": records}, f)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    if metrics is None:
        sys.exit("perfbench: no simulation passed; no metrics to report")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def self_invoke(extra):
    """Run this script as a child; return its parsed last line (None if
    it printed none) and whether it exited with 0."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + extra,
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return (json.loads(lines[-1]) if lines else None), proc.returncode == 0
    except ValueError:
        return None, proc.returncode == 0


def steady(args):
    """Run the benchmark N times with seeds 1..N; print each metric's
    median, quartiles and interquartile range over the median."""
    spec = load_benchmark()
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    values = {}
    for seed in range(1, args.steady + 1):
        res, ok = self_invoke(["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        if res is None or not ok:
            print(f"seed {seed}: no result")
            continue
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                         if k in bounds), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':<28} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for k in bounds:
        vals = values.get(k, [])
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        b = bounds[k]
        print(f"{k:<28} {len(vals):>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{'' if b is None else b:>6}")


def self_test(args):
    """Tiny-scale check of the benchmark: every metric named in
    BENCHMARK.json is printed with its unit, correct runs pass, and a
    wrong pinned fingerprint is counted as a failure."""
    spec = load_benchmark()
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res, ok = self_invoke(["--workload", w["name"], "--seed", "7", "--seconds", "2",
                                   "--trace", str(trace), "--tiny"])
            label = f"{w['name']} trace={trace}"
            if res is None or not ok:
                problems.append(f"{label}: no result line, or a non-zero exit")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{label}: gate failed: {res['attempted']} attempted, "
                                f"{res['failed']} failed")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{label}: metric {m['name']} missing")
                elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: metric {m['name']} printed as {got}")
            print(f"{label}: {len(res['metrics'])} metrics, "
                  f"{res['attempted']} attempted, {res['failed']} failed", flush=True)
    res, _ = self_invoke(["--workload", "chip_oltp", "--seed", str(DEFAULT_SEED), "--seconds",
                          "2", "--trace", "0", "--tiny", "--pin", "0123456789abcdef"])
    if res is None or res["correct"] or res["failed"] != res["attempted"] or res["failed"] < 1:
        problems.append(f"a wrong pinned fingerprint was not counted as a failure: {res}")
    else:
        print(f"wrong pin: {res['failed']} of {res['attempted']} counted as failed")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(PINNED))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--pin")
    ap.add_argument("--steady", type=int, metavar="N")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test(args)
    elif args.workload is None:
        ap.error("--workload is required")
    elif args.steady:
        steady(args)
    else:
        bench(args)


if __name__ == "__main__":
    main()
