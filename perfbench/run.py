#!/usr/bin/env python3
"""The repository benchmark: host cost of whole SOAP experiment cells.

    python3 perfbench/run.py --workload paper_static --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one after another

Builds the simulator from this checkout's sources (perfbench/CMakeLists.txt,
Release, into .bench_build/), then runs the named workload's cell through the
public engine::Experiment API, one fresh single-threaded process per
repetition, until --seconds of cell time have been spent (at least
MIN_REPS repetitions). Each repetition is followed by SETUP_PROBES_PER_CELL
set-up-only processes, so set-up time gets more samples than cell time.
The last stdout line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the repetitions);
--trace 1 reports the per-layer metrics: the program's own counters from a
traced cell, plus per-call host costs from replaying the cell's generated
transaction stream through each layer's public API (spans written to
.bench_out/). Every result, with its provenance, is also kept under
.bench_out/. See perfbench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
# Seed kept out of tuning; later gain claims must also hold on it.
HELD_OUT_SEED = 7331
MIN_REPS = 3
SETUP_PROBES_PER_CELL = 2
CELL_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 840

# Each workload is a soap_run flag list (plus --nodes, which only the
# benchmark's cell runner exposes). Horizons are chosen so that no simulated
# transaction aborts on any seed.
WORKLOADS = {
    # The paper's section 4.1 cell: zipf, 500k tuples, 5 nodes, HighLoad,
    # alpha 1, Hybrid scheduling, one-shot optimizer plan, 2PL read committed.
    "paper_static": ["--intervals", "30"],
    # Same cluster with the online planner, lion replicas and the
    # consistency checker on, under a hotspot drift with a 5-hub pairing.
    "online_checked": [
        "--lion", "--check", "--pair_hub", "5", "--write_fraction", "0.2",
        "--drift", "hotspot", "--intervals", "15",
    ],
    # 4M uniform tuples on 64 nodes at LowLoad: interval routing, lazy
    # storage bases, sketch-mode planner with a 16-hub pairing phase, MVCC
    # snapshot reads. Read-only clients: any client write under MVCC's
    # first-updater-wins aborts some transactions at this concurrency.
    "scale_mvcc": [
        "--workload", "uniform", "--keys", "4000000", "--nodes", "64",
        "--load", "low", "--planner", "--replan", "2", "--pair_hub", "16",
        "--pair_fraction", "0.3", "--cc", "mvcc", "--isolation",
        "serializable", "--write_fraction", "0", "--warmup", "2",
        "--intervals", "1",
    ],
}

# Workloads whose digest is cross-checked against tools/soap_run's summary.
SOAP_RUN_CROSSCHECK = {"paper_static"}

# The virtual-time digest (events, committed, aborted, end_time,
# plan_ops_applied) each workload must reproduce at the default and the
# held-out seed. The sim_* metrics follow from the same deterministic run,
# so a change to src/ that moves the simulated outcome at all makes these
# two seeds incorrect; at other seeds only the sim_* bounds guard it.
PINNED_DIGESTS = {
    ("paper_static", DEFAULT_SEED): (3388718, 325193, 0, 821082192, 46914),
    ("paper_static", HELD_OUT_SEED): (3382775, 324947, 0, 820903700, 46914),
    ("online_checked", DEFAULT_SEED): (2934954, 203069, 0, 657163910, 4096),
    ("online_checked", HELD_OUT_SEED): (2924982, 202491, 0, 655982600, 4096),
    ("scale_mvcc", DEFAULT_SEED): (2685501, 155647, 0, 60000000, 1984),
    ("scale_mvcc", HELD_OUT_SEED): (2685822, 155664, 0, 60000000, 1893),
}

# Workloads whose clients neither write nor lock their reads (MVCC snapshot
# reads, write_fraction 0). Every lock such a cell takes belongs to
# repartition work: a migration's insert and delete lock its key once
# each, and a piggyback carrier first locks each carried key once more.
REPARTITION_LOCKS_ONLY = {"scale_mvcc"}

END_TO_END_UNITS = {
    "host_us_per_txn": "us",
    "cell_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_tput_txn_min": "txn/min",
    "sim_p99_ms": "ms",
    "sim_rep_rate_final": "fraction",
}


def timing_units(name):
    return {f"{name}.p50": "ns", f"{name}.p99": "ns", f"{name}.n": "count"}


# Per-layer metrics and units, in report order. "T" rows are the program's
# own counters read after a traced cell; the timing rows come from the
# replay's spans (replay.cc).
LAYER_UNITS = {
    "sim.events_per_txn": "1/txn",
    "sim.ns_per_event": "ns",
    "sim.net_messages_per_txn": "1/txn",
    "cluster.queue_wait_p99_ms": "ms",
    "cluster.util": "fraction",
    "txn.lock_acquires_per_txn": "1/txn",
    "txn.2pc_protocols_per_txn": "1/txn",
    "txn.2pc_messages": "count",
    "txn.lock_waits": "count",
    "txn.lock_wait_p99_ms": "ms",
    "txn.lock_timeouts": "count",
    "txn.deadlocks": "count",
    **timing_units("txn.acquire_release_ns"),
    "txn.write_ops_per_txn": "1/txn",
    **timing_units("router.get_primary_ns"),
    **timing_units("router.route_txn_ns"),
    "router.exceptions": "count",
    "router.bytes": "bytes",
    **timing_units("storage.read_ns"),
    **timing_units("storage.apply_ns"),
    "storage.materialized_rows": "count",
    "storage.bytes": "bytes",
    **timing_units("workload.gen_ns_per_txn"),
    "core.rep_txns_committed": "count",
    "core.plan_ops_total": "count",
    "core.ops_applied_ratio": "fraction",
    "core.piggyback_share": "fraction",
    **timing_units("planner.observe_ns_per_txn"),
    "planner.replans": "count",
    "planner.plan_build_s": "s",
    "planner.graph_vertices": "count",
    "planner.graph_edges": "count",
    "planner.graph_bytes": "bytes",
    "replica.creates": "count",
    "replica.read_frac": "fraction",
    "lion.predictive": "count",
    "lion.shifts_applied": "count",
    **timing_units("mvcc.snapshot_ns"),
    **timing_units("mvcc.read_as_of_ns"),
    **timing_units("mvcc.install_ns"),
    "mvcc.chain_read_share": "fraction",
    "mvcc.versions_live": "count",
    "mvcc.gc_pruned": "count",
    "mvcc.write_conflict_share": "fraction",
    **timing_units("check.record_ns_per_txn"),
    "check.verify_s": "s",
    "check.reads": "count",
    "check.edges": "count",
    "engine.audit_s": "s",
    "engine.trace_overhead": "fraction",
    **timing_units("replay.txn_self_ns"),
    "replay.empty_span_ns.p50": "ns",
}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, timeout, log=None):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=log or subprocess.PIPE,
                              stderr=subprocess.STDOUT if log else subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")


def build():
    """Configures and builds the benchmark package; returns the build dir."""
    for needed in (ROOT / "src" / "CMakeLists.txt", ROOT / "tools" / "soap_run.cc"):
        if not needed.is_file():
            fail(f"missing {needed.relative_to(ROOT)}: run from a full checkout", 2)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_dir / "perfbench_build.log", "w") as log:
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
        for step in steps:
            if run_checked(step, BUILD_TIMEOUT_S, log).returncode != 0:
                log.flush()
                tail = (build_dir / "perfbench_build.log").read_text()[-3000:]
                fail(f"build failed:\n{tail}")
    return build_dir


def run_json(cmd):
    """Runs one benchmark process and parses its last stdout line."""
    proc = run_checked(cmd, CELL_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(map(str, cmd))} exited {proc.returncode}: "
             f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def source_digest():
    """Content hash of the sources the benchmark builds (no git needed)."""
    h = hashlib.sha256()
    files = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
             if p.is_file()]
    files.append(ROOT / "tools" / "soap_run.cc")
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(cell_bin):
    info = run_json([cell_bin, "info"])
    if info["build_type"] not in ("Release", "RelWithDebInfo") or \
            not info["ndebug"]:
        fail(f"refusing to report numbers from this build: {info}")
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, text=True,
            capture_output=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        describe = ""
    info.update({
        "nproc": os.cpu_count(),
        "git_describe": describe or "not a git checkout",
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
    })
    return info


def digest_key(cell):
    d = cell["digest"]
    return (d["events"], d["committed"], d["aborted"], d["end_time"],
            d["plan_ops_applied"])


class Verdict:
    """Collects correctness failures. Any failure marks the whole run
    incorrect, and every transaction it ran then counts as failed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.pinned = PINNED_DIGESTS.get((workload, seed))
        self.errors = []

    def check(self, ok, message):
        if not ok:
            self.errors.append(message)

    def cells(self, cells):
        """Checks each cell against the first; returns (attempted, aborted)."""
        for i, cell in enumerate(cells):
            self.cell(cell, cells[0], f"cell {i} ({'traced' if cell['traced'] else 'plain'})")
        return (sum(c["submitted"] for c in cells),
                sum(c["digest"]["aborted"] for c in cells))

    def cell(self, cell, reference, label):
        self.check(cell["audit_ok"], f"{label}: audit={cell['audit']}")
        self.check(cell["drained"], f"{label}: not drained")
        if cell["check_enabled"]:
            self.check(cell["check_violations"] == 0,
                       f"{label}: {cell['check_violations']} checker violations")
        self.check(digest_key(cell) == digest_key(reference),
                   f"{label}: digest {cell['digest']} != {reference['digest']}")
        if self.pinned is not None:
            self.check(digest_key(cell) == self.pinned,
                       f"{label}: digest {digest_key(cell)} != pinned {self.pinned}")
        if self.workload in REPARTITION_LOCKS_ONLY:
            limit = 2 * cell["digest"]["plan_ops_applied"] + cell["piggybacked_ops"]
            self.check(cell["lock_acquires"] <= limit,
                       f"{label}: {cell['lock_acquires']} lock acquires, but "
                       f"repartition work takes at most {limit}")


def soap_run_crosscheck(build_dir, flags, seed, cell, verdict):
    """The cell's counts must equal what soap_run prints for the same flags."""
    proc = run_checked([build_dir / "soap_run", *flags, "--seed", str(seed)],
                       CELL_TIMEOUT_S)
    summary = proc.stdout.splitlines()[0] if proc.stdout else ""
    found = re.search(r"applied=(\d+) .*?\), committed=(\d+), aborted=(\d+) normal",
                      summary)
    counts = dict(zip(("applied", "committed", "aborted"),
                      map(int, found.groups()))) if found else {}
    expected = {"applied": cell["digest"]["plan_ops_applied"],
                "committed": cell["digest"]["committed"],
                "aborted": cell["digest"]["aborted"]}
    verdict.check(proc.returncode == 0 and counts == expected,
                  f"soap_run printed {counts}, cell digest {expected}")


def untraced(build_dir, cell_bin, flags, args, verdict):
    cells, setups = [], []
    t0 = time.monotonic()
    while len(cells) < MIN_REPS or time.monotonic() - t0 < args.seconds:
        cells.append(run_json([cell_bin, "cell", *flags, "--seed", str(args.seed)]))
        for _ in range(SETUP_PROBES_PER_CELL):
            setups.append(run_json(
                [cell_bin, "setup", *flags, "--seed", str(args.seed)]))
    attempted, failed = verdict.cells(cells)
    if args.workload in SOAP_RUN_CROSSCHECK:
        soap_run_crosscheck(build_dir, flags, args.seed, cells[0], verdict)
    med = lambda key: statistics.median(c[key] for c in cells)
    metrics = {
        "host_us_per_txn": statistics.median(
            (c["wall_s"] - c["setup_s"]) * 1e6 / max(1, c["digest"]["committed"])
            for c in cells),
        "cell_wall_s": med("wall_s"),
        "setup_s": statistics.median(c["setup_s"] for c in cells + setups),
        "peak_rss_mb": med("peak_rss_mb"),
        "sim_tput_txn_min": cells[0]["sim_tput_txn_min"],
        "sim_p99_ms": cells[0]["sim_p99_ms"],
        "sim_rep_rate_final": cells[0]["sim_rep_rate_final"],
    }
    return cells + setups, attempted, failed, {
        k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced(cell_bin, flags, args, verdict):
    """Untraced/traced cell pairs for the counters, then one replay."""
    plain, counted = [], []
    t0 = time.monotonic()
    while not plain or time.monotonic() - t0 < args.seconds:
        base = [cell_bin, "cell", *flags, "--seed", str(args.seed)]
        plain.append(run_json(base))
        counted.append(run_json([*base, "--bench_trace"]))
    attempted, failed = verdict.cells(plain + counted)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans_{args.workload}_s{args.seed}.csv"
    replay = run_json([cell_bin, "replay", *flags, "--seed", str(args.seed),
                       "--spans_out", spans])
    verdict.check(replay["ok"], f"replay: {replay['error']}")
    verdict.check(replay["txns_generated"] == plain[0]["submitted"],
                  f"replay generated {replay['txns_generated']} txns, "
                  f"the cell submitted {plain[0]['submitted']}")

    plain_wall = statistics.median(c["wall_s"] for c in plain)
    layers = dict(counted[0]["layers"])
    layers["sim.ns_per_event"] = (
        plain_wall * 1e9 / max(1, plain[0]["digest"]["events"]))
    layers["engine.trace_overhead"] = (
        statistics.median(c["wall_s"] for c in counted) / plain_wall)
    layers.update(replay["layers"])
    verdict.check(set(layers) == set(LAYER_UNITS),
                  f"layer metrics differ from LAYER_UNITS: "
                  f"{sorted(set(layers) ^ set(LAYER_UNITS))}")
    metrics = {k: (layers.get(k, 0.0), u) for k, u in LAYER_UNITS.items()}
    return plain + counted + [replay], attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        sys.exit(max(codes))

    build_dir = build()
    cell_bin = build_dir / "perfbench_cell"
    prov = provenance(cell_bin)
    flags = WORKLOADS[args.workload]
    verdict = Verdict(args.workload, args.seed)
    if args.trace:
        records, attempted, failed, metrics = traced(cell_bin, flags, args, verdict)
    else:
        records, attempted, failed, metrics = untraced(
            build_dir, cell_bin, flags, args, verdict)

    correct = not verdict.errors
    if not correct:
        failed = attempted
        for error in verdict.errors:
            print(f"perfbench: INCORRECT: {error}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "provenance": prov, "workload_flags": flags,
        "errors": verdict.errors, "records": records,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    (OUT_DIR / f"{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>18.6g} {unit}")
    print(f"  {'attempted':36s} {attempted:>18d} txn")
    print(f"  {'failed':36s} {failed:>18d} txn")
    print(f"  {'correct':36s} {str(correct):>18s}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
