#!/usr/bin/env python3
"""Records one perf-trajectory entry: the repository benchmark and the fig9
budget probe, run alternately on a parent commit and on the working tree.

Usage (from the repository root):

    python3 tools/record_trajectory.py --pr NN --change "one-line summary" \\
        [--parent REV] [--pairs 6] [--seconds 10] [--traced-pairs 3] \\
        [--fig9-probes 3] [--micro-probes 3] [--fig5-probes 3] \\
        [--workloads monitor-closed,nat-failover] \\
        [--workdir DIR] [--out PATH]

The parent side is REV (default: HEAD when the working tree has changes,
else HEAD^), exported with `git archive` into a temporary directory, so a
run leaves no worktree entry in the repository's .git. The change side is
the working tree. Each side builds its own binaries inside its own tree
(perfbench/run.py into .bench_build/perfbench, the fig9 probe,
bench_micro_ops and bench_fig5_state_size into .bench_build/fig9, all
Release).

Every workload of BENCHMARK.json runs --pairs times per side with
`perfbench/run.py --trace 0`, parent and change alternating and the order
flipped every pair, with the same seed within a pair (100 + pair index).
Then monitor-closed runs --traced-pairs pairs with --trace 1 for the stage
split, monitor-reorder as many for its parking, NACK and p99 counters, and
nat-failover as many for its recovery phases.
The fig9 Ch-3 budget probe (FTC_FIG9_BUDGET_ONLY=1 FTC_BENCH_SECONDS=1.0,
as CI's budget gate runs it) runs --fig9-probes times per side, alternating
too, and bench_micro_ops' BM_HeadCommit and BM_PiggybackViewWalk/1/64
(ns per op, one packet each) and BM_StoreSerialize and BM_StoreDeserialize
(ns per op, one 16k-flow NAT store each; a parent that predates them
reports none) --micro-probes times per side, alternating, and bench_fig5_state_size's million-flow probe
at CI's smoke scale (FTC_FIG5_MFLOW_ONLY=1 FTC_FIG5_FLOWS=20000
FTC_BENCH_SECONDS=0.5: churn Mpps and the quiet check) --fig5-probes times
per side, alternating.

Writes bench/trajectory/pr<NN>.json (or --out) in the schema of
bench/trajectory/pr19.json: per workload a summary (median and quartiles
by linear interpolation per side, and in how many pairs the change read
better) next to the raw runs, the traced runs, the fig9 probe,
the micro-ops probe and the fig5 churn probe.
Keep the machine otherwise idle while it runs: the pairs share its CPUs.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Traced workloads and the document key each one's runs go under:
# monitor-closed for the stage split, monitor-reorder for the held-log,
# parking and NACK counters, nat-failover for the recovery phases
# (orch.state_fetch_ms and the other orch.* times).
TRACED = {"monitor-closed": "traced_stage_split",
          "monitor-reorder": "traced_monitor_reorder",
          "nat-failover": "traced_nat_failover"}
MICRO_OPS = ("BM_HeadCommit", "BM_PiggybackViewWalk/1/64", "BM_StoreSerialize",
             "BM_StoreDeserialize")
FIG5_ENV = {"FTC_FIG5_MFLOW_ONLY": "1", "FTC_FIG5_FLOWS": "20000",
            "FTC_BENCH_SECONDS": "0.5"}
FIG9_STAGES = ("poll", "view_walk", "log_apply", "tail_commit", "process",
               "append", "egress_flush", "park_drain", "handoff_drain",
               "link_send", "link_poll", "store_apply", "pool_alloc",
               "pool_free")


def log(msg):
    print(f"record_trajectory: {msg}", file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def default_parent():
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return "HEAD" if dirty else "HEAD^"


def export_tree(rev, dest):
    """Writes the tree of @rev into @dest with git archive (no worktree)."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def side_env():
    env = dict(os.environ)
    # run.py builds into $CARGO_TARGET_DIR when set; an absolute path would
    # make both sides share one build tree.
    env.pop("CARGO_TARGET_DIR", None)
    return env


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def perfbench_run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=side_env(), capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"correct": False, "error": f"exit {proc.returncode}: {tail}"}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def ordered_sides(pair):
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def run_pairs(roots, workload, pairs, seconds, trace):
    runs = []
    for pair in range(pairs):
        seed = 100 + pair
        for side in ordered_sides(pair):
            log(f"{workload} trace={trace} pair {pair} {side}")
            r = perfbench_run(roots[side], workload, seed, seconds, trace)
            runs.append({"pair": pair, "side": side, "seed": seed, **r})
    return runs


def summarize(runs, directions):
    """Per metric: both sides' quartiles and the pairs the change won."""
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r.get("metrics", {})
    summary = {}
    for name, better in directions.items():
        sides = {s: [r["metrics"][name] for r in runs
                     if r["side"] == s and name in r.get("metrics", {})]
                 for s in ("parent", "change")}
        if not sides["parent"] or not sides["change"]:
            continue
        wins = 0
        pairs = 0
        for metrics in by_pair.values():
            p = metrics.get("parent", {}).get(name)
            c = metrics.get("change", {}).get(name)
            if p is None or c is None:
                continue
            pairs += 1
            wins += (c > p) if better == "higher" else (c < p)
        summary[name] = {"parent": quartiles(sides["parent"]),
                         "change": quartiles(sides["change"]),
                         "pairs": pairs, "change_better_in": wins}
    summary["all_correct"] = all(r.get("correct") for r in runs)
    summary["failed_ops"] = {
        s: sum(r.get("failed", 0) for r in runs if r["side"] == s)
        for s in ("parent", "change")}
    return summary


def bench_binary(root, target):
    """Builds bench/@target (Release) in @root's .bench_build/fig9 tree."""
    build = os.path.join(root, ".bench_build", "fig9")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", root, "-B", build,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build, "-j", str(min(4, os.cpu_count() or 1)),
                    "--target", target], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build, "bench", target)


def alternating_probes(roots, target, probe, probes, label):
    """Builds bench/@target on both sides, then runs probe(binary, run)
    @probes times per side, alternating: {side: [result, ...]}."""
    binaries = {side: bench_binary(root, target) for side, root in roots.items()}
    runs = {"parent": [], "change": []}
    for i in range(probes):
        for side in ordered_sides(i):
            log(f"{label} probe {i} {side}")
            runs[side].append(probe(binaries[side], i + 1))
    return runs


def fig9_probe(binary, run):
    with tempfile.TemporaryDirectory() as out_dir:
        env = dict(os.environ, FTC_FIG9_BUDGET_ONLY="1",
                   FTC_BENCH_SECONDS="1.0", FTC_BENCH_JSON_DIR=out_dir)
        proc = subprocess.run([binary], cwd=out_dir, env=env,
                              capture_output=True, text=True)
        path = os.path.join(out_dir, "BENCH_fig9_chain_tput.json")
        if not os.path.exists(path):
            return {"run": run, "error": f"exit {proc.returncode}"}
        with open(path) as f:
            doc = json.load(f)

    def only(name):
        rows = [m for m in doc["metrics"] if m["name"] == name]
        return rows[0]["value"] if len(rows) == 1 else None

    stages = {}
    for m in doc["metrics"]:
        labels = m.get("labels", {})
        if m["name"] == "budget.ns_per_packet" and labels.get("worker") == "all":
            stages[labels["stage"]] = round(m["value"], 1)
    # Burst counts are printed per worker ("worker <name> packets=N
    # bursts=M ..."), not exported.
    packets = bursts = 0
    for m in re.finditer(r"^worker ftc-\S+\s+packets=(\d+) bursts=(\d+)",
                         proc.stdout, re.MULTILINE):
        packets += int(m.group(1))
        bursts += int(m.group(2))
    return {
        "run": run,
        "total_ns_per_packet": round(only("budget_total_ns_per_packet"), 1),
        "reconciliation": round(only("budget_reconciliation"), 3),
        "quiet_ok": int(only("budget_quiet_ok")),
        "burst_occupancy": round(packets / bursts, 3) if bursts else None,
        "stages": {s: stages[s] for s in FIG9_STAGES if s in stages},
    }


def fig9_section(roots, probes):
    runs = alternating_probes(roots, "bench_fig9_chain_tput", fig9_probe,
                              probes, "fig9")
    summary = {}
    for side, rs in runs.items():
        ok = [r for r in rs if "error" not in r]
        if not ok:
            continue
        occupancy = [r["burst_occupancy"] for r in ok
                     if r["burst_occupancy"] is not None]
        summary[side] = {
            "total_ns_per_packet": quartiles([r["total_ns_per_packet"] for r in ok]),
            "burst_occupancy": quartiles(occupancy) if occupancy else None,
            "stages": {s: quartiles([r["stages"][s] for r in ok if s in r["stages"]])
                       for s in FIG9_STAGES if any(s in r["stages"] for r in ok)},
        }
    return {
        "probe": "Ch-3 FTC budget, ns per packet-hop, all workers; "
                 "occupancy = packets / bursts",
        "runs": runs,
        "summary": summary,
    }


def micro_probe(binary, run):
    """One bench_micro_ops run of MICRO_OPS: ns per op, by benchmark."""
    pattern = "|".join(f"^{re.escape(name)}$" for name in MICRO_OPS)
    with tempfile.TemporaryDirectory() as out_dir:
        env = dict(os.environ, FTC_BENCH_JSON_DIR=out_dir)
        proc = subprocess.run([binary, f"--benchmark_filter={pattern}"],
                              cwd=out_dir, env=env, capture_output=True,
                              text=True)
        path = os.path.join(out_dir, "BENCH_micro_ops.json")
        if not os.path.exists(path):
            return {"run": run, "error": f"exit {proc.returncode}"}
        with open(path) as f:
            doc = json.load(f)
    ns = {m["labels"]["benchmark"]: round(m["value"], 2)
          for m in doc["metrics"] if m["name"] == "ns_per_op"}
    return {"run": run, "ns_per_op": {n: ns[n] for n in MICRO_OPS if n in ns}}


def micro_section(roots, probes):
    runs = alternating_probes(roots, "bench_micro_ops", micro_probe, probes,
                              "micro-ops")
    summary = {}
    for side, rs in runs.items():
        ok = [r for r in rs if "error" not in r]
        summary[side] = {
            name: quartiles([r["ns_per_op"][name] for r in ok])
            for name in MICRO_OPS if any(name in r["ns_per_op"] for r in ok)}
    return {
        "probe": "bench_micro_ops (Release), ns per op: the head's commit "
                 "into its log record and a one-log view walk over 64-byte "
                 "values (one packet each), and a 16k-flow NAT store's "
                 "fetch serialize and deserialize (one store each)",
        "runs": runs,
        "summary": summary,
    }


def fig5_probe(binary, run):
    """One bench_fig5_state_size million-flow run at CI's smoke scale."""
    with tempfile.TemporaryDirectory() as out_dir:
        env = dict(os.environ, FTC_BENCH_JSON_DIR=out_dir, **FIG5_ENV)
        proc = subprocess.run([binary], cwd=out_dir, env=env,
                              capture_output=True, text=True)
        path = os.path.join(out_dir, "BENCH_fig5_state_size.json")
        if not os.path.exists(path):
            return {"run": run, "error": f"exit {proc.returncode}"}
        with open(path) as f:
            doc = json.load(f)
    rows = {m["name"]: m["value"] for m in doc["metrics"]
            if m["name"].startswith("mflow_")
            and m.get("labels", {}).get("probe") == "mflow"}
    return {"run": run,
            "churn_mpps": round(rows["mflow_throughput_mpps"], 4),
            "quiet_ok": int(rows["mflow_budget_quiet_ok"])}


def fig5_section(roots, probes):
    runs = alternating_probes(roots, "bench_fig5_state_size", fig5_probe,
                              probes, "fig5")
    summary = {}
    for side, rs in runs.items():
        ok = [r for r in rs if "error" not in r]
        if ok:
            summary[side] = {
                "churn_mpps": quartiles([r["churn_mpps"] for r in ok]),
                "quiet_ok_runs": sum(r["quiet_ok"] for r in ok)}
    return {
        "probe": "bench_fig5_state_size (Release) million-flow probe at "
                 "smoke scale (" + " ".join(f"{k}={v}" for k, v in
                                            FIG5_ENV.items()) +
                 "): saturated Mpps under flow churn, and quiet_ok",
        "runs": runs,
        "summary": summary,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--change", required=True,
                        help="one-line summary of the change")
    parser.add_argument("--parent", default=None)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--traced-pairs", type=int, default=3)
    parser.add_argument("--fig9-probes", type=int, default=3)
    parser.add_argument("--micro-probes", type=int, default=3)
    parser.add_argument("--fig5-probes", type=int, default=3)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset of BENCHMARK.json's workloads")
    parser.add_argument("--host", default="",
                        help="the machine the runs share, for the record")
    parser.add_argument("--workdir", default=None,
                        help="where the parent tree is exported (default: a temp dir)")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = ([w["name"] for w in spec["workloads"]] if args.workloads is None
                 else args.workloads.split(","))
    end_to_end = {m["name"]: m["better"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["better"] for m in spec["per_layer"]}

    parent_rev = args.parent or default_parent()
    parent_sha = git("rev-parse", parent_rev)
    workdir = args.workdir or tempfile.mkdtemp(prefix="ftc-trajectory-")
    parent_root = os.path.join(workdir, f"parent-{parent_sha[:12]}")
    if not os.path.exists(parent_root):
        export_tree(parent_sha, parent_root)
    roots = {"parent": parent_root, "change": ROOT}
    log(f"parent {parent_sha[:12]} in {parent_root}; change = {ROOT}")

    # Build both sides once before anything is timed.
    for side, root in roots.items():
        log(f"building {side}")
        r = perfbench_run(root, workloads[0], 1, 0.5, 0)
        if "error" in r:
            raise SystemExit(f"{side} build or smoke run failed: {r['error']}")

    doc = {
        "pr": args.pr,
        "change": args.change,
        "parent": parent_sha,
        "host": args.host,
        "method": (
            f"tools/record_trajectory.py: perfbench/run.py on the parent commit "
            f"(git archive) and on the change, run alternately with the order "
            f"flipped every pair, same seed within a pair (100 + pair index), "
            f"{seconds:g} s runs, --trace 0 for end-to-end metrics and --trace 1 "
            f"for the stage split; fig9: bench_fig9_chain_tput (Release) with "
            f"FTC_FIG9_BUDGET_ONLY=1 FTC_BENCH_SECONDS=1.0, as CI's budget gate "
            f"runs it; micro-ops: bench_micro_ops (Release) filtered to "
            f"{', '.join(MICRO_OPS)}; fig5: bench_fig5_state_size (Release) "
            f"with {' '.join(f'{k}={v}' for k, v in FIG5_ENV.items())}, as "
            f"CI's fig5 smoke runs it. Medians and quartiles use linear "
            f"interpolation; change_better_in counts the pairs in which the "
            f"change read better. {args.pairs} pairs per workload, "
            f"{args.traced_pairs} traced pairs, {args.fig9_probes} fig9 probes, "
            f"{args.micro_probes} micro-ops runs and {args.fig5_probes} fig5 "
            f"runs per side."),
        "perfbench": {},
    }
    for workload in workloads:
        runs = run_pairs(roots, workload, args.pairs, seconds, 0)
        doc["perfbench"][workload] = {"summary": summarize(runs, end_to_end),
                                      "runs": runs}
    for workload, key in TRACED.items():
        if args.traced_pairs == 0:
            break
        runs = run_pairs(roots, workload, args.traced_pairs, seconds, 1)
        doc[key] = {
            "workload": workload,
            "unit": "ns per packet-hop (stages), packets per burst, ratio, ms",
            "summary": summarize(runs, per_layer),
            "runs": runs,
        }
    if args.fig9_probes > 0:
        doc["fig9_budget_probe"] = fig9_section(roots, args.fig9_probes)
    if args.micro_probes > 0:
        doc["micro_ops"] = micro_section(roots, args.micro_probes)
    if args.fig5_probes > 0:
        doc["fig5_churn_probe"] = fig5_section(roots, args.fig5_probes)

    out = args.out or os.path.join(ROOT, "bench", "trajectory", f"pr{args.pr}.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    log(f"wrote {out}")


if __name__ == "__main__":
    main()
