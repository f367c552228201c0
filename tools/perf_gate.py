#!/usr/bin/env python3
"""Gate benchmark throughput against a checked-in baseline.

Compares items_per_second of matching benchmarks between a baseline JSON
(bench/baseline.json, committed) and a fresh google-benchmark JSON run:

    bench_sim_throughput --benchmark_filter='^BM_FullMachine' \
        --benchmark_format=json > perf.json
    python3 tools/perf_gate.py bench/baseline.json perf.json \
        --max-regression 0.25

Exits non-zero when any benchmark present in both files regresses by more
than --max-regression (fraction of baseline items/sec).  Benchmarks only in
one file are reported but never fail the gate, so adding or renaming a
benchmark does not break CI before the baseline is refreshed.  A missing
baseline file warns and passes for the same reason.

Refresh the baseline with --update after an intentional perf change:

    python3 tools/perf_gate.py bench/baseline.json perf.json --update

When the run used --benchmark_repetitions, aggregate entries are preferred
and the median is used (more robust than the mean on noisy CI runners).

--append-trajectory PATH appends this run's numbers to a trajectory file
(BENCH_throughput.json at the repo root, in CI) before gating, so the
repo accumulates an items/sec history across commits:

    python3 tools/perf_gate.py bench/baseline.json perf.json \
        --append-trajectory BENCH_throughput.json --commit "$GITHUB_SHA"

Each entry is {"commit", "benchmarks": {name: {"items_per_second"}}},
plus "label" when --label names the leg (one commit can contribute
several legs: the machine microbenchmarks, the pipeline cold/warm
timings).  An item is whatever the benchmark counts — simulated cycles
for the BM_* microbenchmarks, plan cells for the PIPE_* and FSIM_* legs
(and the SVC_* legs of older entries) — so only rates of one
benchmark name are comparable.  Entries written before this rule also
carry a "sim_cycles_per_sec" copy of the same number; it is not a cycle
rate for the cell-counting legs and nothing reads it.  The append
happens even when the gate then fails — a regression is exactly the
data point the trajectory exists to show.

Trajectory hygiene: the commit id must be a real git hex id.  In CI
(when $CI is set) a missing or placeholder commit id is a hard error —
an entry recorded as "local" can never be correlated with a commit
again.  Outside CI the placeholder is allowed (with a warning) so local
experiments still work.
"""

import argparse
import json
import os
import sys


def load_items_per_second(path):
    """Map benchmark name -> items_per_second from google-benchmark JSON."""
    with open(path) as f:
        data = json.load(f)
    plain = {}
    medians = {}
    for b in data.get("benchmarks", []):
        name = b.get("name", "")
        ips = b.get("items_per_second")
        if ips is None:
            continue
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[b.get("run_name", name)] = ips
        else:
            plain[name] = ips
    # Aggregates win: their run_name is the plain benchmark name.
    return {**plain, **medians}


def is_real_commit_id(commit):
    """A plausible (abbreviated or full) git hex object id."""
    return (isinstance(commit, str) and 7 <= len(commit) <= 40
            and all(c in "0123456789abcdef" for c in commit.lower()))


def append_trajectory(path, commit, current, label=None):
    """Append one {commit, benchmarks} entry to the trajectory JSON list."""
    try:
        with open(path) as f:
            history = json.load(f)
        if not isinstance(history, list):
            print(f"perf_gate: {path} is not a JSON list; refusing to "
                  "overwrite", file=sys.stderr)
            return 1
    except FileNotFoundError:
        history = []
    entry = {
        "commit": commit,
        "benchmarks": {
            name: {"items_per_second": ips}
            for name, ips in sorted(current.items())
        },
    }
    if label:
        entry["label"] = label
    history.append(entry)
    with open(path, "w") as f:
        json.dump(history, f, indent=2)
        f.write("\n")
    print(f"perf_gate: appended {commit[:12]} to {path} "
          f"({len(history)} entries)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="checked-in baseline JSON")
    ap.add_argument("current", help="fresh --benchmark_format=json output")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="allowed fractional items/sec drop (default 0.25)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the current run and exit")
    ap.add_argument("--append-trajectory", metavar="PATH",
                    help="append this run's rates to a trajectory JSON list")
    ap.add_argument("--commit", default=None,
                    help="commit id for the trajectory entry "
                         "(default: $GITHUB_SHA; 'local' placeholder is "
                         "rejected when $CI is set)")
    ap.add_argument("--label", default=None,
                    help="name this trajectory leg (e.g. pipeline, "
                         "fsim) so one commit can carry several entries")
    args = ap.parse_args()

    current = load_items_per_second(args.current)
    if not current:
        print(f"perf_gate: no items_per_second entries in {args.current}",
              file=sys.stderr)
        return 1

    if args.append_trajectory:
        commit = args.commit or os.environ.get("GITHUB_SHA") or "local"
        if not is_real_commit_id(commit):
            if os.environ.get("CI"):
                print(f"perf_gate: refusing to append trajectory entry with "
                      f"commit id '{commit}' in CI — pass --commit or set "
                      "GITHUB_SHA to the real commit", file=sys.stderr)
                return 2
            print(f"perf_gate: warning: '{commit}' is not a git commit id; "
                  "this entry cannot be correlated with history",
                  file=sys.stderr)
        rc = append_trajectory(args.append_trajectory, commit, current,
                               args.label)
        if rc != 0:
            return rc

    if args.update:
        with open(args.current) as f:
            data = json.load(f)
        # Strip the run context: host-specific fields (date, load, CPU
        # clock) would churn on every refresh without informing the gate.
        data.pop("context", None)
        with open(args.baseline, "w") as f:
            json.dump(data, f, indent=2)
            f.write("\n")
        print(f"perf_gate: baseline {args.baseline} updated "
              f"({len(current)} benchmarks)")
        return 0

    try:
        baseline = load_items_per_second(args.baseline)
    except FileNotFoundError:
        print(f"perf_gate: baseline {args.baseline} missing; passing "
              "(check one in via --update)", file=sys.stderr)
        return 0

    failed = []
    for name in sorted(set(baseline) | set(current)):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None or cur is None:
            where = "current run" if base is None else "baseline"
            print(f"  {name}: only in {where}, skipped")
            continue
        change = (cur - base) / base
        status = "ok"
        if change < -args.max_regression:
            status = "FAIL"
            failed.append(name)
        print(f"  {name}: {base:.3e} -> {cur:.3e} items/s "
              f"({change:+.1%}) {status}")

    if failed:
        print(f"perf_gate: {len(failed)} benchmark(s) regressed more than "
              f"{args.max_regression:.0%}: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    print("perf_gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
