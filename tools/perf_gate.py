#!/usr/bin/env python3
"""A/B throughput gate: a change's bench_sim_throughput against its base's.

    python3 tools/perf_gate.py BASE_BIN HEAD_BIN

Runs the two binaries PAIRS times each, interleaved, with the first side
alternating from pair to pair; each run is one repetition of every
benchmark FILTER selects.  One binary on one host drifts by more than the
effects being gated (BM_FullMachine/1 has read 4.3 to 7.8 M cycles/s in
one session), so the gate compares medians of interleaved runs, never a
number recorded on another host or day.

For each leg it prints the base and head medians of items_per_second, the
base IQR (interquartile range) and the pairs the head won.  It exits 1
when any leg's head median is below BOUND x its base median.  A leg that
only one binary has is reported and never fails the gate, so adding or
renaming a benchmark does not break CI.

Last it prints the result as one BENCH_throughput.json entry,
{commit, base, host, legs: {name: {value, unit, reps, median, iqr}}}:
value is the head median, median and iqr are the base's, reps is the
number of pairs, and commit and base are the git commits of the
checkouts that hold HEAD_BIN and BASE_BIN.  A perf change pastes it
under "entries".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
FILTER = "^(BM_FullMachine|BM_Functional)/"
BOUND = 0.75


def run_once(binary):
    """{leg: items_per_second} of one run of a bench_sim_throughput."""
    out = subprocess.run(
        [binary, f"--benchmark_filter={FILTER}", "--benchmark_format=json",
         "--benchmark_repetitions=1"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return {b["name"]: b["items_per_second"]
            for b in json.loads(out)["benchmarks"] if "items_per_second" in b}


def quartiles(xs):
    """(q1, q3) of a sample, by linear interpolation between its points."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def compare(base_runs, head_runs):
    """The verdict over two lists of per-run {leg: items_per_second}
    dicts, run i of each side forming pair i.  Returns ({leg: summary},
    failed legs).  A summary is {"only": "base"|"head"} for a leg one side
    lacks, else its medians, base quartiles, wins and pairs."""
    legs, failed = {}, []
    for leg in sorted(set().union(*base_runs, *head_runs)):
        base = [r[leg] for r in base_runs if leg in r]
        head = [r[leg] for r in head_runs if leg in r]
        if not base or not head:
            legs[leg] = {"only": "head" if head else "base"}
            continue
        pairs = [(b[leg], h[leg]) for b, h in zip(base_runs, head_runs)
                 if leg in b and leg in h]
        s = legs[leg] = {
            "base": statistics.median(base),
            "head": statistics.median(head),
            "iqr": quartiles(base),
            "wins": sum(h > b for b, h in pairs),
            "pairs": len(pairs),
        }
        if s["head"] < BOUND * s["base"]:
            failed.append(leg)
    return legs, failed


def report(legs, failed):
    """One line per leg."""
    lines = []
    for leg, s in legs.items():
        if "only" in s:
            lines.append(f"  {leg}: only in {s['only']}, not gated")
            continue
        q1, q3 = s["iqr"]
        lines.append(
            f"  {leg}: base {s['base']:.4g} (IQR {q1:.4g}-{q3:.4g}), "
            f"head {s['head']:.4g} items/s, head/base "
            f"{s['head'] / s['base']:.3f}, head won {s['wins']}/{s['pairs']}"
            f": {'FAIL' if leg in failed else 'ok'}")
    return "\n".join(lines)


def commit_of(binary):
    """The HEAD commit of the git checkout holding a binary, or None."""
    r = subprocess.run(
        ["git", "-C", os.path.dirname(os.path.abspath(binary)),
         "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def cpu_model():
    """The host's CPU model name, or None."""
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name")), None)
    except OSError:
        return None


def entry(legs, base_bin, head_bin):
    """The run as one BENCH_throughput.json entry, rates to 4 digits."""
    def r(x):
        return float(f"{x:.4g}")
    return {
        "commit": commit_of(head_bin),
        "base": commit_of(base_bin),
        "host": {"cpu_model": cpu_model(), "nproc": os.cpu_count()},
        "legs": {
            leg: {"value": r(s["head"]), "unit": "items/s",
                  "reps": s["pairs"], "median": r(s["base"]),
                  "iqr": r(s["iqr"][1] - s["iqr"][0])}
            for leg, s in legs.items() if "only" not in s
        },
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_bin", help="the base commit's bench_sim_throughput")
    ap.add_argument("head_bin", help="the change's bench_sim_throughput")
    args = ap.parse_args()

    base_runs, head_runs = [], []
    for i in range(PAIRS):
        sides = [(args.base_bin, base_runs), (args.head_bin, head_runs)]
        for binary, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run_once(binary))
    if not any(head_runs):
        print(f"perf_gate: {args.head_bin} ran no benchmark matching "
              f"{FILTER}", file=sys.stderr)
        return 1

    legs, failed = compare(base_runs, head_runs)
    print(f"perf_gate: {PAIRS} interleaved pairs, base {args.base_bin}, "
          f"head {args.head_bin}")
    print(report(legs, failed))
    print(json.dumps(entry(legs, args.base_bin, args.head_bin), indent=2))
    if failed:
        print(f"perf_gate: {len(failed)} leg(s) below {BOUND} x base "
              f"median: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("perf_gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
