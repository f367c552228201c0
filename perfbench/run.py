#!/usr/bin/env python3
"""Benchmark of the HiDISC reproduction: cold, warm and what-if paper
plans and a fuzz campaign, measured end to end and per layer.

    python3 perfbench/run.py --workload paper-warm --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first run configures and builds the
bench binary (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, default
.bench_build/.  Each measured iteration is a fresh process, so set-up
time and peak RSS belong to that iteration alone.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 makes one traced run and
reports the per-layer metrics.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Two workloads are not scored, because their timings drift with the host
by more than the bounds; they run by hand, for the layers only they
exercise: paper-whatif (TraceStore reads, plan simulations) and
paper-cold (the cold plan that also fills the warm cache; TraceStore
writes).

Other entry points:
    --self-check         test-scale check of the benchmark itself
    --digest-of FILE     the Result digest of a `hilab --json` export

See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text())
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")

DEFAULT_SEED = 1   # reproduces the registry and campaign seeds
BUILD_JOBS = 4
# Iterations a run makes even when they overrun --seconds, so that every
# reported median rests on at least this many samples.
MIN_ITERATIONS = {"paper-cold": 2, "paper-warm": 5, "paper-whatif": 4,
                  "fuzz-campaign": 5}
# The end-to-end metrics run.py measures, with their units.
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 170
WARM_WORKLOADS = ("paper-warm", "paper-whatif")
UNSCORED = ["paper-whatif", "paper-cold"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + UNSCORED

_children = set()


class BenchError(RuntimeError):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fnv1a64(text):
    h = 14695981039346656037
    for b in text.encode():
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def export_digest(path):
    """Digest of a `hilab --json` export, computed as the bench binary computes
    results_digest: every Result field, by name, in cell order."""
    data = json.loads(Path(path).read_text(), parse_int=str, parse_float=str)
    text = ""
    for i, cell in enumerate(data["cells"]):
        text += f"cell {i}\n"
        text += "".join(f"{k}={v}\n" for k, v in sorted(cell["result"].items()))
    return fnv1a64(text)


def build():
    """Configures and builds the bench binary; returns its path."""
    bdir = BUILD / "perfbench"
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(bdir), "-j", str(BUILD_JOBS)]):
        if subprocess.run(cmd, stdout=sys.stderr, stdin=subprocess.DEVNULL).returncode:
            raise BenchError("building the bench binary failed: " + " ".join(cmd))
    return bdir / "perfbench"


def spawn(binary, args):
    """Runs the bench binary once; returns its JSON record plus the spawn time
    and the child's own peak RSS."""
    spawn_ns = time.monotonic_ns()
    p = subprocess.Popen([str(binary), *args], stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE)
    _children.add(p)
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    _children.discard(p)
    if p.returncode != 0:
        raise BenchError(f"bench binary exited with {p.returncode}: {' '.join(args)}")
    rec = json.loads(out.decode().strip().splitlines()[-1])
    rec["spawn_ns"] = spawn_ns
    rec["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return rec


def stop_children():
    for p in list(_children):
        p.kill()
        p.wait()
        _children.discard(p)


def host_context(binary, iterations):
    info = spawn(binary, ["--mode", "info"])
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or "unknown"
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            src.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "compiler": info["compiler"], "build_type": info["build_type"],
            "optimised": info["optimised"], "asserts": info["asserts"],
            "threads": info["threads"], "iterations": iterations, "commit": commit,
            "source_sha256": src.hexdigest()[:16]}


class Workdir:
    """Cache directories of one run, under the build directory."""

    def __init__(self):
        self.path = BUILD / "work"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)

    def fresh(self, name):
        d = self.path / name
        shutil.rmtree(d, ignore_errors=True)
        return d

    def remove(self):
        shutil.rmtree(self.path, ignore_errors=True)


def restore(directory, keep):
    """Removes what a run added to a prepared cache directory."""
    for name in set(os.listdir(directory)) - keep:
        p = directory / name
        shutil.rmtree(p) if p.is_dir() else p.unlink()


def run_workload(binary, workload, seed, seconds, trace, scale,
                 expect_digest=None):
    """Measures one workload; returns (result, details).  The result holds
    every metric measured, each with the unit of the code that measured it."""
    def args(name):
        return ["--workload", name, "--seed", str(seed), "--scale", scale]
    common = args(workload)
    if expect_digest is None and seed == DEFAULT_SEED and scale == "paper":
        expect_digest = DIGESTS[workload]
    work = Workdir()
    attempted = failed = 0
    checks = []
    try:
        cache = None
        keep = set()
        if workload in WARM_WORKLOADS:
            # The warm cache a paper-cold run leaves, prepared untimed.
            cache = work.fresh("warm")
            prep = spawn(binary, ["--mode", "run", *args("paper-cold"),
                                  "--cache-dir", str(cache)])
            keep = set(os.listdir(cache))
            attempted += prep["attempted"]
            failed += prep["failed"]
            if workload == "paper-warm":
                # Every warm hit must equal what the cold run simulated.
                expect_digest = expect_digest or prep["digest"]
                checks.append(("warm cache digest", prep["digest"] == expect_digest))
        elif workload == "paper-cold":
            cache = work.fresh("cold")
        cache_args = ["--cache-dir", str(cache)] if cache else []

        if trace:
            out_dir = BUILD / "out" / f"{workload}-seed{seed}"
            rec = spawn(binary, ["--mode", "traced", *common, *cache_args,
                                 "--out-dir", str(out_dir)])
            expect_digest = expect_digest or rec["digest"]
            checks.append(("traced digest reproduced",
                           rec["traced_digest"] == rec["digest"]))
            checks.append(("digest", rec["digest"] == expect_digest))
            attempted += rec["attempted"]
            failed += rec["attempted"] if rec["digest"] != expect_digest else rec["failed"]
            metrics = rec["metrics"]
            details = {"digest": rec["digest"], "iterations": 1,
                       "artifacts": str(out_dir.relative_to(ROOT))}
        else:
            samples = []
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                if workload == "paper-cold":
                    shutil.rmtree(cache, ignore_errors=True)
                samples.append(spawn(binary, ["--mode", "run", *common, *cache_args]))
                if workload == "paper-whatif":
                    restore(cache, keep)
                took = time.monotonic() - t0
                if (len(samples) >= MIN_ITERATIONS[workload]
                        and time.monotonic() - start + took > seconds):
                    break
            expect_digest = expect_digest or samples[0]["digest"]
            checks.append(("digest", all(s["digest"] == expect_digest
                                         for s in samples)))
            for s in samples:
                attempted += s["attempted"]
                failed += s["attempted"] if s["digest"] != expect_digest else s["failed"]
            def med(key):
                return statistics.median(s[key] for s in samples)
            values = {
                "setup_s": statistics.median(
                    (s["t_ready_ns"] - s["spawn_ns"]) / 1e9 for s in samples),
                "wall_s": med("wall_s"),
                "cpu_s": med("cpu_s"),
                "peak_rss_mb": med("peak_rss_mb"),
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            details = {"digest": samples[0]["digest"], "iterations": len(samples),
                       "samples": samples}
    finally:
        work.remove()
    correct = failed == 0 and all(ok for _, ok in checks)
    details["checks"] = dict(checks)
    details["expected_digest"] = expect_digest
    return ({"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}, details)


def scored(res, group):
    """The result with only the metrics BENCHMARK.json scores in `group`."""
    missing = [m["name"] for m in SPEC[group] if m["name"] not in res["metrics"]]
    if missing:
        raise BenchError("not measured: " + ", ".join(missing))
    return {**res, "metrics": {m["name"]: res["metrics"][m["name"]]
                               for m in SPEC[group]}}


def self_check(binary):
    """Test-scale check of the benchmark: every metric printed with its
    unit, a perturbed digest caught, and the doc complete."""
    problems = []
    for w in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res, _ = run_workload(binary, w, DEFAULT_SEED, 1, trace, "test")
            if not res["correct"]:
                problems.append(f"{w} --trace {trace}: not correct")
            for m in SPEC[group]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{w}: {m['name']} not measured")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{w}: {m['name']} measured in "
                                    f"{got['unit']}, BENCHMARK.json says {m['unit']}")
                elif not isinstance(got["value"], (int, float)):
                    problems.append(f"{w}: {m['name']} is not a number")
    res, _ = run_workload(binary, "paper-cold", DEFAULT_SEED, 1, 0, "test",
                          expect_digest="0" * 16)
    if res["correct"] or res["failed"] == 0:
        problems.append("a perturbed digest was not reported as a failure")
    doc = (BENCH_DIR / "README.md").read_text()
    for w in SPEC["workloads"]:
        if w["why"] not in doc:
            problems.append(f"README.md lacks the why of {w['name']}")
    for m in SPEC["per_layer"]:
        if f"| `{m['name']}` |" not in doc:
            problems.append(f"README.md lacks {m['name']} in the layer map")
    for p in problems:
        log("self-check: " + p)
    log("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--digest-of", metavar="FILE")
    args = ap.parse_args()
    if args.digest_of:
        print(export_digest(args.digest_of))
        return 0

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, on_signal)

    try:
        binary = build()
        if args.self_check:
            return self_check(binary)
        if not args.workload:
            ap.error("--workload is required")
        res, details = run_workload(binary, args.workload, args.seed,
                                    args.seconds, args.trace, "paper")
        res = scored(res, "per_layer" if args.trace else "end_to_end")
        host = host_context(binary, details["iterations"])
        if not host["optimised"]:
            log("WARNING: the bench binary was built without optimisation")
        out = BUILD / "out" / f"{args.workload}-seed{args.seed}"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"trace{args.trace}.json").write_text(json.dumps(
            {"host": host, "result": res, "details": details}, indent=1) + "\n")
        rate = res["failed"] / res["attempted"]
        print("# host " + json.dumps(host))
        print(f"# {args.workload} seed {args.seed}: digest {details['digest']}"
              f" (expected {details['expected_digest']}), checks "
              f"{json.dumps(details['checks'])}, error_rate {rate:g}"
              f" ({res['failed']}/{res['attempted']}),"
              f" {details['iterations']} iteration(s)")
        print(json.dumps(res), flush=True)
        return 0
    except BenchError as e:
        log(f"error: {e}")
        return 1
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
