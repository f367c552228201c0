#!/usr/bin/env python3
"""End-to-end checks of the hilab and hifuzz command lines, each one a
ctest entry (tools/CMakeLists.txt): `ci` at test scale, `slow` at paper
scale.  They assert on what only the CLIs show: --override parsing, the
JSON export's fields, the cache directory's contents, the stdout of a
campaign, several processes on one cache, and peak memory.

    python3 tools/ci/checks.py CHECK [ARG] --bin DIR --work DIR

--bin is the directory holding hilab and hifuzz; --work is emptied and
then holds the check's exports and cache directories.  A failed
condition prints what was seen and exits 1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PAPER_DIGEST = json.loads(
    (ROOT / "perfbench" / "digests.json").read_text())["paper-cold"]
# Result digest of the test-scale paper plan (perfbench/run.py --digest-of).
TEST_PAPER_DIGEST = "8ba02a13c1601290"
# The paper plan's 76 cells share 68 distinct sim keys.
PAPER_CELLS, PAPER_SIM_KEYS = 76, 68
RSS_BOUND_MB = 128


def expect(cond, what):
    if not cond:
        sys.exit(f"FAILED: {what}")


class Checks:
    def __init__(self, bin_dir, work):
        self.bin, self.work = Path(bin_dir), Path(work)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def hilab(self, *args):
        """The hilab --quiet command line with args."""
        return [str(self.bin / "hilab"), "--quiet", *args]

    def start(self, name, *args, env=None):
        """Starts hilab with args and `--json <work>/<name>.json`."""
        return subprocess.Popen(
            self.hilab(*args, "--json", str(self.work / f"{name}.json")),
            stdout=subprocess.DEVNULL,
            env=None if env is None else {**os.environ, **env})

    def finish(self, name, proc):
        """Waits for a start()ed run, every cell of which must have
        succeeded, and returns its export and peak RSS in MB.  A child's
        ru_maxrss includes what this launcher held when it forked (Linux
        keeps the high-water mark across exec), so the figure bounds
        hilab's own peak from above."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out = self.work / f"{name}.json"
        expect(out.exists(), f"{name}: hilab exited {code}, no export")
        run = json.loads(out.read_text())
        failed = [x for x in run["cells"] if not x["ok"]]
        if failed:
            x = failed[0]
            expect(False, f"{name}: {len(failed)} cells failed, e.g. "
                   f"{x['workload']} {x['preset']} {x['tag']}: {x['error']}")
        expect(code == 0, f"{name}: hilab exited {code}")
        return run, usage.ru_maxrss / 1024

    def run_plan(self, name, *args, env=None):
        return self.finish(name, self.start(name, *args, env=env))[0]

    def hifuzz(self, *args):
        return subprocess.run([str(self.bin / "hifuzz"), "--seed", "1",
                               "--quiet", *args], check=True,
                              capture_output=True, text=True).stdout

    def digest(self, name):
        return subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--digest-of", str(self.work / f"{name}.json")],
            check=True, capture_output=True, text=True).stdout.strip()


def expect_clean(cache):
    """No lease lock, trace or unpublished temp file is left in a cache."""
    left = sorted(p.name for p in cache.iterdir()
                  if p.name.endswith((".lock", ".trace")) or ".tmp." in p.name)
    expect(not left, f"{len(left)} files left in the cache, e.g. {left[:3]}")


def results(run):
    return [c.get("result") for c in run["cells"]]


def keys(run):
    return [c["key"] for c in run["cells"]]


def expect_warm(warm, cold):
    """A re-run on a filled cache compiles and simulates nothing (every
    compile task from the compile index) and exports cold's cells."""
    nodes = warm["nodes"]
    expect(warm["simulated"] == 0 and nodes["sim"]["rebuilt"] == 0,
           f"warm run: {nodes}")
    expect(nodes["compile"]["rebuilt"] == 0
           and nodes["compile"]["hits"] == nodes["compile"]["total"],
           f"warm compile tasks: {nodes['compile']}")
    expect(results(warm) == results(cold), "cold/warm results diverged")
    expect(keys(warm) == keys(cold), "cold/warm keys diverged")


def lockstep(c, plan):
    """A test-scale plan with every event-skip run shadowed by a lockstep
    machine: any divergence fails its cell."""
    c.run_plan(plan, "--plan", plan, "--scale", "test", "--no-cache",
               env={"HIDISC_LOCKSTEP": "1"})
    if plan == "paper":
        got = c.digest(plan)
        expect(got == TEST_PAPER_DIGEST,
               f"test-scale paper digest {got}, want {TEST_PAPER_DIGEST}")


def invalidation(c):
    """Cold, preset-override and warm runs of the test-scale paper plan on
    one cache: the override re-simulates exactly the HiDISC cells' keys."""
    cache = c.work / "cache"
    plan = ("--plan", "paper", "--scale", "test", "--threads", "2",
            "--cache-dir", str(cache))
    cold = c.run_plan("cold", *plan)
    expect(cold["nodes"]["sim"]["rebuilt"] > 0, f"cold run: {cold['nodes']}")
    cc = cold["nodes"]["compile"]
    expect(cc["rebuilt"] == cc["total"], f"cold compile tasks: {cc}")
    expect_clean(cache)

    inval = c.run_plan("invalidate", *plan, "--override", "HiDISC:dram=200")
    resim = [x for x in inval["cells"] if not x["cached"]]
    expect(inval["nodes"]["sim"]["rebuilt"] == len(resim),
           f"override sims {inval['nodes']['sim']}, {len(resim)} cells")
    expect(all(x["preset"] == "HiDISC" for x in resim),
           f"override re-simulated {sorted({x['preset'] for x in resim})}")
    hidisc = {x["key"] for x in inval["cells"] if x["preset"] == "HiDISC"}
    expect(sorted(x["key"] for x in resim) == sorted(hidisc),
           f"re-simulated keys {[x['key'] for x in resim]}, want {hidisc}")

    expect_warm(c.run_plan("warm", *plan), cold)


def partial_warm(c):
    """A warm test-scale paper plan at four threads after one result is
    deleted: only that cell simulates, its compile task compiles once, on
    demand, and every other compile task is served by the compile index."""
    cache = c.work / "cache"
    plan = ("--plan", "paper", "--scale", "test", "--threads", "4",
            "--cache-dir", str(cache))
    cold = c.run_plan("cold", *plan)
    ks = keys(cold)
    gone = next(i for i, x in enumerate(cold["cells"])
                if x["preset"] == "HiDISC" and ks.count(x["key"]) == 1)
    (cache / f"{ks[gone]}.result").unlink()

    warm = c.run_plan("warm", *plan)
    resim = [i for i, x in enumerate(warm["cells"]) if not x["cached"]]
    expect(resim == [gone], f"re-simulated cells {resim}, want [{gone}]")
    nodes = warm["nodes"]
    expect(warm["simulated"] == 1 and nodes["sim"]["rebuilt"] == 1,
           f"warm sims: {nodes['sim']}")
    cc = nodes["compile"]
    expect(cc["rebuilt"] == 1 and cc["failed"] == 0
           and cc["hits"] == cc["total"] - 1, f"warm compile tasks: {cc}")
    expect(results(warm) == results(cold), "cold/warm results diverged")
    expect(keys(warm) == ks, "cold/warm keys diverged")
    expect_clean(cache)


def ablation_keys(c):
    """Every swept config field reaches the content key: the six
    prefetch-buffer sizes of ablation-queues are six keys."""
    plan = ("--plan", "ablation-queues", "--scale", "test", "--threads", "2",
            "--cache-dir", str(c.work / "cache"))
    cold = c.run_plan("cold", *plan)
    expect(cold["simulated"] > 0, f"cold: {cold['nodes']}")
    expect_warm(c.run_plan("warm", *plan), cold)
    pfbuf = [x["key"] for x in cold["cells"] if x["tag"].startswith("pfbuf=")]
    expect(len(pfbuf) == 6 and len(set(pfbuf)) == 6, f"pfbuf keys {pfbuf}")


def prefetch(c):
    """The prefetch figure's shape, a warm re-run, and a prefetcher override
    that re-simulates CP+AP cells only."""
    plan = ("--plan", "prefetch", "--scale", "test", "--threads", "2",
            "--cache-dir", str(c.work / "cache"))
    cold = c.run_plan("cold", *plan)
    # Five curves per (workload, latency) point; +pf cells carry prefetch
    # accounting, which reaches real coverage on the regular workload.
    pf = [x for x in cold["cells"] if x["tag"].endswith("+pf")]
    expect(len(pf) * 5 == len(cold["cells"]),
           f"{len(pf)} +pf cells of {len(cold['cells'])}")
    for x in pf:
        r = x["result"]
        expect("pf.coverage" in r and "pf.accuracy" in r, f"fields {list(r)}")
        if x["workload"] == "Neighborhood":
            expect(r["pf.issued"] > 0 and r["pf.coverage"] > 0.2,
                   f"Neighborhood {x['preset']}: issued {r['pf.issued']}, "
                   f"coverage {r['pf.coverage']}")
    expect(all(x["result"]["pf.trains"] == 0 for x in cold["cells"]
               if not x["tag"].endswith("+pf")), "a plain cell trained")

    expect_warm(c.run_plan("warm", *plan), cold)

    # A subset, not all CP+AP cells: the override makes the plain and +pf
    # CP+AP cells one config, so some become same-run cache hits.
    over = c.run_plan("override", *plan,
                      "--override", "CP+AP:prefetch=ipstride:deg4")
    resim = [x for x in over["cells"] if not x["cached"]]
    expect(resim and all(x["preset"] == "CP+AP" for x in resim),
           f"override re-simulated {sorted({x['preset'] for x in resim})}")
    expect(over["nodes"]["sim"]["rebuilt"] == len(resim),
           f"override sims {over['nodes']['sim']}, {len(resim)} cells")


def hifuzz_pinned(c):
    """perfbench's fuzz-campaign, pinned outside the benchmark.  A campaign
    commits in run order, so its stdout is the same at any worker count."""
    want = "hifuzz: 500 runs, 789233 dynamic instructions, 0 distinct failures"
    for t in "14":
        got = c.hifuzz("--runs", "500", "--no-shrink", "--threads", t).strip()
        expect(got == want, f"--threads {t}: {got!r}, want {want!r}")


def concurrent(c):
    """Two paper plans on one empty cache: the per-key lease makes them
    simulate each sim key once between them, and both match the digest."""
    cache = c.work / "cache"
    procs = {n: c.start(n, "--plan", "paper", "--threads", "2",
                        "--cache-dir", str(cache)) for n in "ab"}
    runs = [c.finish(n, p)[0] for n, p in procs.items()]
    for n in "ab":
        got = c.digest(n)
        expect(got == PAPER_DIGEST, f"{n}.json digest {got}")
    sims = [r["nodes"]["sim"]["rebuilt"] for r in runs]
    expect(len(set(keys(runs[0]))) == PAPER_SIM_KEYS,
           f"{len(set(keys(runs[0])))} distinct sim keys")
    expect(sum(sims) == PAPER_SIM_KEYS, f"simulated {sims}")
    expect_clean(cache)


def kill_resume(c):
    """A paper plan SIGKILLed mid-run; a re-run on its cache completes it
    from the stored results and matches the digest."""
    cache = c.work / "cache"
    cache.mkdir()
    plan = ("--plan", "paper", "--threads", "2", "--cache-dir", str(cache))

    def stored():
        return len(list(cache.glob("*.result")))

    victim = subprocess.Popen(c.hilab(*plan), stdout=subprocess.DEVNULL)
    for _ in range(600):
        if stored() >= 10 or victim.poll() is not None:
            break
        time.sleep(0.2)
    victim.send_signal(signal.SIGKILL)
    victim.wait()
    n = stored()
    expect(10 <= n < PAPER_SIM_KEYS, f"{n} results on disk at the kill")
    c.run_plan("resumed", *plan)
    got = c.digest("resumed")
    expect(got == PAPER_DIGEST, f"resumed digest {got}")
    expect(not any(cache.glob("*.result.lock")), "a lease lock file remains")


def paper_digest(c):
    """A cold paper-scale plan matches the recorded digest and leaves only
    results and compile-index entries, under 1 MB on disk."""
    cache = c.work / "cache"
    c.run_plan("paper", "--plan", "paper", "--threads", "4",
               "--cache-dir", str(cache))
    got = c.digest("paper")
    expect(got == PAPER_DIGEST, f"paper-scale digest {got}")
    expect_clean(cache)
    kb = sum(p.stat().st_blocks for p in cache.iterdir()) // 2
    expect(kb < 1024, f"cache dir holds {kb} KB")


def bounded_memory(c, cache):
    """Cold without a cache and warm on hilab_paper_digest's cache, each
    under RSS_BOUND_MB: sims stream their functional runs and a warm plan
    only reads results."""
    plan = ("--plan", "paper", "--threads", "4")
    _, cold_mb = c.finish("cold", c.start("cold", *plan, "--no-cache"))
    print(f"cold --no-cache peak RSS {cold_mb:.1f} MB")
    expect(cold_mb < RSS_BOUND_MB, f"cold peak RSS {cold_mb:.1f} MB")
    warm, warm_mb = c.finish("warm",
                             c.start("warm", *plan, "--cache-dir", cache))
    print(f"warm: {warm['cache_hits']} hits, {warm['simulated']} simulated, "
          f"peak RSS {warm_mb:.1f} MB")
    expect(warm["simulated"] == 0 and warm["cache_hits"] == PAPER_CELLS,
           f"warm: {warm['nodes']}")
    expect(warm_mb < RSS_BOUND_MB, f"warm peak RSS {warm_mb:.1f} MB")


CHECKS = {f.__name__.replace("_", "-"): f for f in (
    lockstep, invalidation, partial_warm, ablation_keys, prefetch,
    hifuzz_pinned, concurrent, kill_resume, paper_digest, bounded_memory)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("check", choices=CHECKS)
    ap.add_argument("arg", nargs="?",
                    help="lockstep: the plan; bounded-memory: a warm cache")
    ap.add_argument("--bin", required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    check = CHECKS[args.check]
    check(Checks(args.bin, args.work), *([args.arg] if args.arg else []))
    print(f"{args.check} {args.arg or ''}: passed")


if __name__ == "__main__":
    main()
