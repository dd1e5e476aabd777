#!/usr/bin/env python3
"""Per-package tier-1 wall times: record the ledger, or compare a run to it.

  go test -count=1 -json ./... > cold.jsonl   # from an empty GOCACHE
  go test -count=1 -json ./... > warm.jsonl   # again, build cache warm
  python3 .github/tier1.py record BENCH_tier1.json cold.jsonl warm.jsonl COLD_WALL WARM_WALL COMMIT

  go test -count=1 -json ./... > run.jsonl
  python3 .github/tier1.py compare BENCH_tier1.json run.jsonl

A package's time is the Elapsed of its pass/fail event: the test
binary's run, without the build. compare prints a GitHub warning for
every package that took more than 25 % longer than the ledger's warm
time (packages under one second in the ledger are too noisy to judge)
and always exits 0: the runner is not the machine the ledger was taken
on, so a slower package is a hint, not a failure.
"""
import json
import sys


def package_times(path):
    times = {}
    with open(path) as f:
        for line in f:
            if not line.startswith("{"):
                continue
            ev = json.loads(line)
            if ev.get("Test") is None and ev.get("Action") in ("pass", "fail") and "Elapsed" in ev:
                times[ev["Package"]] = ev["Elapsed"]
    return times


def record(ledger, cold, warm, cold_wall, warm_wall, commit):
    c, w = package_times(cold), package_times(warm)
    try:
        with open(ledger) as f:
            out = json.load(f)
    except FileNotFoundError:
        out = {}
    out.update({
        "command": "go test -count=1 -json ./...",
        "commit": commit,
        "cold": "empty GOCACHE: every package and its test binary built from scratch",
        "warm": "the same command again on the filled build cache",
        "cold_wall_s": float(cold_wall),
        "warm_wall_s": float(warm_wall),
        "packages": {p: {"cold_s": c.get(p), "warm_s": w.get(p)} for p in sorted(set(c) | set(w))},
    })
    with open(ledger, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")


def compare(ledger, run):
    with open(ledger) as f:
        base = json.load(f)["packages"]
    now = package_times(run)
    for pkg, t in sorted(now.items()):
        ref = (base.get(pkg) or {}).get("warm_s")
        if ref is None or ref < 1:
            continue
        if t > 1.25 * ref:
            print(f"::warning::{pkg} took {t:.1f}s, {100 * (t / ref - 1):.0f}% over the ledger's {ref:.1f}s")
        else:
            print(f"{pkg}: {t:.1f}s (ledger {ref:.1f}s)")


if __name__ == "__main__":
    if sys.argv[1] == "record":
        record(*sys.argv[2:8])
    elif sys.argv[1] == "compare":
        compare(*sys.argv[2:4])
    else:
        sys.exit("usage: tier1.py record|compare ...")
