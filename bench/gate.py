#!/usr/bin/env python3
"""Micro-bench gate: the working tree's micro benches against HEAD's.

    python3 bench/gate.py --base BASE_BUILD --change CHANGE_BUILD
        --out RECORD.json --base-commit SHA --build-type Release
        --tolerance 0.25 --obs-tolerance 0.02 'BINARY TAG,TAG' ...

Each positional argument is one table row: a google-benchmark binary
in both build directories, and the name fragments of its gated rows.
The gate pins itself, and so every bench process it starts, to one CPU
of its own affinity mask. It runs each bench row for base and change in
PAIRS pairs, alternating which side runs first; a pair is two processes
of one repetition each, run back to back, so the host's drift cancels
in the pair's time ratio. A gated row fails when its median per-pair
ratio, change over base, exceeds 1 + tolerance. A row that only one
side has is listed as new or removed and not gated.

The obs gate runs the change build's bench_micro_obs decode legs,
metrics on and off, in OBS_REPETITIONS processes, each one repetition
of both legs in random order. The median of the per-process on/off
ratios must stay within 1 + obs tolerance.

The change side's per-row medians, stamped with the base commit, nproc
and the build type, go to --out. Exits 1 when either gate fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PAIRS = 7
MIN_TIME = "0.05"
OBS_BINARY = "bench_micro_obs"
OBS_REPETITIONS = 60
OBS_OFF = "BM_DecodeRunObs/metrics:0"
OBS_ON = "BM_DecodeRunObs/metrics:1"


def run_bench(binary, *flags):
    """One process of a bench binary: {row name: (time, unit)}."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        # stderr carries google-benchmark's per-process context banner;
        # show it only when the process fails.
        done = subprocess.run([str(binary), f"--benchmark_min_time={MIN_TIME}",
                               f"--benchmark_out={out}",
                               "--benchmark_out_format=json", *flags],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            done.check_returncode()
        rows = json.loads(out.read_text())["benchmarks"]
    return {r["name"]: (r["real_time"], r.get("time_unit", "ns"))
            for r in rows if r.get("run_type", "iteration") == "iteration"}


def list_rows(binary):
    """The row names a bench binary runs; none when it was not built."""
    if not binary.exists():
        return []
    return subprocess.run([str(binary), "--benchmark_list_tests"],
                          capture_output=True, text=True,
                          check=True).stdout.split()


def compare(binary, base_dir, change_dir):
    """PAIRS pairs of (base, change) {name: time} maps for one binary,
    plus {name: time unit}. A side whose build lacks a row (or the whole
    binary) contributes no time for it."""
    rows = {"base": list_rows(base_dir / binary),
            "change": list_rows(change_dir / binary)}
    dirs = {"base": base_dir, "change": change_dir}
    names = sorted(set(rows["base"]) | set(rows["change"]))
    pairs = []
    units = {}
    for p in range(PAIRS):
        times = {"base": {}, "change": {}}
        order = ("base", "change") if p % 2 == 0 else ("change", "base")
        for name in names:
            for side in order:
                if name in rows[side]:
                    times[side][name], units[name] = run_bench(
                        dirs[side] / binary,
                        f"--benchmark_filter=^{re.escape(name)}$")[name]
        pairs.append((times["base"], times["change"]))
    return pairs, units


def judge(pairs, tags, tolerance):
    """Per-row verdicts over (base, change) pairs of {name: time} maps.

    Returns (verdicts, failures, new, removed). verdicts holds one
    (name, median ratio, lowest ratio, highest ratio, gated) per row both
    sides ran; failures names the gated rows whose median ratio exceeds
    1 + tolerance; new and removed name the rows only one side ran.
    """
    base_names = set().union(*(base for base, _ in pairs))
    change_names = set().union(*(change for _, change in pairs))
    verdicts = []
    failures = []
    for name in sorted(base_names & change_names):
        ratios = [change[name] / base[name] for base, change in pairs
                  if name in base and name in change]
        median = statistics.median(ratios)
        gated = any(tag in name for tag in tags)
        verdicts.append((name, median, min(ratios), max(ratios), gated))
        if gated and median > 1.0 + tolerance:
            failures.append(name)
    return (verdicts, failures, sorted(change_names - base_names),
            sorted(base_names - change_names))


def obs_verdict(legs, tolerance):
    """(median on/off ratio, within tolerance) over (off, on) times, one
    pair per process."""
    ratio = statistics.median(on / off for off, on in legs)
    return ratio, ratio <= 1.0 + tolerance


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--base-commit", required=True)
    parser.add_argument("--build-type", required=True)
    parser.add_argument("--tolerance", type=float, required=True)
    parser.add_argument("--obs-tolerance", type=float, required=True)
    parser.add_argument("table", nargs="+", help="'BINARY TAG,TAG,...'")
    args = parser.parse_args(argv)

    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    ok = True
    worst = (0.0, "")
    record = []
    for row in args.table:
        binary, _, tag_list = row.partition(" ")
        tags = [t for t in tag_list.split(",") if t]
        pairs, units = compare(binary, args.base, args.change)
        verdicts, failures, new, removed = judge(pairs, tags, args.tolerance)
        width = max((len(n) for n in units), default=0)
        print(f"-- {binary}: change/base time, median of {PAIRS} pairs "
              f"[lowest, highest]; gated rows fail above "
              f"{1.0 + args.tolerance:.2f}")
        for name, median, low, high, gated in verdicts:
            marker = ("  << REGRESSION" if name in failures
                      else "" if gated else "  (not gated)")
            print(f"  {name:<{width}}  {median:5.2f} [{low:4.2f}, "
                  f"{high:4.2f}]{marker}")
            if gated:
                worst = max(worst, (median, name))
        for label, names in (("new", new), ("removed", removed)):
            for name in names:
                print(f"  {name:<{width}}  ({label})")
        if failures:
            ok = False
            print(f"ci.sh: {len(failures)} gated {binary} row(s) slower than "
                  f"{1.0 + args.tolerance:.2f}x HEAD: {', '.join(failures)}")
        ratio_of = {name: median for name, median, *_ in verdicts}
        for name in sorted(set().union(*(change for _, change in pairs))):
            entry = {"name": name,
                     "real_time": statistics.median(
                         change[name] for _, change in pairs),
                     "time_unit": units[name]}
            if name in ratio_of:
                entry["vs_base"] = ratio_of[name]
            record.append(entry)
    print(f"ci.sh: worst gated row {worst[1]} at {worst[0]:.2f}x HEAD")

    obs = args.change / OBS_BINARY
    if obs.exists():
        legs = []
        for _ in range(OBS_REPETITIONS):
            times = run_bench(obs, "--benchmark_filter=^BM_DecodeRunObs/",
                              "--benchmark_enable_random_interleaving=true")
            legs.append((times[OBS_OFF][0], times[OBS_ON][0]))
            unit = times[OBS_OFF][1]
        ratio, obs_ok = obs_verdict(legs, args.obs_tolerance)
        ok = ok and obs_ok
        print(f"ci.sh: obs overhead {ratio - 1.0:+.2%} (median on/off ratio "
              f"of {OBS_REPETITIONS} processes; gate "
              f"{args.obs_tolerance:.0%})"
              + ("" if obs_ok else "  << REGRESSION"))
        for name, times in ((OBS_OFF, [off for off, _ in legs]),
                            (OBS_ON, [on for _, on in legs])):
            record.append({"name": name, "real_time": statistics.median(times),
                           "time_unit": unit})

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "context": {
            "base_commit": args.base_commit,
            "nproc": nproc,
            "psga_build_type": args.build_type,
            "pinned_cpu": cpu,
            "pairs": PAIRS,
            "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "benchmarks": record,
    }, indent=1) + "\n")
    print(f"ci.sh: micro-bench gate {'OK' if ok else 'FAILED'} ({PAIRS} "
          f"pairs pinned to CPU {cpu}, {time.monotonic() - started:.0f} s; "
          f"change-side medians in {args.out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
