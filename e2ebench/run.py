#!/usr/bin/env python3
"""End-to-end benchmark for psga: build, run, compare.

Run one workload (the form BENCHMARK.json names; run from the repo root):

    python3 e2ebench/run.py --workload ft10-breed --seed 1 --seconds 20 --trace 0

Add --smoke to shrink every work list to a few operations (the
benchmark's own tests, e2ebench/test_e2ebench.py, use it).

Compare two checkouts, run alternately, ten pairs per workload:

    python3 e2ebench/run.py compare BASE_DIR HEAD_DIR [--pairs 10]
        [--workloads ft10-breed,serve-mixed] [--seconds 20] [--seed 1]

The benchmark builds psga from the checkout it lives in (Release, into
.bench_build/e2e) before the first run. The last stdout line of a run is
{"correct", "attempted", "failed", "metrics"}; the lines before it carry
the run context, the source identity and the result digest.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def build(root):
    """Configures (once) and builds psga_e2e; returns the binary path."""
    build_dir = root / ".bench_build" / "e2e"
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(root / "e2ebench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
            if build_type != "Release":
                raise RuntimeError(f"{build_dir} is a {build_type!r} build; "
                                   "only Release builds are measured")
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "psga_e2e",
         "-j", str(os.cpu_count() or 2)],
        check=True, stdout=sys.stderr)
    return build_dir / "psga_e2e"


def source_identity(root):
    """Commit when the checkout is a git repository, and a hash of the
    sources the benchmark builds either way."""
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in ("src", "e2ebench"):
        files += sorted(p for p in (root / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = result.stdout.strip() or None
    return {"commit": commit, "source_hash": digest.hexdigest()[:16]}


def parse_result(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    return result


def run_once(root, args):
    root = Path(root).resolve()
    binary = build(root)
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        traces = root / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        command.append("--smoke")
    # The daemon's socket is created relative to the checkout root.
    (root / ".bench_build").mkdir(exist_ok=True)
    completed = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                               text=True, timeout=RUN_TIMEOUT_S)
    if completed.returncode != 0:
        raise RuntimeError(f"psga_e2e exited with {completed.returncode}")
    lines = completed.stdout.splitlines()
    if not lines:
        raise RuntimeError("psga_e2e printed nothing")
    parse_result(lines[-1])
    print(json.dumps({"source": source_identity(root)}))
    print("\n".join(lines), flush=True)


# --- compare mode -------------------------------------------------------------


def load_spec(root):
    return json.loads((Path(root) / "BENCHMARK.json").read_text())


def run_side(root, workload, seed, seconds):
    command = [sys.executable, str(Path(root) / "e2ebench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                               text=True, timeout=RUN_TIMEOUT_S + 900)
    if completed.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited with "
                           f"{completed.returncode}")
    lines = completed.stdout.splitlines()
    digest = next((json.loads(l)["digest"] for l in lines
                   if l.startswith('{"digest"')), None)
    context = next((json.loads(l)["context"] for l in lines
                    if l.startswith('{"context"')), {})
    return parse_result(lines[-1]), digest, context


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    base, head = Path(args.base).resolve(), Path(args.head).resolve()
    spec = load_spec(head)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    for side in (base, head):
        log(f"building {side}")
        build(side)
    for workload in workloads:
        values = {"base": {}, "head": {}}
        digests_match = True
        failed = 0
        steal = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("base", base), ("head", head)]
            if i % 2:
                order.reverse()
            digests = {}
            for name, root in order:
                result, digest, context = run_side(root, workload, seed, seconds)
                digests[name] = digest
                failed += result["failed"]
                steal.append(context.get("steal_share", 0.0))
                for metric, entry in result["metrics"].items():
                    values[name].setdefault(metric, []).append(entry["value"])
            digests_match &= digests["base"] == digests["head"]
            log(f"{workload}: pair {i + 1}/{args.pairs} done")
        print(f"\n## {workload}  ({args.pairs} pairs, {seconds} s runs, "
              f"failed ops {failed}, digests "
              f"{'identical' if digests_match else 'DIFFER'}, "
              f"max steal {max(steal):.3f})")
        print(f"{'metric':<14} {'base median [q1, q3]':>32} "
              f"{'head median [q1, q3]':>32} {'delta':>8} {'wins':>6} "
              f"{'spreads':>15} {'bound':>6}  verdict")
        for metric, info in metrics.items():
            b, h = values["base"].get(metric), values["head"].get(metric)
            if not b or not h:
                continue
            bq, hq = quartiles(b), quartiles(h)
            lower = info["better"] == "lower"
            wins = sum(1 for x, y in zip(b, h)
                       if (y < x if lower else y > x))
            delta = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = delta > 0 if lower else delta < 0
            spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            head_spread = (hq[2] - hq[0]) / hq[1] if hq[1] else 0.0
            if worse and abs(delta) > info["bound"]:
                verdict = "regression"
            elif (wins >= 0.9 * len(b) and not worse
                  and abs(hq[1] - bq[1]) > bq[2] - bq[0]):
                verdict = "gain"
            elif spread > info["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
            print(f"{metric:<14} {fmt(bq):>32} {fmt(hq):>32} "
                  f"{delta:>+8.1%} {wins:>3}/{len(b):<2} "
                  f"{spread:>7.1%}/{head_spread:<7.1%} "
                  f"{info['bound']:>6.0%}  {verdict}")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("head")
        parser.add_argument("--pairs", type=int, default=10)
        parser.add_argument("--workloads", default="")
        parser.add_argument("--seconds", type=int, default=0)
        parser.add_argument("--seed", type=int, default=1)
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    run_once(HERE.parent, args)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, ValueError, OSError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        log(str(error))
        sys.exit(2)
