#!/usr/bin/env bash
# Tier-1 verify + perf smoke for psga.
#
#   ./ci.sh            build, run the full ctest suite, rebuild the
#                      cache/sweep/service/session/obs suites under
#                      ASan/UBSan and run them, run the session and
#                      service suites under TSan, run a psga_sweep smoke
#                      sweep (JSONL + summary validated), run a psgad
#                      service smoke (submit/watch/cancel/drain over a
#                      temp socket) and a session smoke (10-event seeded
#                      replanning trace, SLO met, transcript hash equal
#                      across two concurrent runs and to its pinned
#                      value), run the
#                      e2ebench harness self-test (every workload in
#                      smoke mode), emit a fresh bench JSON snapshot
#                      (bench_micro_decoders + bench_micro_cache +
#                      bench_session_latency + bench_micro_operators
#                      merged), diff it against the committed
#                      BENCH_micro.json (per-bench deltas), then refresh
#                      the snapshot
#   SKIP_BENCH=1 ./ci.sh        tests only
#   SKIP_SAN=1 ./ci.sh          skip the sanitizer legs (ASan/UBSan, TSan)
#   SKIP_BENCH_DIFF=1 ./ci.sh   snapshot without the regression gate
#   BENCH_TOLERANCE=0.25        gated-bench regression threshold (fraction)
#
# The JSON snapshot gives future PRs a perf trajectory: the diff prints
# the per-benchmark change vs the committed baseline and FAILS when any
# gated bench regresses by more than BENCH_TOLERANCE (default 25%)
# beyond the suite-wide median drift (shared-host slowdowns move every
# bench together and are not regressions).
# Snapshots carry a psga_build_type context stamp and are refused
# entirely from Debug builds (debug numbers would poison the baseline);
# the summary also prints the batch-vs-scalar decode speedups.
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$JOBS")

# Sanitizer leg: psga_pipeline_tests holds the suites that race threads
# against shared state — islands and cluster ranks sharing one sharded
# evaluation cache, sweeps running whole solver runs across lanes, the
# service and session suites racing clients against the psgad core, and
# metric scrapes racing the write path — so run exactly that binary
# under ASan/UBSan.
if [[ "${SKIP_SAN:-0}" != "1" ]]; then
  SAN_DIR=${SAN_DIR:-build-asan}
  cmake -B "$SAN_DIR" -S . -DPSGA_SANITIZE=ON \
        -DPSGA_BUILD_BENCHES=OFF -DPSGA_BUILD_EXAMPLES=OFF
  # Without GTest the target is never defined (main build only warns) —
  # degrade the same way instead of failing on the missing target.
  # (Capture first: `grep -q` would SIGPIPE make under pipefail.)
  SAN_TARGETS=$(cmake --build "$SAN_DIR" --target help 2>/dev/null || true)
  if grep -q psga_pipeline_tests <<<"$SAN_TARGETS"; then
    cmake --build "$SAN_DIR" -j "$JOBS" --target psga_pipeline_tests
    "$SAN_DIR"/psga_pipeline_tests --gtest_brief=1
    echo "ci.sh: sanitizer leg OK"
  else
    echo "psga_pipeline_tests not configured (GTest missing?); skipping sanitizer leg"
  fi

  # ThreadSanitizer leg: the session and service suites — callers sharing
  # session solve slots, readers racing close(), clients racing daemon
  # connection threads. The filter keeps to suites that never run the omp
  # backend: its uninstrumented libgomp frames are the only TSan reports
  # known in this repo.
  TSAN_DIR=${TSAN_DIR:-build-tsan}
  cmake -B "$TSAN_DIR" -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
        -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread \
        -DPSGA_BUILD_BENCHES=OFF -DPSGA_BUILD_EXAMPLES=OFF
  TSAN_TARGETS=$(cmake --build "$TSAN_DIR" --target help 2>/dev/null || true)
  if grep -q psga_pipeline_tests <<<"$TSAN_TARGETS"; then
    cmake --build "$TSAN_DIR" -j "$JOBS" --target psga_pipeline_tests
    TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR"/psga_pipeline_tests \
      --gtest_brief=1 --gtest_filter='Session*:Service*'
    echo "ci.sh: thread sanitizer leg OK"
  else
    echo "psga_pipeline_tests not configured (GTest missing?); skipping thread sanitizer leg"
  fi
fi

# Sweep smoke: sweeps/smoke.sweep through the psga_sweep CLI (parallel,
# 2 cells in flight) — a 2-axes x 2-reps grid on ta001 plus a
# two-problem-family grid (flowshop ta001 + jobshop ft06) through the
# problem registry. Validates that every JSONL telemetry line parses,
# all cells succeeded, the family cells carry canonical problem specs,
# the summary table is non-empty, and the registry listings print.
if [[ -x "$BUILD_DIR/psga_sweep" ]] && command -v python3 >/dev/null; then
  # Capture first: piping straight into `grep -q` would SIGPIPE the
  # writer under pipefail once grep exits on its match.
  PROBLEM_ROWS=$("$BUILD_DIR"/psga_sweep --list-problems)
  grep -q "problem=jobshop" <<<"$PROBLEM_ROWS" \
    || { echo "ci.sh: --list-problems has no jobshop row"; exit 1; }
  ENGINE_ROWS=$("$BUILD_DIR"/psga_sweep --list-engines)
  grep -q "engine=island" <<<"$ENGINE_ROWS" \
    || { echo "ci.sh: --list-engines has no island row"; exit 1; }
  SWEEP_JSONL=$(mktemp /tmp/psga_sweep.XXXXXX.jsonl)
  SWEEP_SUMMARY=$(mktemp /tmp/psga_sweep_summary.XXXXXX.txt)
  "$BUILD_DIR"/psga_sweep --quiet --threads 2 \
    --telemetry "$SWEEP_JSONL" --summary "$SWEEP_SUMMARY" sweeps/smoke.sweep
  python3 - "$SWEEP_JSONL" "$SWEEP_SUMMARY" <<'PYEOF'
import json
import sys

cells = ok = 0
families = set()
with open(sys.argv[1]) as f:
    for line in f:
        record = json.loads(line)  # every line must parse
        # Every record is stamped with the telemetry schema version
        # (consumers key their parsers off it; see docs/sweeps.md).
        version = record.get("schema_version")
        assert version == 1, f"bad schema_version {version!r}: {line!r}"
        if record.get("event") == "cell":
            cells += 1
            ok += bool(record["ok"])
            problem = record.get("problem", "")
            if problem:
                families.add(problem.split()[0])
with open(sys.argv[2]) as f:
    summary = f.read()
assert cells == 12, f"expected 12 cell records, got {cells}"
assert ok == cells, f"{cells - ok} smoke sweep cells failed"
assert families == {"problem=flowshop", "problem=jobshop"}, (
    f"expected both problem families in telemetry, got {families}")
assert "topology" in summary and "|" in summary, "summary table looks empty"
print(f"ci.sh: sweep smoke OK ({cells} cells over {len(families)} "
      "problem families, telemetry parses)")
PYEOF
  rm -f "$SWEEP_JSONL" "$SWEEP_SUMMARY"

  # Traced re-run of the same sweep: --trace must produce a Chrome
  # trace-event file Perfetto would load — one process track per cell,
  # process_name metadata, and well-formed complete ("X") spans.
  TRACE_JSON=$(mktemp /tmp/psga_trace.XXXXXX.json)
  "$BUILD_DIR"/psga_sweep --quiet --threads 2 --trace "$TRACE_JSON" \
    sweeps/smoke.sweep >/dev/null
  python3 - "$TRACE_JSON" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace has no events"
pids = {e["pid"] for e in events}
metadata = {e["name"] for e in events if e["ph"] == "M"}
spans = [e for e in events if e["ph"] == "X"]
assert "process_name" in metadata, "missing process_name metadata"
assert spans, "no complete (X) span events"
assert len(pids) == 12, f"expected 12 cell tracks, got {len(pids)}"
for e in spans:
    assert e["name"] and e["ts"] >= 0 and e["dur"] >= 0, e
print(f"ci.sh: trace smoke OK ({len(spans)} spans over "
      f"{len(pids)} cell tracks)")
PYEOF
  rm -f "$TRACE_JSON"
else
  echo "psga_sweep or python3 missing; skipping sweep smoke"
fi

# Service smoke: the psgad/psgactl pair end to end (docs/service.md) —
# start a daemon on a temp socket, submit a small flowshop job and watch
# its telemetry stream (every line must parse and carry schema_version),
# cancel a long-running job mid-flight, run an active-decoder job on a
# shop with zero-duration operations, drain, and require the daemon to
# exit 0 and unlink its socket.
if [[ -x "$BUILD_DIR/psgad" && -x "$BUILD_DIR/psgactl" ]] \
   && command -v python3 >/dev/null; then
  SVC_SOCKET=$(mktemp -u /tmp/psgad_ci.XXXXXX.sock)
  "$BUILD_DIR"/psgad --socket "$SVC_SOCKET" --workers 2 &
  SVC_PID=$!
  # The daemon binds before accepting; poll ping rather than sleeping.
  for _ in $(seq 50); do
    "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" ping >/dev/null 2>&1 && break
    sleep 0.1
  done
  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" ping >/dev/null \
    || { echo "ci.sh: psgad did not come up on $SVC_SOCKET"; exit 1; }

  SVC_JOB=$("$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" submit \
    'problem=flowshop instance=ta001 engine=island eval=pool seed=7' \
    --generations 10)
  SVC_WATCH=$(mktemp /tmp/psgad_ci_watch.XXXXXX.jsonl)
  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" watch "$SVC_JOB" > "$SVC_WATCH"
  python3 - "$SVC_WATCH" <<'PYEOF'
import json
import sys

lines = [json.loads(line) for line in open(sys.argv[1])]  # all must parse
assert lines, "watch streamed no telemetry"
for record in lines:
    version = record.get("schema_version")
    assert version == 1, f"bad schema_version {version!r}: {record!r}"
assert lines[0]["event"] == "run_begin", lines[0]
assert lines[-1]["event"] == "job_end" and lines[-1]["ok"], lines[-1]
generations = sum(r.get("event") == "generation" for r in lines)
assert generations >= 10, f"only {generations} generation records"
print(f"ci.sh: watch streamed {len(lines)} telemetry lines "
      f"(best={lines[-1]['best_objective']})")
PYEOF
  rm -f "$SVC_WATCH"

  # Stats/info scrape: the daemon's metrics registry over the wire —
  # `stats` returns the full snapshot (obs_json layout), `info` the
  # build type, uptime, cumulative totals and latency percentiles.
  SVC_STATS=$(mktemp /tmp/psgad_ci_stats.XXXXXX.json)
  SVC_INFO=$(mktemp /tmp/psgad_ci_info.XXXXXX.json)
  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" stats > "$SVC_STATS"
  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" info > "$SVC_INFO"
  python3 - "$SVC_STATS" "$SVC_INFO" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    stats = json.load(f)
assert stats["ok"] and stats["uptime_seconds"] >= 0, stats
counters = stats["metrics"]["counters"]
assert counters.get("svc.jobs.admitted", 0) >= 1, counters
assert counters.get("svc.jobs.completed", 0) >= 1, counters
assert stats["metrics"]["histograms"]["svc.job.run_ns"]["count"] >= 1, (
    stats["metrics"]["histograms"])
with open(sys.argv[2]) as f:
    info = json.load(f)
assert info["build_type"], info
assert info["uptime_seconds"] >= 0, info
assert info["totals"]["admitted"] >= 1, info
assert info["latency"]["run"]["p50"] >= 0, info
print("ci.sh: stats scrape OK (admitted="
      f"{counters['svc.jobs.admitted']}, build={info['build_type']})")
PYEOF
  rm -f "$SVC_STATS" "$SVC_INFO"

  CANCEL_JOB=$("$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" submit \
    'problem=flowshop instance=ta001 engine=simple pop=8 seed=1' \
    --generations 50000000)
  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" cancel "$CANCEL_JOB" >/dev/null
  CANCELLED=$("$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" wait "$CANCEL_JOB")
  grep -q cancelled <<<"$CANCELLED" \
    || { echo "ci.sh: cancel did not land: $CANCELLED"; exit 1; }

  # Zero-duration operations: this 2x2 shop has one in each job. The
  # active (Giffler–Thompson) decoder must schedule them like any other
  # operation, and the daemon must finish the job and keep answering.
  ZERO_JSP=$(mktemp /tmp/psgad_ci_zero.XXXXXX.jsp)
  printf '2 2\n0 3 1 0\n1 0 0 2\n' > "$ZERO_JSP"
  ZERO_JOB=$("$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" submit \
    "problem=jobshop instance=$ZERO_JSP decoder=active engine=simple pop=8 seed=1" \
    --generations 5)
  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" wait "$ZERO_JOB" --timeout 30 \
    >/dev/null \
    || { echo "ci.sh: zero-duration active job did not finish cleanly"; exit 1; }
  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" ping >/dev/null \
    || { echo "ci.sh: psgad died on a zero-duration active job"; exit 1; }
  rm -f "$ZERO_JSP"

  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" drain >/dev/null
  if ! wait "$SVC_PID"; then
    echo "ci.sh: psgad exited non-zero after drain"; exit 1
  fi
  if [[ -e "$SVC_SOCKET" ]]; then
    echo "ci.sh: psgad left its socket behind"; exit 1
  fi
  echo "ci.sh: service smoke OK (submit/watch/cancel/drain)"
else
  echo "psgad/psgactl or python3 missing; skipping service smoke"
fi

# Session smoke: the online replanning path end to end (docs/sessions.md)
# — open two sessions on a live psgad at once and stream the same fixed
# 10-event trace into each through `psgactl session event` (which exits 1
# on an SLO miss), so psgad's default session_workers=2 runs two
# connection-thread replans concurrently; require bit-identical
# transcript hashes (the determinism invariant) equal to the pinned hash,
# check the daemon reports no active sessions afterwards, then drain
# cleanly.
if [[ -x "$BUILD_DIR/psgad" && -x "$BUILD_DIR/psgactl" ]]; then
  SES_SOCKET=$(mktemp -u /tmp/psgad_ses.XXXXXX.sock)
  "$BUILD_DIR"/psgad --socket "$SES_SOCKET" --workers 2 &
  SES_PID=$!
  for _ in $(seq 50); do
    "$BUILD_DIR"/psgactl --socket "$SES_SOCKET" ping >/dev/null 2>&1 && break
    sleep 0.1
  done
  "$BUILD_DIR"/psgactl --socket "$SES_SOCKET" ping >/dev/null \
    || { echo "ci.sh: psgad did not come up on $SES_SOCKET"; exit 1; }

  # Breakdowns, arrivals and due-date changes interleaved, times
  # non-decreasing — every session event kind crosses the wire.
  SES_TRACE=(
    "kind=breakdown time=5 machine=0 duration=8"
    "kind=breakdown time=9 machine=3 duration=6"
    "kind=arrival time=14 route=0:4,2:6,4:3"
    "kind=due time=18 job=2 due=70"
    "kind=breakdown time=22 machine=1 duration=10"
    "kind=arrival time=27 route=5:5,1:4,3:6,0:2"
    "kind=breakdown time=33 machine=5 duration=7"
    "kind=due time=38 job=1 due=90"
    "kind=breakdown time=45 machine=2 duration=9"
    "kind=arrival time=52 route=2:3,4:5"
  )
  # One replay of the trace; writes its transcript hash to file $1.
  ses_replay() {
    local id closed
    id=$("$BUILD_DIR"/psgactl --socket "$SES_SOCKET" session open ft06 \
      --generations 12 --seed 7 --slo 5)
    for event in "${SES_TRACE[@]}"; do
      "$BUILD_DIR"/psgactl --socket "$SES_SOCKET" session event "$id" \
        "$event" >/dev/null \
        || { echo "ci.sh: session event failed or missed its SLO: $event"
             exit 1; }
    done
    closed=$("$BUILD_DIR"/psgactl --socket "$SES_SOCKET" session close "$id")
    echo "${closed##*transcript_hash=}" >"$1"
  }
  SES_OUT=$(mktemp -d /tmp/psga_ses.XXXXXX)
  (ses_replay "$SES_OUT/1") &
  SES_RUN1=$!
  (ses_replay "$SES_OUT/2") &
  SES_RUN2=$!
  for run in "$SES_RUN1" "$SES_RUN2"; do
    wait "$run" || { echo "ci.sh: a concurrent session replay failed"; exit 1; }
  done
  SES_HASHES=("$(cat "$SES_OUT/1")" "$(cat "$SES_OUT/2")")
  rm -rf "$SES_OUT"
  if [[ -z "${SES_HASHES[0]}" \
        || "${SES_HASHES[0]}" != "${SES_HASHES[1]}" ]]; then
    echo "ci.sh: session transcripts diverged: ${SES_HASHES[*]}"; exit 1
  fi
  # Pinned absolutely as well: two runs of one build agree even when a
  # change shifts every objective the same way.
  SES_PINNED=f9244a97bafe1cd6
  if [[ "${SES_HASHES[0]}" != "$SES_PINNED" ]]; then
    echo "ci.sh: session transcript hash ${SES_HASHES[0]} is not the" \
         "pinned $SES_PINNED"; exit 1
  fi
  grep -q '"sessions": 0' \
    <<<"$("$BUILD_DIR"/psgactl --socket "$SES_SOCKET" info)" \
    || { echo "ci.sh: daemon still reports active sessions"; exit 1; }

  "$BUILD_DIR"/psgactl --socket "$SES_SOCKET" drain >/dev/null
  if ! wait "$SES_PID"; then
    echo "ci.sh: psgad exited non-zero after session smoke"; exit 1
  fi
  echo "ci.sh: session smoke OK (${#SES_TRACE[@]} events x 2 concurrent runs," \
       "SLO met," \
       "transcript hash ${SES_HASHES[0]})"
else
  echo "psgad/psgactl missing; skipping session smoke"
fi

# Dispatch resume smoke: run the smoke sweep through `psga_sweep
# --dispatch --jobs 2` against a live psgad, SIGKILL the sweep once the
# first finished cell record lands, then `--resume` it to completion.
# Validates the headline resume invariant — the resumed telemetry holds
# every cell exactly once (no duplicates, no holes) — and renders it
# with psga_report, checking the CSV parses and the HTML is whole.
if [[ -x "$BUILD_DIR/psga_sweep" && -x "$BUILD_DIR/psgad" \
      && -x "$BUILD_DIR/psga_report" ]] && command -v python3 >/dev/null; then
  DSP_SOCKET=$(mktemp -u /tmp/psgad_dsp.XXXXXX.sock)
  "$BUILD_DIR"/psgad --socket "$DSP_SOCKET" --workers 2 &
  DSP_PID=$!
  for _ in $(seq 50); do
    "$BUILD_DIR"/psgactl --socket "$DSP_SOCKET" ping >/dev/null 2>&1 && break
    sleep 0.1
  done
  "$BUILD_DIR"/psgactl --socket "$DSP_SOCKET" ping >/dev/null \
    || { echo "ci.sh: psgad did not come up on $DSP_SOCKET"; exit 1; }
  DSP_JSONL=$(mktemp /tmp/psga_dispatch.XXXXXX.jsonl)
  DSP_SUMMARY=$(mktemp /tmp/psga_dispatch_summary.XXXXXX.csv)
  "$BUILD_DIR"/psga_sweep --quiet --dispatch "$DSP_SOCKET" --jobs 2 \
    --telemetry "$DSP_JSONL" sweeps/smoke.sweep >/dev/null &
  DSP_SWEEP_PID=$!
  # Kill the dispatch as soon as the first finished cell lands. If it
  # finishes first, the resume below must still yield a complete,
  # duplicate-free file — the invariant holds either way.
  for _ in $(seq 200); do
    grep -q '"event":"cell"' "$DSP_JSONL" 2>/dev/null && break
    kill -0 "$DSP_SWEEP_PID" 2>/dev/null || break
    sleep 0.05
  done
  kill -9 "$DSP_SWEEP_PID" 2>/dev/null || true
  wait "$DSP_SWEEP_PID" 2>/dev/null || true
  "$BUILD_DIR"/psga_sweep --quiet --dispatch "$DSP_SOCKET" --jobs 2 \
    --resume "$DSP_JSONL" --csv --summary "$DSP_SUMMARY" \
    sweeps/smoke.sweep >/dev/null
  python3 - "$DSP_JSONL" "$DSP_SUMMARY" <<'PYEOF'
import csv
import json
import sys

hashes = {}
bad = 0
with open(sys.argv[1]) as f:
    for line in f:
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            bad += 1  # the SIGKILL's partial line; every consumer skips it
            continue
        if record.get("event") == "cell":
            count = hashes.get(record["hash"], 0)
            hashes[record["hash"]] = count + 1
            assert record["ok"], record
assert bad <= 1, f"{bad} unparsable telemetry lines"
assert len(hashes) == 12, f"expected 12 distinct cells, got {len(hashes)}"
dupes = {h: n for h, n in hashes.items() if n != 1}
assert not dupes, f"duplicate cell records after resume: {dupes}"
rows = [r for r in csv.reader(open(sys.argv[2]))
        if r and not r[0].startswith("# ")]
assert len(rows) >= 6, "resumed summary CSV looks empty"
print(f"ci.sh: dispatch resume smoke OK "
      f"({len(hashes)} cells once each, {bad} partial line)")
PYEOF
  DSP_CSV=$(mktemp /tmp/psga_report.XXXXXX.csv)
  DSP_HTML=$(mktemp /tmp/psga_report.XXXXXX.html)
  "$BUILD_DIR"/psga_report --csv "$DSP_CSV" --html "$DSP_HTML" \
    "$DSP_JSONL" 2>/dev/null
  python3 - "$DSP_CSV" "$DSP_HTML" <<'PYEOF'
import csv
import sys

data = 0
ok_column = None
for row in csv.reader(open(sys.argv[1])):
    if not row or row[0].startswith("# "):
        continue
    if row[1] == "cell":  # per-sweep header; axis columns vary per block
        ok_column = row.index("ok")
        continue
    assert ok_column is not None, f"cell row before any header: {row}"
    assert row[ok_column] == "true", f"report CSV has a failed cell: {row}"
    data += 1
assert data == 12, f"expected 12 CSV cell rows, got {data}"
html = open(sys.argv[2]).read()
assert "<svg" in html and "</html>" in html, "report HTML incomplete"
assert 'class="tiles"' in html and "cell p95" in html, (
    "report HTML is missing the latency tiles")
print("ci.sh: report render OK (CSV parses, HTML whole, latency tiles)")
PYEOF
  "$BUILD_DIR"/psgactl --socket "$DSP_SOCKET" drain >/dev/null
  if ! wait "$DSP_PID"; then
    echo "ci.sh: psgad exited non-zero after dispatch smoke"; exit 1
  fi
  rm -f "$DSP_JSONL" "$DSP_SUMMARY" "$DSP_CSV" "$DSP_HTML"
else
  echo "psga_sweep/psgad/psga_report or python3 missing; skipping dispatch resume smoke"
fi

# End-to-end harness self-test: every e2ebench workload runs in smoke
# mode and must emit exactly the metric set BENCHMARK.json declares. The
# harness compiles against the session and solver APIs, so this keeps it
# from rotting. It builds psga_e2e (Release) into .bench_build/e2e.
if command -v python3 >/dev/null; then
  python3 -m unittest discover -s e2ebench -p 'test_*.py'
  echo "ci.sh: e2ebench self-test OK"
else
  echo "python3 missing; skipping the e2ebench self-test"
fi

if [[ "${SKIP_BENCH:-0}" != "1" && ! -x "$BUILD_DIR/bench_micro_decoders" ]]; then
  echo "bench_micro_decoders not built (google-benchmark missing?); skipping perf snapshot"
  SKIP_BENCH=1
fi

# The committed snapshot must record optimized numbers: a Debug build
# would both pollute the baseline and trip the regression gate with
# meaningless 5-10x deltas, so refuse to snapshot or compare from one.
# (google-benchmark's own library_build_type reflects the *system*
# benchmark library, not this tree — read the cache instead.)
PSGA_BUILD_TYPE=""
if [[ -f "$BUILD_DIR/CMakeCache.txt" ]]; then
  PSGA_BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
                    "$BUILD_DIR/CMakeCache.txt" | head -1)
fi
if [[ "${SKIP_BENCH:-0}" != "1" && "${PSGA_BUILD_TYPE,,}" == "debug" ]]; then
  echo "ci.sh: $BUILD_DIR is a Debug build; refusing to snapshot or diff benches"
  SKIP_BENCH=1
fi

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
  FRESH=$(mktemp /tmp/psga_bench_micro.XXXXXX.json)
  # Repetitions + medians: single runs on a busy host swing by +-30%,
  # which is larger than the regression gate's tolerance.
  "$BUILD_DIR"/bench_micro_decoders \
    --benchmark_min_time=0.05 \
    --benchmark_repetitions=5 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out="$FRESH" \
    --benchmark_out_format=json >/dev/null

  # keep_medians SNAPSHOT [RUN]: keep only the median aggregate per bench
  # of RUN, under the plain bench name, so the snapshot format (and the
  # committed baseline's names) stay the same as a single-run snapshot.
  # With RUN the medians are appended to SNAPSHOT; without it SNAPSHOT's
  # own rows are replaced by their medians.
  keep_medians() {
    python3 - "$1" "${2:-$1}" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    snapshot = json.load(f)
with open(sys.argv[2]) as f:
    run = json.load(f)["benchmarks"]
medians = [b for b in run if b.get("aggregate_name") == "median"]
for b in medians:
    b["name"] = b["name"].removesuffix("_median")
if sys.argv[1] != sys.argv[2]:
    snapshot["benchmarks"].extend(medians)
elif medians:
    snapshot["benchmarks"] = medians
with open(sys.argv[1], "w") as f:
    json.dump(snapshot, f, indent=1)
PYEOF
  }
  if command -v python3 >/dev/null; then
    keep_medians "$FRESH"
  fi

  # Merge the cache bench into the same snapshot so the
  # hit-rate/decode-reduction counters live in BENCH_micro.json.
  if [[ -x "$BUILD_DIR/bench_micro_cache" ]] && command -v python3 >/dev/null; then
    CACHE_FRESH=$(mktemp /tmp/psga_bench_cache.XXXXXX.json)
    "$BUILD_DIR"/bench_micro_cache \
      --benchmark_min_time=0.05 \
      --benchmark_repetitions=5 \
      --benchmark_report_aggregates_only=true \
      --benchmark_format=json \
      --benchmark_out="$CACHE_FRESH" \
      --benchmark_out_format=json >/dev/null
    keep_medians "$FRESH" "$CACHE_FRESH"
    rm -f "$CACHE_FRESH"
  fi

  # Session event-latency snapshot: bench_session_latency reports the
  # per-event replan p95 (manual time) for warm and cold sessions over a
  # fixed seeded trace. Medians-of-5 ride into BENCH_micro.json like the
  # decoder benches, and the SessionEvent tag puts them under the same
  # >25% regression gate.
  if [[ -x "$BUILD_DIR/bench_session_latency" ]] \
     && command -v python3 >/dev/null; then
    SES_FRESH=$(mktemp /tmp/psga_bench_session.XXXXXX.json)
    "$BUILD_DIR"/bench_session_latency \
      --benchmark_min_time=0.05 \
      --benchmark_repetitions=5 \
      --benchmark_report_aggregates_only=true \
      --benchmark_format=json \
      --benchmark_out="$SES_FRESH" \
      --benchmark_out_format=json >/dev/null
    keep_medians "$FRESH" "$SES_FRESH"
    rm -f "$SES_FRESH"
  fi

  # Operator snapshot: breeding is a generation's other half beside
  # decoding, so the crossover, mutation and selection benches (among
  # them ft10-shaped job-repetition crossovers and whole-generation
  # pick_many rows) ride into BENCH_micro.json as medians-of-5, and the
  # BM_Crossover tag puts the crossover rows under the >25% gate.
  if [[ -x "$BUILD_DIR/bench_micro_operators" ]] \
     && command -v python3 >/dev/null; then
    OPS_FRESH=$(mktemp /tmp/psga_bench_operators.XXXXXX.json)
    "$BUILD_DIR"/bench_micro_operators \
      --benchmark_min_time=0.05 \
      --benchmark_repetitions=5 \
      --benchmark_report_aggregates_only=true \
      --benchmark_format=json \
      --benchmark_out="$OPS_FRESH" \
      --benchmark_out_format=json >/dev/null
    keep_medians "$FRESH" "$OPS_FRESH"
    rm -f "$OPS_FRESH"
  fi

  # Obs overhead gate: the always-on metrics write path must stay under
  # OBS_TOLERANCE (default 2%) of a decode-heavy engine run. The
  # enabled/disabled legs run back to back in one process so host drift
  # cancels out, and the gate judges min-of-repetitions (contention
  # only ever inflates a timing). A burst can still poison a whole
  # process, so a failing measurement is retried in fresh processes.
  if [[ -x "$BUILD_DIR/bench_micro_obs" ]] && command -v python3 >/dev/null; then
    OBS_FRESH=$(mktemp /tmp/psga_bench_obs.XXXXXX.json)
    OBS_OK=0
    for attempt in 1 2 3; do
      "$BUILD_DIR"/bench_micro_obs \
        --benchmark_min_time=0.05 \
        --benchmark_repetitions=5 \
        --benchmark_format=json \
        --benchmark_out="$OBS_FRESH" \
        --benchmark_out_format=json >/dev/null
      if OBS_TOLERANCE=${OBS_TOLERANCE:-0.02} \
         python3 - "$OBS_FRESH" <<'PYEOF'
import json
import os
import sys

tolerance = float(os.environ.get("OBS_TOLERANCE", "0.02"))
with open(sys.argv[1]) as f:
    benches = json.load(f)["benchmarks"]


def best(name):
    times = [b["real_time"] for b in benches
             if b["name"].startswith(name)
             and b.get("run_type") == "iteration"]
    assert times, f"no iteration timings for {name}"
    return min(times)


off = best("BM_DecodeRunObs/metrics:0")
on = best("BM_DecodeRunObs/metrics:1")
ratio = on / off
print(f"ci.sh: obs overhead {ratio - 1.0:+.2%} (metrics on {on:.2f} vs "
      f"off {off:.2f} ms, gate {tolerance:.0%})")
sys.exit(0 if ratio <= 1.0 + tolerance else 1)
PYEOF
      then OBS_OK=1; break; fi
      echo "ci.sh: obs overhead above gate, retrying ($attempt/3)"
    done
    if [[ "$OBS_OK" != "1" ]]; then
      echo "ci.sh: metrics-enabled decode run stayed > ${OBS_TOLERANCE:-0.02} slower across retries"
      exit 1
    fi
    # The primitive-cost benches ride into BENCH_micro.json with the
    # other micro suites (median aggregates, plain names).
    keep_medians "$FRESH" "$OBS_FRESH"
    rm -f "$OBS_FRESH"
  fi

  # Stamp the snapshot with this tree's build type so a future diff can
  # tell an optimized baseline from a stray debug one.
  if command -v python3 >/dev/null; then
    python3 - "$FRESH" "$PSGA_BUILD_TYPE" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    snapshot = json.load(f)
snapshot.setdefault("context", {})["psga_build_type"] = sys.argv[2]
with open(sys.argv[1], "w") as f:
    json.dump(snapshot, f, indent=1)
PYEOF
  fi

  if [[ "${SKIP_BENCH_DIFF:-0}" != "1" && -f BENCH_micro.json ]] \
     && command -v python3 >/dev/null; then
    # The gate python prints the delta table and writes the names of
    # regressed gated benches to $3 (empty file = pass).
    GATE_FAILS=$(mktemp /tmp/psga_bench_fails.XXXXXX)
    # Optional $1: file of bench names — only those may fail the gate
    # (used by the retry pass so a drift re-estimate over the updated
    # suite cannot flag benches that already passed the first pass).
    run_bench_gate() {
      BENCH_TOLERANCE=${BENCH_TOLERANCE:-0.25} GATE_ONLY="${1:-}" \
        python3 - BENCH_micro.json "$FRESH" "$GATE_FAILS" <<'PYEOF'
import json
import os
import sys

tolerance = float(os.environ.get("BENCH_TOLERANCE", "0.25"))
only = set()
if os.environ.get("GATE_ONLY"):
    with open(os.environ["GATE_ONLY"]) as f:
        only = {line.strip() for line in f if line.strip()}
with open(sys.argv[1]) as f:
    baseline = {b["name"]: b for b in json.load(f)["benchmarks"]}
with open(sys.argv[2]) as f:
    fresh = {b["name"]: b for b in json.load(f)["benchmarks"]}

# On a shared host the whole suite drifts together run-to-run (other
# tenants, frequency scaling) by more than the tolerance, so gate on the
# drift-normalized delta: each bench's time ratio divided by the median
# ratio across the full suite. A real regression moves one bench
# relative to the rest; host slowdown moves them all and cancels out.
ratios = sorted(fresh[n]["real_time"] / baseline[n]["real_time"]
                for n in fresh if n in baseline)
drift = ratios[len(ratios) // 2] if ratios else 1.0
# Host contention only ever *slows* the suite; a median ratio below 1.0
# means the committed baseline itself was recorded under load, and
# dividing by it would flag benches whose raw time barely moved. So only
# normalize slowdowns away — never penalize a run for being faster.
drift = max(drift, 1.0)

width = max((len(n) for n in fresh), default=20)
print(f"\n-- bench deltas vs committed BENCH_micro.json "
      f"(host drift x{drift:.2f}; gate: gated benches "
      f"> {tolerance:.0%} slower than drift fail)")
failures = []
for name, bench in fresh.items():
    old = baseline.get(name)
    if old is None:
        print(f"  {name:<{width}}  (new bench)")
        continue
    delta = bench["real_time"] / old["real_time"] - 1.0
    normalized = bench["real_time"] / old["real_time"] / drift - 1.0
    # The regression gate covers the decoder benches (the evaluation hot
    # path this snapshot exists to guard), the crossover benches (the
    # breeding hot path), the cache-layer hit and miss rows and the
    # session event-latency p95s; *_Scratch twins included.
    gated = any(tag in name for tag in
                ("Decode", "SemiActive", "GifflerThompson", "Makespan",
                 "Flexible", "LotStreaming", "OpenShop", "HybridFlowShop",
                 "SessionEvent", "BM_Crossover", "BM_Cache"))
    marker = ""
    if only and name not in only:
        gated = False
    if gated and normalized > tolerance:
        marker = "  << REGRESSION"
        failures.append((name, normalized))
    print(f"  {name:<{width}}  {old['real_time']:10.0f} -> "
          f"{bench['real_time']:10.0f} {bench.get('time_unit', 'ns')} "
          f"({delta:+7.1%} raw, {normalized:+7.1%} vs drift){marker}")
for name in baseline:
    if name not in fresh:
        print(f"  {name:<{width}}  (removed)")
with open(sys.argv[3], "w") as f:
    for name, delta in failures:
        f.write(f"{name}\n")
if failures:
    print(f"\nci.sh: {len(failures)} gated bench(es) regressed more than "
          f"{tolerance:.0%} beyond the suite-wide drift")
print()
PYEOF
    }
    run_bench_gate
    if [[ -s "$GATE_FAILS" ]]; then
      # Contention bursts during the minutes-long full suite inflate
      # individual benches by up to ~60% (narrow re-runs of the same
      # benches are stable within a few %), so re-measure just the
      # failing benches in isolation and re-judge on those numbers; the
      # isolated timings also land in the refreshed snapshot. Two noise
      # sources, two countermeasures: contention only ever inflates a
      # timing, so the retry judges on the min rather than the median —
      # and some benches are bimodal *per process* (heap/ASLR layout
      # locks each process into a fast or slow mode for its lifetime),
      # so the min is taken across several separate retry processes,
      # letting one fast-mode process clear a bench that is not slower.
      FILTER="^($(paste -sd'|' "$GATE_FAILS"))\$"
      RETRY_LIST=$(mktemp /tmp/psga_bench_retry_list.XXXXXX)
      cp "$GATE_FAILS" "$RETRY_LIST"
      echo "ci.sh: re-measuring $(wc -l < "$GATE_FAILS") failing bench(es) in isolation"
      RETRY_FILES=()
      for attempt in 1 2 3 4; do
        # Decoder, operator and cache-row bench names carry no suffix, so
        # the exact-name filter applies to these binaries as is.
        for bench in bench_micro_decoders bench_micro_operators \
                     bench_micro_cache; do
          [[ -x "$BUILD_DIR/$bench" ]] || continue
          RETRY=$(mktemp "/tmp/psga_bench_retry.${attempt}.XXXXXX.json")
          RETRY_FILES+=("$RETRY")
          "$BUILD_DIR/$bench" \
            --benchmark_filter="$FILTER" \
            --benchmark_min_time=0.05 \
            --benchmark_repetitions=3 \
            --benchmark_format=json \
            --benchmark_out="$RETRY" \
            --benchmark_out_format=json >/dev/null
        done
        # The session benches live in their own binary; re-measure them
        # too when one of them is what failed (family-level filter — the
        # reported /manual_time suffix is not part of the filter name).
        if grep -q SessionEvent "$GATE_FAILS" \
           && [[ -x "$BUILD_DIR/bench_session_latency" ]]; then
          SES_RETRY=$(mktemp "/tmp/psga_bench_sretry.${attempt}.XXXXXX.json")
          RETRY_FILES+=("$SES_RETRY")
          "$BUILD_DIR"/bench_session_latency \
            --benchmark_filter="BM_SessionEventP95" \
            --benchmark_min_time=0.05 \
            --benchmark_repetitions=3 \
            --benchmark_format=json \
            --benchmark_out="$SES_RETRY" \
            --benchmark_out_format=json >/dev/null
        fi
      done
      python3 - "$FRESH" "${RETRY_FILES[@]}" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    snapshot = json.load(f)
remeasured = {}
for path in sys.argv[2:]:
    with open(path) as f:
        # A retry binary whose filter matched nothing leaves an empty
        # out file (exit 0, no JSON) — e.g. bench_micro_operators when
        # only decoder or session benches failed. Skip it.
        text = f.read()
    if not text.strip():
        continue
    retry = json.loads(text)["benchmarks"]
    for b in retry:
        if b.get("run_type") != "iteration":
            continue
        cur = remeasured.get(b["name"])
        if cur is None or b["real_time"] < cur["real_time"]:
            remeasured[b["name"]] = b
for b in snapshot["benchmarks"]:
    if b["name"] in remeasured:
        fixed = dict(remeasured[b["name"]])
        fixed["name"] = b["name"]
        b.clear()
        b.update(fixed)
with open(sys.argv[1], "w") as f:
    json.dump(snapshot, f, indent=1)
PYEOF
      rm -f "${RETRY_FILES[@]}"
      run_bench_gate "$RETRY_LIST"
      rm -f "$RETRY_LIST"
    fi
    if [[ -s "$GATE_FAILS" ]]; then
      echo "ci.sh: gated bench regression confirmed by isolated re-run:"
      cat "$GATE_FAILS"
      rm -f "$GATE_FAILS"
      exit 1
    fi
    rm -f "$GATE_FAILS"
  fi

  # Scalar-vs-batch decode speedup summary (items/s, so the batched
  # kernels are directly comparable to their one-genome twins).
  if command -v python3 >/dev/null; then
    python3 - "$FRESH" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as f:
    benches = {b["name"]: b for b in json.load(f)["benchmarks"]}
pairs = [
    ("BM_FlowShopMakespan/20/5", "BM_FlowShopMakespanBatch/20/5/16"),
    ("BM_FlowShopMakespan/50/10", "BM_FlowShopMakespanBatch/50/10/16"),
    ("BM_FlowShopMakespan/100/20", "BM_FlowShopMakespanBatch/100/20/16"),
    ("BM_JobShopSemiActiveScratch", "BM_JobShopSemiActiveBatch/16"),
    ("BM_JobShopGifflerThompsonScratch", "BM_JobShopGifflerThompsonBatch/16"),
]
rows = []
for scalar, batch in pairs:
    s, b = benches.get(scalar), benches.get(batch)
    if not s or not b:
        continue
    su, bu = s.get("items_per_second"), b.get("items_per_second")
    if not su or not bu:
        continue
    rows.append((batch, bu / su, scalar))
if rows:
    print("-- batch decode speedup vs scalar (items/s)")
    width = max(len(r[0]) for r in rows)
    for batch, speedup, scalar in rows:
        print(f"  {batch:<{width}}  {speedup:5.2f}x vs {scalar}")
    print()
PYEOF
  fi

  mv "$FRESH" BENCH_micro.json
  echo "wrote BENCH_micro.json"
fi

echo "ci.sh: OK"
