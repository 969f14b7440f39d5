#!/usr/bin/env bash
# Tier-1 verify + perf smoke for psga.
#
#   ./ci.sh            build, run the full ctest suite, rebuild the
#                      cache/sweep/service/session/obs suites under
#                      ASan/UBSan and run them, run the same binary
#                      under TSan, run a psga_sweep smoke
#                      sweep (JSONL + summary validated), run a psgad
#                      service smoke (submit/watch/cancel/size tokens
#                      that crashed engines/a 200 KB line of '['/a 2 MiB
#                      line/drain over a temp socket) and
#                      a session
#                      smoke (10-event seeded
#                      replanning trace, SLO met, transcript hash equal
#                      across two concurrent runs and to its pinned
#                      value), run the
#                      e2ebench harness self-test (every workload in
#                      smoke mode), then run the micro-bench gate
#   SKIP_BENCH=1 ./ci.sh        tests only
#   SKIP_SAN=1 ./ci.sh          skip the sanitizer legs (ASan/UBSan, TSan)
#   BENCH_TOLERANCE=0.25        gated-row regression threshold (fraction)
#   OBS_TOLERANCE=0.02          metrics-on over metrics-off threshold
#
# The micro-bench gate compares this tree with HEAD, never with a
# committed snapshot. It builds HEAD's tree in Release under
# .bench_build/base and runs every row of the BENCH_TABLE binaries for
# HEAD and for this tree in 7 pairs (bench/gate.py; its judge is
# self-tested by bench/test_gate.py first). A pair is two back-to-back
# processes of one repetition each, alternating which side runs first,
# and every process is pinned to one CPU of this script's affinity mask.
# A gated row fails when its median per-pair time ratio exceeds
# 1 + BENCH_TOLERANCE. The obs gate runs bench_micro_obs's metrics-on
# and metrics-off decode legs in 60 pinned processes and fails when the
# median per-process on/off ratio exceeds 1 + OBS_TOLERANCE. This tree's
# per-row medians, stamped with HEAD's commit, nproc and the build type,
# go to .bench_build/bench_micro.json; the gate writes no tracked file.
# It compares Release builds only.
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

  # ThreadSanitizer leg: the whole pipeline binary — pool lanes writing
  # one objective vector, islands and cluster ranks sharing one
  # evaluation cache, callers sharing session solve slots, readers racing
  # close(), clients racing daemon connection threads. No thread runs
  # uninstrumented runtime code (there is no OpenMP dependency), so any
  # report fails the leg.
  TSAN_DIR=${TSAN_DIR:-build-tsan}
  cmake -B "$TSAN_DIR" -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
        -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread \
        -DPSGA_BUILD_BENCHES=OFF -DPSGA_BUILD_EXAMPLES=OFF
  TSAN_TARGETS=$(cmake --build "$TSAN_DIR" --target help 2>/dev/null || true)
  if grep -q psga_pipeline_tests <<<"$TSAN_TARGETS"; then
    cmake --build "$TSAN_DIR" -j "$JOBS" --target psga_pipeline_tests
    TSAN_OPTIONS=halt_on_error=1 "$TSAN_DIR"/psga_pipeline_tests \
      --gtest_brief=1
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
# shop with zero-duration operations, submit islands=0 and width=0 specs
# (each must be refused naming its token), send one 200,000-byte request line
# of '[' and one 2 MiB line (each must get a structured error and leave
# the daemon serving), drain, and require the daemon to exit 0 and
# unlink its socket.
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
# What the daemon retains: exactly the one finished (watched) job so far,
# and its log's bytes.
gauges = stats["metrics"]["gauges"]
assert gauges.get("svc.jobs.retained") == 1, gauges
assert gauges.get("svc.jobs.log_bytes", 0) > 0, gauges
with open(sys.argv[2]) as f:
    info = json.load(f)
assert info["build_type"], info
assert info["uptime_seconds"] >= 0, info
assert info["totals"]["admitted"] >= 1, info
assert info["latency"]["run"]["p50"] >= 0, info
assert info["max_request_bytes"] == 1 << 20, info
print("ci.sh: stats scrape OK (admitted="
      f"{counters['svc.jobs.admitted']}, retained="
      f"{gauges['svc.jobs.retained']}, log_bytes="
      f"{gauges['svc.jobs.log_bytes']}, build={info['build_type']})")
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

  # Size tokens that crashed the engines: islands=0 (IslandGa::best()
  # read front() of no islands) and width=0 (CellularGa::init() did the
  # same on an empty grid). Each submit must get an error reply naming
  # the token, and the daemon must keep serving.
  for SIZE_SPEC in 'engine=island islands=0' 'engine=cellular width=0 height=4'; do
    SIZE_TOKEN=${SIZE_SPEC#* }
    SIZE_TOKEN=${SIZE_TOKEN%% *}
    if SIZE_REPLY=$("$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" submit \
        "problem=flowshop instance=ta001 $SIZE_SPEC" 2>&1); then
      echo "ci.sh: psgad accepted '$SIZE_SPEC': $SIZE_REPLY"; exit 1
    fi
    grep -qF "'$SIZE_TOKEN'" <<<"$SIZE_REPLY" \
      || { echo "ci.sh: refusal of '$SIZE_SPEC' does not name $SIZE_TOKEN: $SIZE_REPLY"; exit 1; }
    "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" ping >/dev/null \
      || { echo "ci.sh: psgad died on '$SIZE_SPEC'"; exit 1; }
    echo "ci.sh: '$SIZE_SPEC' refused: $SIZE_REPLY"
  done

  # A hostile request line: 200,000 bytes of '['. The JSON parser caps
  # nesting depth, so the daemon answers with a structured error and
  # keeps serving.
  python3 - "$SVC_SOCKET" <<'PYEOF'
import json
import socket
import sys

with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
    conn.settimeout(30)
    conn.connect(sys.argv[1])
    conn.sendall(b"[" * 200000 + b"\n")
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = conn.recv(65536)
        assert chunk, "psgad closed the connection without a reply"
        reply += chunk
response = json.loads(reply)
assert response.get("ok") is False and response.get("error"), response
print(f"ci.sh: 200 KB line of '[' answered: {response['error']}")
PYEOF
  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" ping >/dev/null \
    || { echo "ci.sh: psgad died on a 200 KB line of '['"; exit 1; }

  # A 2 MiB request line, twice the daemon's 1 MiB request cap: it stops
  # reading at the cap, answers with a structured error and closes the
  # connection (so our send may break part way), and keeps serving.
  python3 - "$SVC_SOCKET" <<'PYEOF'
import json
import socket
import sys

with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
    conn.settimeout(30)
    conn.connect(sys.argv[1])
    try:
        conn.sendall(b"[" * (2 << 20) + b"\n")
    except (BrokenPipeError, ConnectionResetError):
        pass
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = conn.recv(65536)
        assert chunk, "psgad closed the connection without a reply"
        reply += chunk
response = json.loads(reply)
assert response.get("ok") is False, response
assert "request too large" in response.get("error", ""), response
print(f"ci.sh: 2 MiB line answered: {response['error']}")
PYEOF
  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" ping >/dev/null \
    || { echo "ci.sh: psgad died on a 2 MiB request line"; exit 1; }

  "$BUILD_DIR"/psgactl --socket "$SVC_SOCKET" drain >/dev/null
  if ! wait "$SVC_PID"; then
    echo "ci.sh: psgad exited non-zero after drain"; exit 1
  fi
  if [[ -e "$SVC_SOCKET" ]]; then
    echo "ci.sh: psgad left its socket behind"; exit 1
  fi
  echo "ci.sh: service smoke OK (submit/watch/cancel/hostile lines/drain)"
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

# Micro-bench gate (bench/gate.py): this tree's micro benches against a
# Release build of HEAD's, in pinned pairs. Each table row is a bench
# binary and the name fragments of its gated rows.
BENCH_TABLE=(
  "bench_micro_decoders Decode,SemiActive,GifflerThompson,Makespan,Flexible,LotStreaming,OpenShop,HybridFlowShop"
  "bench_micro_cache BM_Cache"
  "bench_session_latency SessionEvent"
  "bench_micro_operators BM_Crossover"
)
PSGA_BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
if [[ "${SKIP_BENCH:-0}" == "1" ]]; then
  echo "ci.sh: SKIP_BENCH=1; skipping the micro-bench gate"
elif [[ ! -x "$BUILD_DIR/bench_micro_decoders" ]] || ! command -v python3 >/dev/null \
     || ! git rev-parse -q --verify HEAD >/dev/null; then
  echo "bench binaries, python3 or a git HEAD missing; skipping the micro-bench gate"
elif [[ "$PSGA_BUILD_TYPE" != "Release" ]]; then
  echo "ci.sh: $BUILD_DIR is a '$PSGA_BUILD_TYPE' build; the micro-bench gate compares Release builds only"
else
  python3 -m unittest discover -s bench -p 'test_*.py'
  # HEAD's tree, unpacked once per commit.
  BASE_COMMIT=$(git rev-parse HEAD)
  BASE=.bench_build/base
  if [[ "$(cat "$BASE/commit" 2>/dev/null)" != "$BASE_COMMIT" ]]; then
    rm -rf "$BASE" && mkdir -p "$BASE/src"
    git archive HEAD | tar -x -m -C "$BASE/src"
    echo "$BASE_COMMIT" >"$BASE/commit"
  fi
  cmake -B "$BASE/build" -S "$BASE/src" -DCMAKE_BUILD_TYPE=Release \
        -DPSGA_BUILD_TESTS=OFF -DPSGA_BUILD_EXAMPLES=OFF >/dev/null
  for row in "${BENCH_TABLE[@]}"; do
    bench=${row%% *}
    if [[ -f "$BASE/src/bench/$bench.cpp" ]]; then
      cmake --build "$BASE/build" -j "$JOBS" --target "$bench" >/dev/null
    fi
  done
  python3 bench/gate.py --base "$BASE/build" --change "$BUILD_DIR" \
    --base-commit "$BASE_COMMIT" --build-type "$PSGA_BUILD_TYPE" \
    --tolerance "${BENCH_TOLERANCE:-0.25}" \
    --obs-tolerance "${OBS_TOLERANCE:-0.02}" \
    --out .bench_build/bench_micro.json "${BENCH_TABLE[@]}"
fi

echo "ci.sh: OK"
