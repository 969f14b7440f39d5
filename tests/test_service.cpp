// The solver service lockdown: an in-process psgad server core over a
// temp Unix socket, driven through the same svc::Client that psgactl
// uses. Covers the submit round trip (daemon result ≡ in-process
// Solver, bit-identical), admission control, cancel mid-run,
// drain-with-queued-jobs, malformed-request structured errors,
// concurrent clients, watch streaming, priority scheduling and config
// reload. Lives in the pipeline test binary so the ci.sh ASan/UBSan leg
// races the whole server (workers + connection threads + watchers).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "src/exp/aggregate.h"
#include "src/exp/sweep_runner.h"
#include "src/exp/sweep_spec.h"
#include "src/exp/telemetry.h"
#include "src/ga/solver.h"
#include "src/svc/client.h"
#include "src/svc/dispatch.h"
#include "src/svc/job_table.h"
#include "src/svc/server.h"
#include "src/svc/socket.h"

namespace psga::svc {
namespace {

using exp::Json;

std::string temp_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/psga_svc_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Spins until the job leaves the queued state (the submit → running
/// handoff is asynchronous). The job itself is deterministic; only this
/// transition needs polling.
JobRecord await_running(Client& client, long long id) {
  for (;;) {
    const JobRecord job = client.status(id);
    if (job.state != JobState::kQueued) return job;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A job sized to still be running when the test reacts: enough
/// generations that it cannot finish early, small enough per-generation
/// cost that cancellation lands promptly. The 120 s wall-clock cap is a
/// safety net for a cancellation path regression — no test waits for it.
constexpr const char* kLongSpec =
    "problem=flowshop instance=ta001 engine=simple pop=8 seed=1";

ServerConfig test_config() {
  ServerConfig config;
  config.socket_path = temp_socket_path();
  config.max_seconds = 120.0;
  return config;
}

SubmitOptions long_budget() {
  SubmitOptions options;
  options.generations = 50'000'000;
  return options;
}

// --- round trip -------------------------------------------------------------

TEST(Service, SubmitRoundTripMatchesInProcessSolver) {
  const std::string spec =
      "problem=flowshop instance=ta001 engine=island islands=4 pop=12 "
      "eval=pool seed=42";
  const ga::StopCondition stop = ga::StopCondition::generations(12);
  const ga::RunResult direct =
      ga::Solver::build(ga::RunSpec::parse(spec)).run(stop);

  ServerConfig config = test_config();
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    SubmitOptions options;
    options.generations = 12;
    const long long id = client.submit(spec, options);
    const JobRecord job = client.wait(id);
    EXPECT_EQ(job.state, JobState::kDone);
    // Bit-identical: the daemon runs the same spec through the same
    // Solver facade — not approximately equal, exactly equal.
    EXPECT_EQ(job.best_objective, direct.best_objective);
    EXPECT_EQ(job.evaluations, direct.evaluations);
    EXPECT_EQ(job.generations, direct.generations);
    // The canonical spec round-trips into the job record.
    EXPECT_EQ(job.spec, ga::RunSpec::parse(spec).to_string());
  }
  server.stop();
}

TEST(Service, JobShopSpecRoundTripsToo) {
  const std::string spec =
      "problem=jobshop instance=ft06 engine=simple pop=16 seed=7";
  const ga::StopCondition stop = ga::StopCondition::generations(8);
  const ga::RunResult direct =
      ga::Solver::build(ga::RunSpec::parse(spec)).run(stop);

  ServerConfig config = test_config();
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    SubmitOptions options;
    options.generations = 8;
    const JobRecord job = client.wait(client.submit(spec, options));
    EXPECT_EQ(job.state, JobState::kDone);
    EXPECT_EQ(job.best_objective, direct.best_objective);
    EXPECT_EQ(job.evaluations, direct.evaluations);
  }
  server.stop();
}

// --- admission control ------------------------------------------------------

TEST(Service, AdmissionLimitRejectsWhenQueueIsFull) {
  ServerConfig config = test_config();
  config.workers = 1;
  config.max_queued = 1;
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    const long long running = client.submit(kLongSpec, long_budget());
    await_running(client, running);
    const long long queued = client.submit(kLongSpec, long_budget());
    // Queue holds one job; the next submit must be rejected with a
    // structured error, not a dropped connection.
    try {
      client.submit(kLongSpec, long_budget());
      FAIL() << "third submit should have been rejected";
    } catch (const ServiceError& e) {
      EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos)
          << e.what();
    }
    // The connection survives the rejection.
    client.ping();
    client.cancel(queued);
    client.cancel(running);
    EXPECT_EQ(client.wait(running).state, JobState::kCancelled);
  }
  server.stop();
}

// --- cancellation -----------------------------------------------------------

TEST(Service, CancelMidRunStopsAtGenerationBoundary) {
  ServerConfig config = test_config();
  config.workers = 1;
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    const long long id = client.submit(kLongSpec, long_budget());
    await_running(client, id);
    client.cancel(id);
    const JobRecord job = client.wait(id);
    EXPECT_EQ(job.state, JobState::kCancelled);
    // The engine stopped early (nowhere near the requested budget) but
    // still reports its best-so-far anytime answer.
    EXPECT_LT(job.generations, 50'000'000);
    EXPECT_GT(job.best_objective, 0.0);
    EXPECT_GT(job.evaluations, 0);
  }
  server.stop();
}

TEST(Service, CancelQueuedJobNeverRuns) {
  ServerConfig config = test_config();
  config.workers = 1;
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    const long long running = client.submit(kLongSpec, long_budget());
    await_running(client, running);
    const long long queued = client.submit(kLongSpec, long_budget());
    EXPECT_EQ(client.cancel(queued), JobState::kCancelled);
    const JobRecord job = client.status(queued);
    EXPECT_EQ(job.state, JobState::kCancelled);
    EXPECT_EQ(job.evaluations, 0);  // never touched a worker
    client.cancel(running);
    client.wait(running);
  }
  server.stop();
}

// --- drain ------------------------------------------------------------------

TEST(Service, DrainCancelsQueuedFinishesRunning) {
  ServerConfig config = test_config();
  config.workers = 1;
  Server server(config);
  server.start();
  long long first = 0;
  std::vector<long long> rest;
  {
    Client client(config.socket_path);
    // Long enough (tens of ms) to still be running while the three
    // queued submits and the drain cross the socket: a job that ends
    // first would free the worker for rest[0] and leave only two to
    // cancel. Short enough that the drain's wait for it stays brief.
    SubmitOptions quick;
    quick.generations = 20000;
    first = client.submit(
        "problem=flowshop instance=ta001 engine=simple pop=10 seed=3", quick);
    await_running(client, first);
    for (int i = 0; i < 3; ++i) {
      rest.push_back(client.submit(kLongSpec, long_budget()));
    }
    const int cancelled = client.drain();
    EXPECT_EQ(cancelled, 3);
    // Draining rejects new work immediately.
    try {
      client.submit(kLongSpec, long_budget());
      FAIL() << "submit during drain should be rejected";
    } catch (const ServiceError& e) {
      EXPECT_NE(std::string(e.what()).find("draining"), std::string::npos);
    }
  }
  // The drain completes: running job finished, queued jobs cancelled.
  server.wait();
  EXPECT_EQ(server.jobs().snapshot(first).state, JobState::kDone);
  for (const long long id : rest) {
    EXPECT_EQ(server.jobs().snapshot(id).state, JobState::kCancelled);
  }
}

// --- structured errors ------------------------------------------------------

TEST(Service, MalformedRequestsGetStructuredErrors) {
  ServerConfig config = test_config();
  Server server(config);
  server.start();
  {
    // Raw socket: send lines Client would refuse to build.
    Fd fd = unix_connect(config.socket_path);
    LineReader reader(fd.get());
    auto round_trip = [&](const std::string& line) {
      EXPECT_TRUE(write_line(fd.get(), line));
      std::string response;
      EXPECT_TRUE(reader.read_line(response));
      return Json::parse(response);
    };

    Json bad_json = round_trip("this is not json");
    EXPECT_FALSE(bad_json.find("ok")->as_bool());
    EXPECT_FALSE(bad_json.string_or("error", "").empty());

    Json bad_op = round_trip(R"({"op":"explode"})");
    EXPECT_FALSE(bad_op.find("ok")->as_bool());
    EXPECT_NE(bad_op.string_or("error", "").find("explode"),
              std::string::npos);

    Json no_op = round_trip(R"({"hello":"world"})");
    EXPECT_FALSE(no_op.find("ok")->as_bool());

    Json bad_spec = round_trip(
        R"({"op":"submit","spec":"problem=flowshop instance=ta001 engine=warp-drive"})");
    EXPECT_FALSE(bad_spec.find("ok")->as_bool());
    EXPECT_NE(bad_spec.string_or("error", "").find("warp-drive"),
              std::string::npos);

    Json missing_id = round_trip(R"({"op":"status"})");
    EXPECT_FALSE(missing_id.find("ok")->as_bool());

    Json unknown_id = round_trip(R"({"op":"status","id":999})");
    EXPECT_FALSE(unknown_id.find("ok")->as_bool());
    EXPECT_NE(unknown_id.string_or("error", "").find("999"),
              std::string::npos);

    // After all that abuse the connection still serves good requests.
    Json ping = round_trip(R"({"op":"ping"})");
    EXPECT_TRUE(ping.find("ok")->as_bool());
  }
  server.stop();
}

// --- watch ------------------------------------------------------------------

TEST(Service, WatchStreamsTelemetryToJobEnd) {
  const std::string spec =
      "problem=flowshop instance=ta001 engine=simple pop=10 seed=11";
  ServerConfig config = test_config();
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    SubmitOptions options;
    options.generations = 20;
    const long long id = client.submit(spec, options);
    std::vector<Json> lines;
    const JobRecord job =
        client.watch(id, [&](const Json& line) { lines.push_back(line); });
    EXPECT_EQ(job.state, JobState::kDone);
    ASSERT_FALSE(lines.empty());
    // Replay starts at the job's beginning and ends with job_end; every
    // line is schema-stamped and keyed by this job.
    EXPECT_EQ(lines.front().string_or("event", ""), "run_begin");
    EXPECT_EQ(lines.back().string_or("event", ""), "job_end");
    int generations = 0;
    for (const Json& line : lines) {
      ASSERT_NE(line.find("schema_version"), nullptr) << line.dump();
      EXPECT_EQ(line.find("schema_version")->as_i64(),
                exp::kTelemetrySchemaVersion);
      EXPECT_EQ(line.find("job")->as_i64(), id);
      if (line.string_or("event", "") == "generation") ++generations;
    }
    EXPECT_GE(generations, 20);  // every generation streamed (stride 1)
    EXPECT_EQ(lines.back().number_or("best_objective", -1.0),
              job.best_objective);
    EXPECT_TRUE(lines.back().find("ok")->as_bool());
    // A late watcher replays the identical, already-closed log.
    std::vector<Json> replay;
    client.watch(id, [&](const Json& line) { replay.push_back(line); });
    ASSERT_EQ(replay.size(), lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(replay[i].dump(), lines[i].dump());
    }
  }
  server.stop();
}

TEST(Service, FailedJobStreamsErrorJobEnd) {
  ServerConfig config = test_config();
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    // Parses fine (registry-legal tokens) but fails at run time: the
    // instance does not resolve.
    const long long id = client.submit(
        "problem=flowshop instance=no_such_file.fsp engine=simple pop=8");
    std::vector<Json> lines;
    const JobRecord job =
        client.watch(id, [&](const Json& line) { lines.push_back(line); });
    EXPECT_EQ(job.state, JobState::kFailed);
    EXPECT_FALSE(job.error.empty());
    ASSERT_FALSE(lines.empty());
    const Json& end = lines.back();
    EXPECT_EQ(end.string_or("event", ""), "job_end");
    EXPECT_FALSE(end.find("ok")->as_bool());
    EXPECT_FALSE(end.string_or("error", "").empty());
  }
  server.stop();
}

// --- concurrency ------------------------------------------------------------

TEST(Service, ConcurrentClientsGetIsolatedDeterministicResults) {
  ServerConfig config = test_config();
  config.workers = 3;
  config.max_queued = 64;
  Server server(config);
  server.start();
  // Every seed's expected answer, computed in-process first.
  constexpr int kClients = 8;
  std::vector<double> expected(kClients);
  for (int i = 0; i < kClients; ++i) {
    expected[static_cast<std::size_t>(i)] =
        ga::Solver::build(
                ga::RunSpec::parse("problem=flowshop instance=ta001 "
                                   "engine=simple pop=10 seed=" +
                                   std::to_string(100 + i)))
            .run(ga::StopCondition::generations(10))
            .best_objective;
  }
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        Client client(config.socket_path);
        SubmitOptions options;
        options.generations = 10;
        const long long id = client.submit(
            "problem=flowshop instance=ta001 engine=simple pop=10 seed=" +
                std::to_string(100 + i),
            options);
        const JobRecord job = client.wait(id);
        if (job.state != JobState::kDone) {
          failures[static_cast<std::size_t>(i)] =
              std::string("state ") + to_string(job.state);
        } else if (job.best_objective !=
                   expected[static_cast<std::size_t>(i)]) {
          failures[static_cast<std::size_t>(i)] = "objective mismatch";
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(i)] = e.what();
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(failures[static_cast<std::size_t>(i)].empty())
        << "client " << i << ": " << failures[static_cast<std::size_t>(i)];
  }
  server.stop();
}

// --- job table scheduling ---------------------------------------------------

TEST(JobTableTest, PriorityOrderFifoWithinPriority) {
  JobTable table(16);
  const ga::StopCondition stop;
  const JobPtr low_a = table.submit("spec-low-a", 0, stop);
  const JobPtr high = table.submit("spec-high", 5, stop);
  const JobPtr low_b = table.submit("spec-low-b", 0, stop);
  const JobPtr mid = table.submit("spec-mid", 3, stop);
  EXPECT_EQ(table.next_job(), high);
  EXPECT_EQ(table.next_job(), mid);
  EXPECT_EQ(table.next_job(), low_a);  // FIFO within priority 0
  EXPECT_EQ(table.next_job(), low_b);
}

TEST(JobTableTest, AdmissionAndDrain) {
  JobTable table(2);
  const ga::StopCondition stop;
  table.submit("a", 0, stop);
  table.submit("b", 0, stop);
  EXPECT_THROW(table.submit("c", 0, stop), AdmissionError);
  EXPECT_EQ(table.drain(), 2);
  EXPECT_THROW(table.submit("d", 0, stop), AdmissionError);
  EXPECT_EQ(table.next_job(), nullptr);  // drained: workers exit
}

// --- config -----------------------------------------------------------------

TEST(ServerConfigTest, TokensParseAndUnknownKeysThrow) {
  ServerConfig config;
  config.apply_tokens(
      "workers=4 max_queued=9 max_generations=500 max_seconds=2.5 "
      "max_evaluations=100000 telemetry_every=0 socket=/tmp/x.sock "
      "# trailing comment\n");
  EXPECT_EQ(config.workers, 4);
  EXPECT_EQ(config.max_queued, 9);
  EXPECT_EQ(config.max_generations, 500);
  EXPECT_DOUBLE_EQ(config.max_seconds, 2.5);
  EXPECT_EQ(config.max_evaluations, 100000);
  EXPECT_EQ(config.telemetry_every, 0);
  EXPECT_EQ(config.socket_path, "/tmp/x.sock");
  EXPECT_THROW(config.apply_tokens("warp=9"), std::invalid_argument);
  EXPECT_THROW(config.apply_tokens("workers=lots"), std::invalid_argument);
}

TEST(ServerConfigTest, ClampCapsEveryBudgetAxis) {
  ServerConfig config;
  config.max_generations = 100;
  config.max_seconds = 5.0;
  config.max_evaluations = 1000;
  ga::StopCondition greedy;
  greedy.max_generations = 1'000'000;
  greedy.max_seconds = 3600.0;
  greedy.max_evaluations = 100'000'000;
  const ga::StopCondition clamped = config.clamp(greedy);
  EXPECT_EQ(clamped.max_generations, 100);
  EXPECT_DOUBLE_EQ(clamped.max_seconds, 5.0);
  EXPECT_EQ(clamped.max_evaluations, 1000);
  // A modest request passes through; unset fields inherit the caps.
  ga::StopCondition modest;
  modest.max_generations = 10;
  const ga::StopCondition kept = config.clamp(modest);
  EXPECT_EQ(kept.max_generations, 10);
  EXPECT_DOUBLE_EQ(kept.max_seconds, 5.0);
  EXPECT_EQ(kept.max_evaluations, 1000);
}

TEST(Service, ReloadTightensAdmission) {
  ServerConfig config = test_config();
  config.workers = 1;
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    const long long running = client.submit(kLongSpec, long_budget());
    await_running(client, running);
    ServerConfig tightened = config;
    tightened.max_queued = 0;
    server.reload(tightened);
    EXPECT_THROW(client.submit(kLongSpec, long_budget()), ServiceError);
    client.cancel(running);
    client.wait(running);
  }
  server.stop();
}

// --- telemetry schema stamping ----------------------------------------------

TEST(TelemetrySchema, EveryLineCarriesSchemaVersionFirst) {
  std::ostringstream out;
  exp::TelemetrySink sink(out);
  sink.write(Json::object()
                 .set("event", Json::string("generation"))
                 .set("best", Json::number(1.5)));
  const Json line = Json::parse(out.str());
  ASSERT_TRUE(line.is_object());
  ASSERT_FALSE(line.members().empty());
  EXPECT_EQ(line.members().front().first, "schema_version");
  EXPECT_EQ(line.find("schema_version")->as_i64(),
            exp::kTelemetrySchemaVersion);
  // A line that already carries the field is not double-stamped.
  std::ostringstream out2;
  exp::TelemetrySink sink2(out2);
  sink2.write(Json::object()
                  .set("schema_version", Json::integer(1))
                  .set("event", Json::string("x")));
  const Json line2 = Json::parse(out2.str());
  int stamps = 0;
  for (const Json::Member& member : line2.members()) {
    stamps += member.first == "schema_version";
  }
  EXPECT_EQ(stamps, 1);
}

// --- sweep dispatch ---------------------------------------------------------

exp::SweepSpec dispatch_test_sweep() {
  return exp::SweepSpec::parse(
      "problem=flowshop engine=island islands=2 pop=8\n"
      "topology={ring,full}\n"
      "@instances=ta001 @reps=2 @generations=3 @seed=17");
}

/// Cell records keyed by hash with the wall-clock `seconds` stripped —
/// the byte-compatibility unit for dispatched vs in-process telemetry.
std::map<std::string, std::string> cells_sans_seconds(
    const std::string& jsonl) {
  std::map<std::string, std::string> out;
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);
    if (record.string_or("event", "") != "cell") continue;
    Json normalized = Json::object();
    for (const Json::Member& member : record.members()) {
      if (member.first != "seconds") {
        normalized.set(member.first, member.second);
      }
    }
    out[record.string_or("hash", "")] = normalized.dump();
  }
  return out;
}

TEST(Dispatch, MatchesInProcessSweepAcrossJobCounts) {
  // In-process baseline with telemetry.
  std::ostringstream in_process_stream;
  exp::SweepResult in_process;
  {
    exp::TelemetrySink sink(in_process_stream);
    exp::SweepOptions options;
    options.telemetry = &sink;
    in_process = exp::run_sweep(dispatch_test_sweep(), options);
  }
  ASSERT_EQ(in_process.failed, 0);
  const std::string table =
      exp::summary_table(in_process.spec, exp::summarize(in_process))
          .to_string();

  ServerConfig config = test_config();
  config.workers = 2;
  config.max_queued = 64;
  Server server(config);
  server.start();
  for (const int jobs : {1, 4}) {
    std::ostringstream dispatched_stream;
    exp::TelemetrySink sink(dispatched_stream);
    DispatchOptions options;
    options.jobs = jobs;
    options.telemetry = &sink;
    const exp::SweepResult dispatched =
        dispatch_sweep(dispatch_test_sweep(), config.socket_path, options);
    ASSERT_EQ(dispatched.failed, 0) << "jobs=" << jobs;
    ASSERT_EQ(dispatched.cells.size(), in_process.cells.size());
    for (std::size_t i = 0; i < in_process.cells.size(); ++i) {
      // Seeds are baked into the cell specs, so the daemon reproduces
      // the in-process result bit for bit at any parallelism.
      EXPECT_EQ(dispatched.cells[i].result.best_objective,
                in_process.cells[i].result.best_objective)
          << "jobs=" << jobs << " cell " << i;
      EXPECT_EQ(dispatched.cells[i].result.evaluations,
                in_process.cells[i].result.evaluations);
      EXPECT_EQ(dispatched.cells[i].result.problem,
                in_process.cells[i].result.problem);
    }
    EXPECT_EQ(
        exp::summary_table(dispatched.spec, exp::summarize(dispatched))
            .to_string(),
        table)
        << "jobs=" << jobs;
    // Telemetry byte-compatibility: identical cell records mod timing.
    EXPECT_EQ(cells_sans_seconds(dispatched_stream.str()),
              cells_sans_seconds(in_process_stream.str()))
        << "jobs=" << jobs;
  }
  server.stop();
}

TEST(Dispatch, RetriesAcrossDaemonRestart) {
  ServerConfig config = test_config();
  config.workers = 1;
  std::optional<Server> server;
  server.emplace(config);
  server->start();

  DispatchOptions options;
  options.jobs = 1;  // serial: the restart lands between two known cells
  options.attempts = 10;
  options.backoff_ms = 5;
  int restarts = 0;
  options.progress = [&](const exp::CellResult& cell, int done, int total) {
    EXPECT_TRUE(cell.ok) << cell.error;
    if (done == 2) {
      // Kill and recreate the daemon on the same socket: the next
      // cell's connection dies mid-flight and must reconnect + resubmit
      // (a restarted daemon has forgotten every job id).
      server.emplace(config);
      server->start();
      ++restarts;
    }
    (void)total;
  };
  const exp::SweepResult dispatched =
      dispatch_sweep(dispatch_test_sweep(), config.socket_path, options);
  EXPECT_EQ(restarts, 1);
  EXPECT_EQ(dispatched.failed, 0);

  // Bit-identical to the in-process run despite the restart.
  const exp::SweepResult in_process = exp::run_sweep(dispatch_test_sweep());
  for (std::size_t i = 0; i < in_process.cells.size(); ++i) {
    EXPECT_EQ(dispatched.cells[i].result.best_objective,
              in_process.cells[i].result.best_objective)
        << "cell " << i;
  }
  server->stop();
}

TEST(Dispatch, ResumeSkipsFinishedCellsWithoutSubmitting) {
  ServerConfig config = test_config();
  config.workers = 2;
  config.max_queued = 64;

  // First pass: run the full sweep, keep its telemetry.
  std::ostringstream first_stream;
  {
    Server server(config);
    server.start();
    exp::TelemetrySink sink(first_stream);
    DispatchOptions options;
    options.jobs = 2;
    options.telemetry = &sink;
    ASSERT_EQ(
        dispatch_sweep(dispatch_test_sweep(), config.socket_path, options)
            .failed,
        0);
    server.stop();
  }

  // Pretend the run died after 3 cells; resume against a fresh daemon.
  std::string truncated;
  {
    std::istringstream lines(first_stream.str());
    std::string line;
    int cells = 0;
    while (cells < 3 && std::getline(lines, line)) {
      truncated += line + "\n";
      if (Json::parse(line).string_or("event", "") == "cell") ++cells;
    }
  }
  std::istringstream scan_in(truncated);
  const exp::FinishedCells finished = exp::scan_finished_cells(scan_in);
  ASSERT_EQ(finished.size(), 3u);

  ServerConfig fresh = test_config();
  fresh.workers = 2;
  fresh.max_queued = 64;
  Server server(fresh);
  server.start();
  std::ostringstream resumed_stream;
  exp::TelemetrySink sink(resumed_stream);
  DispatchOptions options;
  options.jobs = 2;
  options.telemetry = &sink;
  options.resume = &finished;
  const exp::SweepResult resumed =
      dispatch_sweep(dispatch_test_sweep(), fresh.socket_path, options);
  EXPECT_EQ(resumed.failed, 0);
  int resumed_cells = 0;
  for (const exp::CellResult& cell : resumed.cells) {
    resumed_cells += cell.resumed;
  }
  EXPECT_EQ(resumed_cells, 3);
  // Finished cells were never submitted: the fresh daemon saw only the
  // remaining jobs.
  Client client(fresh.socket_path);
  EXPECT_EQ(client.list().size(), resumed.cells.size() - 3);
  // The union is the uninterrupted telemetry (mod timing).
  EXPECT_EQ(cells_sans_seconds(truncated + resumed_stream.str()),
            cells_sans_seconds(first_stream.str()));
  server.stop();
}

TEST(Dispatch, QueueFullBacksOffUntilAdmitted) {
  // A tiny admission window (1 worker, 1 queued) against 4 concurrent
  // dispatch lanes: submits bounce with "queue full" and must back off
  // and retry instead of failing the cell.
  ServerConfig config = test_config();
  config.workers = 1;
  config.max_queued = 1;
  Server server(config);
  server.start();
  DispatchOptions options;
  options.jobs = 4;
  options.attempts = 200;
  options.backoff_ms = 1;
  const exp::SweepResult dispatched =
      dispatch_sweep(dispatch_test_sweep(), config.socket_path, options);
  EXPECT_EQ(dispatched.failed, 0);
  server.stop();
}

TEST(Dispatch, UnreachableDaemonFailsSoftWithoutCellRecords) {
  std::ostringstream stream;
  exp::TelemetrySink sink(stream);
  DispatchOptions options;
  options.telemetry = &sink;
  options.attempts = 2;
  options.backoff_ms = 1;
  const exp::SweepResult dispatched = dispatch_sweep(
      dispatch_test_sweep(), temp_socket_path(), options);
  // Every cell fails soft in-memory...
  EXPECT_EQ(dispatched.failed, static_cast<int>(dispatched.cells.size()));
  for (const exp::CellResult& cell : dispatched.cells) {
    EXPECT_NE(cell.error.find("dispatch:"), std::string::npos) << cell.error;
  }
  // ...but writes no cell records: an outage is environmental, and a
  // later --resume must re-run these cells rather than trust it.
  EXPECT_TRUE(cells_sans_seconds(stream.str()).empty());
  std::istringstream lines(stream.str());
  std::string line;
  bool saw_begin = false;
  while (std::getline(lines, line)) {
    const std::string event = Json::parse(line).string_or("event", "");
    EXPECT_NE(event, "cell");
    saw_begin = saw_begin || event == "sweep_begin";
  }
  EXPECT_TRUE(saw_begin);
}

TEST(Dispatch, ConnectFailureIsATransportError) {
  // The fault taxonomy the retry loop keys on: a dead socket is a
  // TransportError (retryable), still catchable as ServiceError.
  EXPECT_THROW(Client client(temp_socket_path()), TransportError);
  try {
    Client client(temp_socket_path());
  } catch (const ServiceError&) {
    SUCCEED();
  }
}

}  // namespace
}  // namespace psga::svc
