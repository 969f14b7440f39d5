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
#include <stdexcept>
#include <string>
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

    // 200,000 bytes of '[' on one line: a structured error, not a crash.
    Json too_deep = round_trip(std::string(200000, '['));
    EXPECT_FALSE(too_deep.find("ok")->as_bool());
    EXPECT_NE(too_deep.string_or("error", "").find("nesting"),
              std::string::npos);

    // A generation budget outside int's range is an error, not 1.
    Json huge_submit = round_trip(
        R"({"op":"submit","spec":"problem=flowshop instance=ta001 )"
        R"(engine=simple pop=10","generations":4294967297})");
    EXPECT_FALSE(huge_submit.find("ok")->as_bool());
    EXPECT_NE(huge_submit.string_or("error", "").find("out of int range"),
              std::string::npos);
    Json huge_session = round_trip(
        R"({"op":"session_open","instance":"ft06","generations":4294967297})");
    EXPECT_FALSE(huge_session.find("ok")->as_bool());
    EXPECT_NE(huge_session.string_or("error", "").find("out of int range"),
              std::string::npos);

    // Integer fields take whole numbers only: a fraction, a string or a
    // priority beyond int's range is refused, not read as 0 or cast.
    const std::string submit =
        R"({"op":"submit","spec":"problem=flowshop instance=ta001 )"
        R"(engine=simple pop=10",)";
    for (const char* field :
         {R"("generations":2.5})", R"("generations":"40"})",
          R"("priority":1e300})"}) {
      SCOPED_TRACE(field);
      Json refused = round_trip(submit + field);
      EXPECT_FALSE(refused.find("ok")->as_bool());
      EXPECT_FALSE(refused.string_or("error", "").empty());
    }
    // Specs naming the deleted OpenMP runtime, chunk knob, eval_backend=
    // alias or removed cache forms are refused, never run as another
    // configuration.
    for (const char* token :
         {"eval=omp", "eval_batch=16", "eval_backend=pool",
          "eval_cache=unbounded", "eval_cache=unbounded:8",
          "eval_cache=lru:4096:16"}) {
      SCOPED_TRACE(token);
      Json stale = round_trip(
          std::string(R"({"op":"submit","spec":"problem=flowshop )") +
          "instance=ta001 engine=simple " + token + R"("})");
      EXPECT_FALSE(stale.find("ok")->as_bool());
      EXPECT_NE(stale.string_or("error", "").find(token), std::string::npos);
    }

    // ranks= beyond SolverSpec::kMaxRanks is refused at submit, before a
    // worker could start that many rank threads.
    Json too_many_ranks = round_trip(
        R"({"op":"submit","spec":"problem=flowshop instance=ta001 )"
        R"(engine=cluster ranks=100000"})");
    EXPECT_FALSE(too_many_ranks.find("ok")->as_bool());
    EXPECT_NE(too_many_ranks.string_or("error", "").find("ranks=100000"),
              std::string::npos);

    // Size tokens that crashed the engines (islands=0, width=0) or ran an
    // empty population (pop=0) are refused at submit, naming the token.
    const struct {
      const char* spec;
      const char* token;
    } sizes[] = {{"engine=island islands=0", "islands=0"},
                 {"engine=cellular width=0 height=4", "width=0"},
                 {"engine=simple pop=0", "pop=0"}};
    for (const auto& size : sizes) {
      SCOPED_TRACE(size.spec);
      Json refused = round_trip(
          std::string(R"({"op":"submit","spec":"problem=flowshop )") +
          "instance=ta001 " + size.spec + R"("})");
      EXPECT_FALSE(refused.find("ok")->as_bool());
      EXPECT_NE(refused.string_or("error", "").find(size.token),
                std::string::npos)
          << refused.string_or("error", "");
      EXPECT_TRUE(round_trip(R"({"op":"ping"})").find("ok")->as_bool());
    }

    // Values that killed psgad from one submit: immigration=-1 made
    // SimpleGa::step write past its next generation (SIGSEGV), and
    // refine=-3 with interval=1 handed partial_sort a middle before
    // begin() (SIGABRT). Both are refused at submit, naming the token.
    const struct {
      const char* spec;
      const char* token;
    } values[] = {{"engine=simple immigration=-1", "immigration=-1"},
                  {"engine=memetic refine=-3 interval=1", "refine=-3"}};
    for (const auto& value : values) {
      SCOPED_TRACE(value.spec);
      Json refused = round_trip(
          std::string(R"({"op":"submit","spec":"problem=flowshop )") +
          "instance=ta001 " + value.spec + R"("})");
      EXPECT_FALSE(refused.find("ok")->as_bool());
      EXPECT_NE(refused.string_or("error", "").find(value.token),
                std::string::npos)
          << refused.string_or("error", "");
      EXPECT_TRUE(round_trip(R"({"op":"ping"})").find("ok")->as_bool());
    }

    // After all that abuse the connection still serves good requests.
    Json ping = round_trip(R"({"op":"ping"})");
    EXPECT_TRUE(ping.find("ok")->as_bool());
  }
  server.stop();
}

TEST(Service, RequestLineOverTheCapIsRefusedAndClosed) {
  ServerConfig config = test_config();
  Server server(config);
  server.start();
  // A line exactly at the cap is still read: a ping padded with spaces.
  {
    Fd fd = unix_connect(config.socket_path);
    std::string ping = R"({"op":"ping"})";
    ping.resize(kMaxRequestBytes, ' ');
    ASSERT_TRUE(write_line(fd.get(), ping));
    LineReader reader(fd.get());
    std::string response;
    ASSERT_TRUE(reader.read_line(response));
    EXPECT_TRUE(Json::parse(response).find("ok")->as_bool()) << response;
  }
  // One byte over, and a 2 MiB line: a structured error, then the server
  // closes the connection. It stops reading at the cap, so the send can
  // fail part way (EPIPE); the reply is queued on our side by then.
  for (const std::size_t bytes : {kMaxRequestBytes + 1, 2 * kMaxRequestBytes}) {
    SCOPED_TRACE(std::to_string(bytes) + " bytes");
    Fd fd = unix_connect(config.socket_path);
    (void)write_line(fd.get(), std::string(bytes, '['));
    LineReader reader(fd.get());
    std::string response;
    ASSERT_TRUE(reader.read_line(response));
    const Json refused = Json::parse(response);
    EXPECT_FALSE(refused.find("ok")->as_bool());
    EXPECT_NE(refused.string_or("error", "").find("request too large"),
              std::string::npos)
        << response;
    EXPECT_FALSE(reader.read_line(response));  // closed
  }
  {
    // The daemon keeps serving, and info reports the cap.
    Client client(config.socket_path);
    client.ping();
    const Json info = client.info();
    ASSERT_NE(info.find("max_request_bytes"), nullptr);
    EXPECT_EQ(info.find("max_request_bytes")->as_u64(), kMaxRequestBytes);
  }
  server.stop();
}

TEST(Service, JobRecordIntegersReadExactlyOrThrow) {
  // job_from_json (psgactl, psga_sweep --dispatch) reads the daemon's
  // job records: an integer field out of its type's range is refused,
  // naming the value, never cast.
  const JobRecord good = job_from_json(Json::parse(
      R"({"id":4,"state":"done","priority":2,"generations":1e1,)"
      R"("evaluations":4294967297,"cache":{"hits":3,"misses":1}})"));
  EXPECT_EQ(good.priority, 2);
  EXPECT_EQ(good.generations, 10);
  EXPECT_EQ(good.evaluations, 4294967297LL);
  ASSERT_TRUE(good.cache.has_value());
  EXPECT_EQ(good.cache->hits, 3);
  for (const char* field :
       {R"("priority":1e300)", R"("generations":4294967297)"}) {
    SCOPED_TRACE(field);
    try {
      (void)job_from_json(Json::parse(
          std::string(R"({"id":4,"state":"done",)") + field + "}"));
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string value =
          std::string(field).substr(std::string(field).find(':') + 1);
      EXPECT_NE(std::string(e.what()).find(Json::parse(value).dump()),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Service, WholeNumbersInAnyJsonFormReadExactly) {
  ServerConfig config = test_config();
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    // Exponent form is a whole number: 1e1 generations run ten.
    const Json submitted = client.request(Json::parse(
        R"({"op":"submit","spec":"problem=flowshop instance=ta001 )"
        R"(engine=simple pop=10 seed=3","generations":1e1})"));
    const JobRecord job = client.wait(submitted.find("id")->as_i64());
    EXPECT_EQ(job.state, JobState::kDone);
    EXPECT_EQ(job.generations, 10);

    // A seed above INT64_MAX still opens a session.
    const Json opened = client.request(Json::parse(
        R"({"op":"session_open","instance":"ft06","generations":2,)"
        R"("solver":"engine=simple pop=8","seed":18446744073709551615})"));
    client.session_close(opened.find("session")->as_i64());
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

TEST(Service, CacheCountersReadBackExactlyFromEveryRecord) {
  // One writer and one reader (exp::cache_to_json, exp::cache_from_json)
  // carry the cache counters in a job's job_end line, its status record
  // and a sweep's cell record: each reads back the in-process run's
  // counters exactly, in the same bytes.
  const std::string spec =
      "problem=flowshop instance=ta001 engine=simple pop=16 elites=6 "
      "eval_cache=lru:24 seed=3";
  const ga::RunResult direct = ga::Solver::build(ga::RunSpec::parse(spec))
                                   .run(ga::StopCondition::generations(6));
  ASSERT_TRUE(direct.cache.has_value());
  EXPECT_GT(direct.cache->hits, 0);
  EXPECT_GT(direct.cache->evictions, 0);
  const auto expect_counters = [&direct](const ga::EvalCacheStats& got) {
    EXPECT_EQ(got.hits, direct.cache->hits);
    EXPECT_EQ(got.misses, direct.cache->misses);
    EXPECT_EQ(got.inserts, direct.cache->inserts);
    EXPECT_EQ(got.evictions, direct.cache->evictions);
  };

  exp::CellResult cell;
  cell.ok = true;
  cell.result = direct;
  const Json record =
      exp::cell_record(exp::SweepSpec::parse(spec), cell, "");
  const ga::RunResult resumed =
      exp::cell_result_from_record(cell.cell, record).result;
  ASSERT_TRUE(resumed.cache.has_value());
  expect_counters(*resumed.cache);

  ServerConfig config = test_config();
  Server server(config);
  server.start();
  {
    Client client(config.socket_path);
    SubmitOptions options;
    options.generations = 6;
    const long long id = client.submit(spec, options);
    std::vector<Json> lines;
    client.watch(id, [&](const Json& line) { lines.push_back(line); });
    ASSERT_FALSE(lines.empty());
    const Json& end = lines.back();
    ASSERT_EQ(end.string_or("event", ""), "job_end");
    expect_counters(exp::cache_from_json(*end.find("cache")));
    const JobRecord status = client.status(id);
    ASSERT_TRUE(status.cache.has_value());
    expect_counters(*status.cache);
    EXPECT_EQ(end.find("cache")->dump(), record.find("cache")->dump());
    EXPECT_EQ(job_to_json(status).find("cache")->dump(),
              record.find("cache")->dump());
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

/// The four RunResult scalars a finished job keeps, in its record.
void expect_run_summary(const JobRecord& record, const ga::RunResult& run) {
  EXPECT_EQ(record.best_objective, run.best_objective);
  EXPECT_EQ(record.generations, run.generations);
  EXPECT_EQ(record.evaluations, run.evaluations);
  ASSERT_EQ(record.cache.has_value(), run.cache.has_value());
  if (run.cache) {
    EXPECT_EQ(record.cache->hits, run.cache->hits);
    EXPECT_EQ(record.cache->misses, run.cache->misses);
    EXPECT_EQ(record.cache->inserts, run.cache->inserts);
    EXPECT_EQ(record.cache->evictions, run.cache->evictions);
  }
}

TEST(JobTableTest, SnapshotKeepsTheRunSummaryOfEveryTerminalJob) {
  JobTable table(4);
  const ga::StopCondition stop = ga::StopCondition::generations(3);
  const JobPtr done = table.submit("spec-done", 2, stop);
  const JobPtr failed = table.submit("spec-failed", 1, stop);
  const JobPtr cancelled = table.submit("spec-cancelled", 0, stop);

  // Done: a real run with every RunResult section engaged (history,
  // islands, metrics, cache counters); only its summary is kept.
  ASSERT_EQ(table.next_job(), done);
  const ga::RunResult run =
      ga::Solver::build(ga::RunSpec::parse(
                            "problem=flowshop instance=ta001 engine=island "
                            "islands=2 pop=8 eval_cache=lru:64 seed=3"))
          .run(stop);
  ASSERT_TRUE(run.cache.has_value());
  ASSERT_TRUE(run.islands.has_value());
  table.finish(done, JobState::kDone, run, "", 0.25);
  const JobRecord done_record = table.snapshot(done->record.id);
  EXPECT_EQ(done_record.state, JobState::kDone);
  EXPECT_EQ(done_record.spec, "spec-done");
  EXPECT_EQ(done_record.priority, 2);
  EXPECT_EQ(done_record.stop, stop);
  EXPECT_TRUE(done_record.error.empty());
  EXPECT_EQ(done_record.seconds, 0.25);
  expect_run_summary(done_record, run);

  // Failed: the runner hands over an empty RunResult and the error.
  ASSERT_EQ(table.next_job(), failed);
  table.finish(failed, JobState::kFailed, ga::RunResult{}, "boom", 0.5);
  const JobRecord failed_record = table.snapshot(failed->record.id);
  EXPECT_EQ(failed_record.state, JobState::kFailed);
  EXPECT_EQ(failed_record.error, "boom");
  EXPECT_EQ(failed_record.seconds, 0.5);
  expect_run_summary(failed_record, ga::RunResult{});

  // Cancelled while queued: never ran, so the empty summary.
  EXPECT_EQ(table.request_cancel(cancelled->record.id), JobState::kCancelled);
  const JobRecord cancelled_record = table.snapshot(cancelled->record.id);
  EXPECT_EQ(cancelled_record.state, JobState::kCancelled);
  EXPECT_TRUE(cancelled_record.error.empty());
  EXPECT_EQ(cancelled_record.seconds, 0.0);
  expect_run_summary(cancelled_record, ga::RunResult{});
  // Its log is the one job_end line the table wrote.
  std::size_t cursor = 0;
  std::vector<std::string> lines;
  ASSERT_TRUE(table.follow_log(cancelled, cursor, lines));
  ASSERT_EQ(lines.size(), 1u);
  const Json end = Json::parse(lines[0]);
  EXPECT_EQ(end.string_or("event", ""), "job_end");
  EXPECT_EQ(end.string_or("state", ""), "cancelled");
  EXPECT_EQ(end.string_or("spec", ""), "spec-cancelled");
  EXPECT_FALSE(table.follow_log(cancelled, cursor, lines));

  // snapshot_all serves the same records, in id order.
  const std::vector<JobRecord> all = table.snapshot_all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(job_to_json(all[0]).dump(), job_to_json(done_record).dump());
  EXPECT_EQ(job_to_json(all[1]).dump(), job_to_json(failed_record).dump());
  EXPECT_EQ(job_to_json(all[2]).dump(), job_to_json(cancelled_record).dump());
}

TEST(JobTableTest, FollowLogReplaysByteIdenticalLinesFromEveryCursor) {
  JobTable table(4);
  const JobPtr job = table.submit("spec", 0, ga::StopCondition{});
  ASSERT_EQ(table.next_job(), job);
  // Lines of every shape: only the stored line ends separate them.
  std::vector<std::string> lines = {
      R"({"schema_version":1,"event":"run_begin","job":1})", "", "x",
      std::string(10000, 'g'), R"({"event":"improvement","s":"\u00e9 \n"})"};
  for (int i = 0; i < 40; ++i) {
    lines.push_back(R"({"event":"generation","generation":)" +
                    std::to_string(i) + "}");
  }
  for (const std::string& line : lines) table.append_log(job, line);

  const auto suffix = [&lines](std::size_t from) {
    return std::vector<std::string>(
        lines.begin() + static_cast<std::ptrdiff_t>(from), lines.end());
  };
  // Live log: every cursor short of the end gets the rest, and `out`'s
  // stale contents are replaced, not appended to.
  for (std::size_t from = 0; from < lines.size(); ++from) {
    SCOPED_TRACE("live cursor " + std::to_string(from));
    std::size_t cursor = from;
    std::vector<std::string> out = {"stale", "lines", "here"};
    ASSERT_TRUE(table.follow_log(job, cursor, out));
    EXPECT_EQ(cursor, lines.size());
    EXPECT_EQ(out, suffix(from));
  }
  // A watcher at the end waits for the next line.
  const std::string job_end = R"({"event":"job_end","job":1,"ok":true})";
  std::vector<std::string> tail;
  std::thread watcher([&] {
    std::size_t cursor = lines.size();
    table.follow_log(job, cursor, tail);
  });
  table.append_log(job, job_end);
  watcher.join();
  EXPECT_EQ(tail, std::vector<std::string>{job_end});
  lines.push_back(job_end);

  // Closed (and shrunk) log: cursors 0..n, the last one empty and done.
  table.finish(job, JobState::kDone, ga::RunResult{}, "", 0.1);
  for (std::size_t from = 0; from <= lines.size(); ++from) {
    SCOPED_TRACE("closed cursor " + std::to_string(from));
    std::size_t cursor = from;
    std::vector<std::string> out = {"stale"};
    EXPECT_EQ(table.follow_log(job, cursor, out), from < lines.size());
    EXPECT_EQ(cursor, lines.size());
    EXPECT_EQ(out, suffix(from));
  }
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
  EXPECT_THROW(config.apply_tokens("max_evaluations=-1"),
               std::invalid_argument);
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

TEST(Dispatch, UnreadableResumeRecordIsRerun) {
  // In-process telemetry holds the same cell records (and hashes) a
  // dispatched run writes.
  std::ostringstream full_stream;
  exp::SweepResult full;
  {
    exp::TelemetrySink sink(full_stream);
    exp::SweepOptions options;
    options.telemetry = &sink;
    full = exp::run_sweep(dispatch_test_sweep(), options);
  }
  ASSERT_EQ(full.failed, 0);

  // A caller-filled resume map: cell 1's record says "evaluations": "x".
  exp::FinishedCells finished;
  std::istringstream lines(full_stream.str());
  std::string line;
  while (std::getline(lines, line)) {
    const Json record = Json::parse(line);
    if (record.string_or("event", "") != "cell") continue;
    Json kept = Json::object();
    for (const Json::Member& member : record.members()) {
      kept.set(member.first,
               member.first == "evaluations" &&
                       record.find("cell")->as_int() == 1
                   ? Json::string("x")
                   : member.second);
    }
    finished[record.string_or("hash", "")] = kept;
  }
  ASSERT_EQ(finished.size(), full.cells.size());

  ServerConfig config = test_config();
  config.workers = 2;
  Server server(config);
  server.start();
  DispatchOptions options;
  options.jobs = 2;
  options.resume = &finished;
  const exp::SweepResult resumed =
      dispatch_sweep(dispatch_test_sweep(), config.socket_path, options);
  ASSERT_EQ(resumed.cells.size(), full.cells.size());
  EXPECT_EQ(resumed.failed, 0);
  for (std::size_t i = 0; i < resumed.cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_TRUE(resumed.cells[i].ok) << resumed.cells[i].error;
    EXPECT_EQ(resumed.cells[i].resumed, i != 1u);
    EXPECT_EQ(resumed.cells[i].result.evaluations,
              full.cells[i].result.evaluations);
  }
  // Only the unreadable cell was submitted.
  Client client(config.socket_path);
  EXPECT_EQ(client.list().size(), 1u);
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
