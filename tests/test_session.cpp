// psga::session lockdown: event grammar round trips, the engine
// population-seeding seam (seeded-vs-fresh init diverges only in
// generation-0 ancestry), warm-start evaluation savings against a
// cold-restart reference, transcript determinism (in-process twice, and
// in-process vs through the daemon — bit-identical), and SessionManager
// ordering, solve slots, close races and error plumbing. Lives in the
// pipeline test binary so the ci.sh sanitizer legs race callers against
// each other and against daemon connection threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <latch>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/ga/problem_registry.h"
#include "src/ga/problems.h"
#include "src/ga/solver.h"
#include "src/session/manager.h"
#include "src/session/session.h"
#include "src/svc/client.h"
#include "src/svc/server.h"

namespace psga::session {
namespace {

std::string temp_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/psga_session_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// --- event grammar ----------------------------------------------------------

TEST(SessionEvent, ParseRoundTripsCanonicalTokens) {
  for (const char* text :
       {"kind=breakdown time=25 machine=2 duration=10",
        "kind=arrival time=40 route=0:3,2:5,1:4 due=120",
        "kind=arrival time=7 route=1:2,0:9",
        "kind=due time=60 job=3 due=95"}) {
    const Event event = Event::parse(text);
    EXPECT_EQ(event.to_string(), text);
    // JSON round trip preserves the canonical token form too.
    EXPECT_EQ(Event::from_json(event.to_json()).to_string(), text);
  }
}

TEST(SessionEvent, ParseRejectsMalformedTokens) {
  EXPECT_THROW(Event::parse(""), std::invalid_argument);
  EXPECT_THROW(Event::parse("time=5"), std::invalid_argument);
  EXPECT_THROW(Event::parse("kind=meteor time=5"), std::invalid_argument);
  EXPECT_THROW(Event::parse("kind=breakdown bogus=1"), std::invalid_argument);
  EXPECT_THROW(Event::parse("kind=arrival time=1 route=0:"),
               std::invalid_argument);
}

TEST(SessionEvent, RandomTraceIsDeterministicAndOrdered) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  const std::vector<Event> a = random_trace(inst, 10, 7);
  const std::vector<Event> b = random_trace(inst, 10, 7);
  ASSERT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].to_string(), b[i].to_string());
    if (i > 0) EXPECT_GE(a[i].time, a[i - 1].time);
  }
  // A different seed yields a different trace.
  const std::vector<Event> c = random_trace(inst, 10, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || a[i].to_string() != c[i].to_string();
  }
  EXPECT_TRUE(any_diff);
}

// --- engine seeding seam ----------------------------------------------------

/// Population canonicalized for cross-engine comparison: engines report
/// snapshots sorted best-first, but tie order among equal objectives
/// depends on internal layout (grid cells, island deal order).
std::vector<std::pair<double, std::vector<int>>> canonical(
    const ga::PopulationSection& section) {
  std::vector<std::pair<double, std::vector<int>>> rows;
  for (std::size_t i = 0; i < section.genomes.size(); ++i) {
    rows.emplace_back(section.objectives[i], section.genomes[i].seq);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The spec-level seeding contract, for every engine family that
/// supports it: re-injecting the exact generation-0 population of a
/// fresh run reproduces that run's generation-0 state — the seeding path
/// replaces initial ancestry and nothing else.
TEST(EngineSeeding, SeededInitReproducesFreshGenerationZero) {
  const std::string problem = "problem=jobshop instance=ft06 ";
  for (const char* engine :
       {"engine=simple pop=16 seed=5", "engine=master-slave pop=16 seed=5",
        "engine=island islands=2 pop=8 seed=5",
        "engine=memetic pop=16 seed=5 interval=3 refine=1 budget=40",
        "engine=cellular width=4 height=4 seed=5"}) {
    SCOPED_TRACE(engine);
    const ga::RunSpec spec = ga::RunSpec::parse(problem + engine);

    ga::Solver fresh = ga::Solver::build(spec);
    fresh.run(ga::StopCondition::generations(0));
    const ga::PopulationSection gen0 = fresh.engine().population_snapshot();
    ASSERT_FALSE(gen0.genomes.empty());

    ga::Solver seeded = ga::Solver::build(spec);
    ASSERT_TRUE(seeded.engine().seed_population(gen0.genomes));
    seeded.run(ga::StopCondition::generations(0));
    EXPECT_EQ(canonical(seeded.engine().population_snapshot()),
              canonical(gen0));
  }
}

TEST(EngineSeeding, PartialSeedIsKeptAndShortfallIsRandom) {
  const ga::RunSpec spec = ga::RunSpec::parse(
      "problem=jobshop instance=ft06 engine=simple pop=16 seed=5");
  ga::Solver fresh = ga::Solver::build(spec);
  fresh.run(ga::StopCondition::generations(0));
  const ga::PopulationSection donor = fresh.engine().population_snapshot();
  const std::vector<ga::Genome> seeds(donor.genomes.begin(),
                                      donor.genomes.begin() + 3);

  ga::Solver seeded = ga::Solver::build(spec);
  ASSERT_TRUE(seeded.engine().seed_population(seeds));
  seeded.run(ga::StopCondition::generations(0));
  const ga::PopulationSection after = seeded.engine().population_snapshot();
  EXPECT_EQ(after.genomes.size(), 16u);
  for (const ga::Genome& seed : seeds) {
    const bool found =
        std::any_of(after.genomes.begin(), after.genomes.end(),
                    [&](const ga::Genome& g) { return g.seq == seed.seq; });
    EXPECT_TRUE(found);
  }
}

TEST(EngineSeeding, SeededRunsAreDeterministic) {
  const ga::RunSpec spec = ga::RunSpec::parse(
      "problem=jobshop instance=ft06 engine=simple pop=16 seed=5");
  ga::Solver donor = ga::Solver::build(spec);
  donor.run(ga::StopCondition::generations(3));
  const std::vector<ga::Genome> seeds =
      donor.engine().population_snapshot().genomes;

  ga::RunResult first, second;
  for (ga::RunResult* result : {&first, &second}) {
    ga::Solver solver = ga::Solver::build(spec);
    ASSERT_TRUE(solver.engine().seed_population(seeds));
    *result = solver.run(ga::StopCondition::generations(8));
  }
  EXPECT_EQ(first.best_objective, second.best_objective);
  EXPECT_EQ(first.history, second.history);
  EXPECT_EQ(first.best.seq, second.best.seq);
}

// --- sessions ---------------------------------------------------------------

SessionConfig quick_config(std::uint64_t seed, bool warm = true) {
  SessionConfig config;
  config.solver = "engine=simple pop=32";
  config.replan_generations = 12;
  config.seed = seed;
  config.warm.enabled = warm;
  return config;
}

TEST(Session, AnytimeInvariantHoldsAcrossATrace) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  Session session(inst, quick_config(3), 1);
  const EventReply opened = session.open();
  EXPECT_EQ(opened.index, 0);
  EXPECT_LE(opened.best, opened.baseline);

  for (const Event& event : random_trace(inst, 6, 21)) {
    const EventReply reply = session.apply(event);
    // The committed answer never regresses past right-shift repair, and
    // the session's view agrees with the reply.
    EXPECT_LE(reply.best, reply.baseline);
    EXPECT_EQ(reply.best, session.best_objective());
    EXPECT_EQ(reply.plan_hash, session.plan_hash());
    EXPECT_EQ(session.plan().size(), reply.frozen + reply.remaining);
  }
  EXPECT_EQ(session.events(), 7);
}

TEST(Session, ApplyRejectsTimeTravelAndUnopenedSessions) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  Session session(inst, quick_config(3), 1);
  Event event = Event::parse("kind=breakdown time=10 machine=0 duration=5");
  EXPECT_THROW(session.apply(event), std::logic_error);  // before open()
  session.open();
  session.apply(event);
  Event earlier = Event::parse("kind=breakdown time=4 machine=1 duration=5");
  EXPECT_THROW(session.apply(earlier), std::invalid_argument);
}

TEST(Session, CloseSealsTheSession) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  Session session(inst, quick_config(3), 1);
  session.open();
  const std::string transcript = session.transcript_text();
  session.close();
  EXPECT_THROW(
      session.apply(Event::parse("kind=breakdown time=10 machine=0 "
                                 "duration=5")),
      std::invalid_argument);
  EXPECT_THROW(session.open(), std::invalid_argument);
  // Sealing changes nothing, and the readers keep working.
  EXPECT_EQ(session.events(), 1);
  EXPECT_EQ(session.now(), 0);
  EXPECT_EQ(session.transcript_text(), transcript);
}

/// The decode-overflow rule: an event whose state would let a decode
/// overflow Time is rejected before it changes anything, and the session
/// keeps serving.
TEST(Session, RejectsEventsThatOverflowTime) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  Session session(inst, quick_config(3), 1);
  session.open();
  session.apply(Event::parse("kind=breakdown time=5 machine=1 duration=4"));
  const int events = session.events();
  const std::uint64_t plan = session.plan_hash();
  const std::uint64_t transcript = session.transcript_hash();
  for (const char* hostile :
       {"kind=breakdown time=10 machine=0 duration=9223372036854775800",
        "kind=arrival time=10 route=0:4611686018427387904,"
        "1:4611686018427387904"}) {
    EXPECT_THROW(session.apply(Event::parse(hostile)), std::invalid_argument)
        << hostile;
    EXPECT_EQ(session.events(), events);
    EXPECT_EQ(session.plan_hash(), plan);
    EXPECT_EQ(session.transcript_hash(), transcript);
    EXPECT_EQ(session.now(), 5);
  }
  const EventReply reply =
      session.apply(Event::parse("kind=arrival time=10 route=0:4,1:4"));
  EXPECT_EQ(reply.index, events);
  EXPECT_EQ(session.now(), 10);

  // The same rule guards the opening instance.
  sched::JobShopInstance huge = inst;
  huge.attrs.release.assign(static_cast<std::size_t>(huge.jobs), 0);
  huge.attrs.release[0] = std::numeric_limits<sched::Time>::max() - 10;
  EXPECT_THROW(Session(huge, quick_config(3), 2), std::invalid_argument);
}

TEST(Session, TranscriptIsBitIdenticalAcrossRuns) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  const std::vector<Event> trace = random_trace(inst, 8, 11);

  std::string first, second;
  for (std::string* text : {&first, &second}) {
    // Distinct session ids on purpose: identity must not leak into the
    // transcript (the in-process-vs-daemon comparison depends on this).
    Session session(inst, quick_config(7), text == &first ? 1 : 99);
    session.open();
    for (const Event& event : trace) session.apply(event);
    *text = session.transcript_text();
  }
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(fnv1a(first), fnv1a(second));
  // Timing is excluded by design; determinism would be impossible with it.
  EXPECT_EQ(first.find("seconds"), std::string::npos);
}

/// The ISSUE's acceptance criterion: warm-started replanning reaches the
/// cold-restart reference objective with measurably fewer evaluations.
/// The cold session records, per event, the objective a from-scratch
/// replan achieves under the full budget; the warm session then replays
/// the same trace with each event's stop set to target that reference —
/// carried survivors let it hit the target (or better) well before the
/// budget is spent.
TEST(Session, WarmStartReachesColdReferenceWithFewerEvaluations) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft10");
  const std::vector<Event> trace = random_trace(inst, 5, 13);
  const int generations = 30;

  SessionConfig cold_config = quick_config(5, /*warm=*/false);
  cold_config.replan_generations = generations;
  Session cold(inst, cold_config, 1);
  cold.open();
  std::vector<double> reference;
  long long cold_evaluations = 0;
  for (const Event& event : trace) {
    const EventReply reply = cold.apply(event);
    reference.push_back(reply.best);
    cold_evaluations += reply.evaluations;
  }

  SessionConfig warm_config = quick_config(5, /*warm=*/true);
  warm_config.replan_generations = generations;
  Session warm(inst, warm_config, 1);
  warm.open();
  long long warm_evaluations = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ga::StopCondition stop =
        ga::StopCondition::target(reference[i], generations);
    const EventReply reply = warm.apply(trace[i], stop);
    EXPECT_GT(reply.carried, 0u);
    warm_evaluations += reply.evaluations;
  }
  EXPECT_LT(warm_evaluations, cold_evaluations);
}

// --- the manager ------------------------------------------------------------

TEST(SessionManager, MultiplexedSessionsMatchStandaloneTranscripts) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  const std::vector<Event> trace_a = random_trace(inst, 6, 31);
  const std::vector<Event> trace_b = random_trace(inst, 6, 32);

  SessionManagerConfig manager_config;
  manager_config.workers = 1;
  SessionManager manager(manager_config);
  const long long a = manager.open(inst, quick_config(41));
  const long long b = manager.open(inst, quick_config(42));
  EXPECT_EQ(manager.active(), 2);

  // Two callers share the one solve slot; each still sees its own
  // session's events applied in the order it sent them.
  const auto drive = [&manager](long long id, const std::vector<Event>& trace,
                                std::vector<int>* indices) {
    for (const Event& event : trace) {
      indices->push_back(manager.apply(id, event).index);
    }
  };
  std::vector<int> indices_a, indices_b;
  std::thread caller_b(drive, b, std::cref(trace_b), &indices_b);
  drive(a, trace_a, &indices_a);
  caller_b.join();
  const std::vector<int> in_order = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(indices_a, in_order);
  EXPECT_EQ(indices_b, in_order);
  const SessionManager::CloseResult closed_a = manager.close(a);
  const SessionManager::CloseResult closed_b = manager.close(b);
  EXPECT_EQ(manager.active(), 0);

  // Each multiplexed transcript is bit-identical to a standalone session:
  // the manager's scheduling freedom may not leak into results.
  const auto expect_standalone = [&](const std::vector<Event>& trace,
                                     const SessionManager::CloseResult& closed,
                                     std::uint64_t seed) {
    Session standalone(inst, quick_config(seed), 7);
    standalone.open();
    for (const Event& event : trace) standalone.apply(event);
    EXPECT_EQ(closed.transcript, standalone.transcript_text());
    EXPECT_EQ(closed.transcript_hash, standalone.transcript_hash());
  };
  expect_standalone(trace_a, closed_a, 41);
  expect_standalone(trace_b, closed_b, 42);
}

TEST(SessionManager, ApplyRethrowsEventErrorsAndRejectsUnknownSessions) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  const Event breakdown =
      Event::parse("kind=breakdown time=9 machine=0 duration=4");
  SessionManager manager;
  EXPECT_THROW(manager.apply(123, breakdown), std::invalid_argument);
  EXPECT_THROW(manager.best(123), std::invalid_argument);
  EXPECT_THROW(manager.close(123), std::invalid_argument);

  const long long id = manager.open(inst, quick_config(1));
  manager.apply(id, breakdown);
  // Time travel fails in the replan; its own exception reaches the caller.
  EXPECT_THROW(
      manager.apply(id, Event::parse("kind=breakdown time=2 machine=1 "
                                     "duration=4")),
      std::invalid_argument);
  // The session survives a failed event.
  const SessionManager::BestView view = manager.best(id);
  EXPECT_GT(view.best, 0.0);
  EXPECT_EQ(view.events, 2);
  manager.close(id);
  EXPECT_THROW(manager.apply(id, breakdown), std::invalid_argument);
}

/// A reader looping best() while close() runs must never touch a destroyed
/// session (ASan reports that as a heap-use-after-free).
TEST(SessionManager, BestRacingCloseNeverReadsAClosedSession) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  SessionConfig config;
  config.solver = "engine=simple pop=4";
  config.replan_generations = 0;
  SessionManager manager;
  for (int round = 0; round < 300; ++round) {
    const long long id = manager.open(inst, config);
    std::atomic<bool> reading{false};
    std::thread reader([&manager, &reading, id] {
      for (;;) {
        try {
          manager.best(id);
        } catch (const std::invalid_argument& error) {
          EXPECT_NE(std::string(error.what()).find("unknown session id"),
                    std::string::npos);
          return;
        }
        reading.store(true);
      }
    });
    while (!reading.load()) std::this_thread::yield();
    manager.close(id);
    reader.join();
  }
  EXPECT_EQ(manager.active(), 0);
}

/// With one slot, two callers' replans cannot overlap: the time both calls
/// span covers both replans end to end. (Two slots may overlap them, so
/// the check is one-sided.)
TEST(SessionManager, SolveSlotsBoundConcurrentReplans) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft10");
  SessionConfig config;
  config.solver = "engine=simple pop=64";
  config.replan_generations = 60;
  SessionManagerConfig manager_config;
  manager_config.workers = 1;
  SessionManager manager(manager_config);
  const long long ids[2] = {manager.open(inst, config),
                            manager.open(inst, config)};
  const Event event = random_trace(inst, 1, 5).front();

  using Clock = std::chrono::steady_clock;
  Clock::time_point starts[2], ends[2];
  double seconds[2] = {0.0, 0.0};
  std::latch go(2);
  const auto caller = [&](int k) {
    go.arrive_and_wait();
    starts[k] = Clock::now();
    seconds[k] = manager.apply(ids[k], event).seconds;
    ends[k] = Clock::now();
  };
  std::thread second(caller, 1);
  caller(0);
  second.join();

  const double joint = std::chrono::duration<double>(
                           std::max(ends[0], ends[1]) -
                           std::min(starts[0], starts[1]))
                           .count();
  EXPECT_GE(joint, seconds[0] + seconds[1]);
  manager.close(ids[0]);
  manager.close(ids[1]);
}

TEST(SessionManager, RecordsActiveGaugeAndEventCounters) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  SessionManager manager;
  const long long id = manager.open(inst, quick_config(1));
  manager.apply(id, Event::parse("kind=breakdown time=9 machine=0 duration=4"));
  const obs::MetricsSnapshot during = manager.metrics()->snapshot();
  ASSERT_NE(during.gauge("session.active"), nullptr);
  EXPECT_EQ(*during.gauge("session.active"), 1);
  manager.close(id);

  const obs::MetricsSnapshot after = manager.metrics()->snapshot();
  EXPECT_EQ(*after.gauge("session.active"), 0);
  EXPECT_EQ(*after.counter("session.opened"), 1u);
  EXPECT_EQ(*after.counter("session.closed"), 1u);
  EXPECT_EQ(*after.counter("session.events"), 1u);
  ASSERT_NE(after.counter("session.replans"), nullptr);
  EXPECT_GE(*after.counter("session.replans"), 1u);
  ASSERT_NE(after.histogram("session.event_latency_ns"), nullptr);
  EXPECT_EQ(after.histogram("session.event_latency_ns")->count, 2u);
}

// --- through the daemon -----------------------------------------------------

/// The tentpole invariant: the same event trace + seed produces a
/// bit-identical session transcript whether the session runs in-process
/// or behind psgad (where its solves run on a connection thread under a
/// session slot).
TEST(SessionService, DaemonTranscriptMatchesInProcess) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft06");
  const std::vector<Event> trace = random_trace(inst, 8, 77);

  Session in_process(inst, quick_config(17), 1);
  in_process.open();
  for (const Event& event : trace) in_process.apply(event);

  svc::ServerConfig server_config;
  server_config.socket_path = temp_socket_path();
  svc::Server server(server_config);
  server.start();
  {
    svc::Client client(server.socket_path());
    svc::SessionOptions options;
    options.solver = quick_config(17).solver;
    options.generations = quick_config(17).replan_generations;
    options.seed = 17;
    const long long id = client.session_open("ft06", options);
    for (const Event& event : trace) {
      const exp::Json reply = client.session_event(id, event.to_json());
      EXPECT_TRUE(reply.find("slo_met")->as_bool());
    }
    const exp::Json best = client.session_best(id);
    EXPECT_EQ(best.find("best")->as_number(), in_process.best_objective());

    const exp::Json closed = client.session_close(id);
    EXPECT_EQ(closed.string_or("transcript", ""),
              in_process.transcript_text());
    EXPECT_EQ(closed.find("transcript_hash")->as_u64(),
              in_process.transcript_hash());
    EXPECT_THROW(client.session_best(id), svc::ServiceError);
  }
  server.stop();
}

TEST(SessionService, OverflowingEventGetsAnErrorReply) {
  svc::ServerConfig server_config;
  server_config.socket_path = temp_socket_path();
  svc::Server server(server_config);
  server.start();
  {
    svc::Client client(server.socket_path());
    svc::SessionOptions options;
    options.solver = quick_config(5).solver;
    options.generations = quick_config(5).replan_generations;
    const long long id = client.session_open("ft06", options);
    const Event hostile = Event::parse(
        "kind=arrival time=10 route=0:4611686018427387904,"
        "1:4611686018427387904");
    EXPECT_THROW(client.session_event(id, hostile.to_json()),
                 svc::ServiceError);
    client.ping();
    const exp::Json reply = client.session_event(
        id, Event::parse("kind=breakdown time=12 machine=0 duration=3")
                .to_json());
    EXPECT_EQ(reply.find("index")->as_i64(), 1);
    client.session_close(id);
  }
  server.stop();
}

TEST(SessionService, OpenRejectsBadInstanceAndSolver) {
  svc::ServerConfig server_config;
  server_config.socket_path = temp_socket_path();
  svc::Server server(server_config);
  server.start();
  {
    svc::Client client(server.socket_path());
    EXPECT_THROW(client.session_open("no-such-instance"), svc::ServiceError);
    svc::SessionOptions options;
    options.solver = "engine=bogus";
    EXPECT_THROW(client.session_open("ft06", options), svc::ServiceError);
    // The failed opens left nothing behind.
    const long long id = client.session_open("ft06");
    client.session_close(id);
  }
  server.stop();
}

// --- pinned results ------------------------------------------------------------

/// Absolute pins. Every other determinism check compares two runs of one
/// build, which a change shifting every objective the same way would
/// pass. These constants were recorded against the full re-decode the
/// suffix objective used before the prefix frontier, and must never be
/// re-recorded.
TEST(SessionGolden, TranscriptIsPinned) {
  const sched::JobShopInstance inst = ga::resolve_job_shop_instance("ft10");
  SessionConfig config;
  config.solver = "engine=simple pop=64";
  config.replan_generations = 40;
  config.seed = 2718;
  Session session(inst, config, 1);
  session.open();
  for (const Event& event : random_trace(inst, 16, 314)) {
    session.apply(event);
  }
  EXPECT_EQ(session.transcript_hash(), 1905840638867151475u);
  EXPECT_EQ(session.plan_hash(), 4404167995955772396u);

  // The suffix objective itself, at one split of a seeded plan.
  par::Rng rng(1618);
  const std::vector<int> plan = sched::random_operation_sequence(inst, rng);
  const std::vector<sched::Downtime> windows =
      sched::random_downtimes(inst.machines, 4, 700, 20, 90, 42);
  const sched::ReplanContext context =
      sched::split_at(inst, plan, windows, 350);
  const ga::DynamicSuffixProblem problem(&inst, context.frozen_prefix,
                                         context.remaining, windows);
  const ga::Problem& evaluated = problem;  // the Evaluator's entry points
  const auto workspace = evaluated.make_workspace();
  double sum = 0.0;
  double workspace_sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const ga::Genome genome = problem.random_genome(rng);
    sum += problem.objective(genome);
    workspace_sum += evaluated.objective(genome, *workspace);
  }
  EXPECT_EQ(context.frozen_prefix.size(), 14u);
  EXPECT_EQ(sum, 1785354.0);
  EXPECT_EQ(workspace_sum, 1785354.0);
}

}  // namespace
}  // namespace psga::session
