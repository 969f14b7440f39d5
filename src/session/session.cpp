#include "src/session/session.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace psga::session {

namespace {

/// Per-event solver seed: independent of the event's content, so a
/// different event at the same index draws a different search only
/// through the problem, never through correlated randomness.
std::uint64_t event_seed(std::uint64_t session_seed, int index) {
  std::uint64_t sm =
      session_seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(index + 1));
  return par::splitmix64(sm);
}

[[noreturn]] void event_error(const std::string& message) {
  throw std::invalid_argument("session::Event: " + message);
}

/// The decode-overflow rule. A semi-active start is a release date, the
/// end of an earlier operation or a window end, so no start or end of any
/// decode exceeds the latest release date, window end or session clock
/// plus the total processing time. A state whose bound fits in Time can
/// therefore never overflow a decode (nor the window pass's padding test).
struct TimeBound {
  sched::Time latest = 0;  ///< latest release date, window end or clock
  sched::Time work = 0;    ///< total processing time
  bool overflow = false;

  void include(sched::Time instant) { latest = std::max(latest, instant); }
  void add_work(sched::Time duration) {
    overflow |= duration < 0 || __builtin_add_overflow(work, duration, &work);
  }
  bool fits() const {
    sched::Time sum = 0;
    return !overflow && !__builtin_add_overflow(latest, work, &sum);
  }
};

TimeBound time_bound(const sched::JobShopInstance& inst,
                     const std::vector<sched::Downtime>& downtimes,
                     sched::Time clock) {
  TimeBound bound;
  bound.include(clock);
  for (int job = 0; job < inst.jobs; ++job) {
    bound.include(inst.attrs.release_of(job));
  }
  for (const sched::Downtime& w : downtimes) bound.include(w.end);
  for (const auto& route : inst.ops) {
    for (const sched::JsOperation& op : route) bound.add_work(op.duration);
  }
  return bound;
}

void require_fits(const TimeBound& bound, const std::string& what) {
  if (!bound.fits()) {
    throw std::invalid_argument(
        what + ": times out of range (the latest release date, window end "
               "or event time plus the total processing time must fit in "
               "a 64-bit Time, with no negative duration)");
  }
}

long long parse_ll(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const long long parsed = std::stoll(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    event_error("token '" + key + "=" + value + "' is not an integer");
  }
}

int parse_int(const std::string& key, const std::string& value) {
  const long long parsed = parse_ll(key, value);
  if (parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    event_error("token '" + key + "=" + value + "' is out of int range");
  }
  return static_cast<int>(parsed);
}

std::vector<sched::JsOperation> parse_route(const std::string& text) {
  std::vector<sched::JsOperation> route;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string part = text.substr(start, comma - start);
    const std::size_t colon = part.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= part.size()) {
      event_error("route entry '" + part + "' must be machine:duration");
    }
    sched::JsOperation op;
    op.machine = parse_int("route", part.substr(0, colon));
    op.duration = parse_ll("route", part.substr(colon + 1));
    route.push_back(op);
    start = comma + 1;
  }
  if (route.empty()) event_error("route must list at least one operation");
  return route;
}

std::string route_to_string(const std::vector<sched::JsOperation>& route) {
  std::ostringstream out;
  for (std::size_t i = 0; i < route.size(); ++i) {
    if (i > 0) out << ',';
    out << route[i].machine << ':' << route[i].duration;
  }
  return out.str();
}

/// Keep-feasible-prefix repair: project one previous-population genome
/// into the new remaining multiset — keep genes still owed (in their old
/// relative order), then append the new multiset's leftovers in ascending
/// job order (new arrivals land at the tail, a legal default position).
ga::Genome repair_genome(const ga::Genome& old, std::vector<int> want) {
  const int jobs = static_cast<int>(want.size());
  ga::Genome repaired;
  repaired.seq.reserve(old.seq.size());
  for (int gene : old.seq) {
    if (gene >= 0 && gene < jobs && want[static_cast<std::size_t>(gene)] > 0) {
      repaired.seq.push_back(gene);
      --want[static_cast<std::size_t>(gene)];
    }
  }
  for (int job = 0; job < jobs; ++job) {
    for (int c = 0; c < want[static_cast<std::size_t>(job)]; ++c) {
      repaired.seq.push_back(job);
    }
  }
  return repaired;
}

}  // namespace

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kArrival: return "arrival";
    case EventKind::kBreakdown: return "breakdown";
    case EventKind::kDueDate: return "due";
  }
  return "breakdown";
}

EventKind event_kind_from_string(const std::string& text) {
  if (text == "arrival") return EventKind::kArrival;
  if (text == "breakdown") return EventKind::kBreakdown;
  if (text == "due" || text == "due-date") return EventKind::kDueDate;
  event_error("unknown kind '" + text + "' (expected arrival|breakdown|due)");
}

Event Event::parse(const std::string& text) {
  Event event;
  bool saw_kind = false;
  std::istringstream stream(text);
  std::string token;
  while (stream >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      event_error("token '" + token + "' must be key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "kind") {
      event.kind = event_kind_from_string(value);
      saw_kind = true;
    } else if (key == "time") {
      event.time = parse_ll(key, value);
    } else if (key == "route") {
      event.route = parse_route(value);
    } else if (key == "due") {
      event.due = parse_ll(key, value);
    } else if (key == "machine") {
      event.machine = parse_int(key, value);
    } else if (key == "duration") {
      event.duration = parse_ll(key, value);
    } else if (key == "job") {
      event.job = parse_int(key, value);
    } else {
      event_error("unknown key '" + key + "'");
    }
  }
  if (!saw_kind) event_error("missing kind= token");
  return event;
}

std::string Event::to_string() const {
  std::ostringstream out;
  out << "kind=" << session::to_string(kind) << " time=" << time;
  switch (kind) {
    case EventKind::kArrival:
      out << " route=" << route_to_string(route);
      if (due != sched::JobAttributes::kNoDueDate) out << " due=" << due;
      break;
    case EventKind::kBreakdown:
      out << " machine=" << machine << " duration=" << duration;
      break;
    case EventKind::kDueDate:
      out << " job=" << job << " due=" << due;
      break;
  }
  return out.str();
}

exp::Json Event::to_json() const {
  exp::Json json = exp::Json::object();
  json.set("kind", exp::Json::string(session::to_string(kind)));
  json.set("time", exp::Json::integer(time));
  switch (kind) {
    case EventKind::kArrival: {
      exp::Json ops = exp::Json::array();
      for (const sched::JsOperation& op : route) {
        ops.push(exp::Json::array()
                     .push(exp::Json::integer(op.machine))
                     .push(exp::Json::integer(op.duration)));
      }
      json.set("route", std::move(ops));
      if (due != sched::JobAttributes::kNoDueDate) {
        json.set("due", exp::Json::integer(due));
      }
      break;
    }
    case EventKind::kBreakdown:
      json.set("machine", exp::Json::integer(machine));
      json.set("duration", exp::Json::integer(duration));
      break;
    case EventKind::kDueDate:
      json.set("job", exp::Json::integer(job));
      json.set("due", exp::Json::integer(due));
      break;
  }
  return json;
}

Event Event::from_json(const exp::Json& json) {
  Event event;
  const exp::Json* kind = json.find("kind");
  if (kind == nullptr) event_error("missing 'kind' member");
  event.kind = event_kind_from_string(kind->as_string());
  if (const exp::Json* time = json.find("time")) event.time = time->as_i64();
  if (const exp::Json* route = json.find("route")) {
    for (const exp::Json& entry : route->items()) {
      if (entry.items().size() != 2) {
        event_error("route entries must be [machine, duration] pairs");
      }
      sched::JsOperation op;
      op.machine = entry.items()[0].as_int();
      op.duration = entry.items()[1].as_i64();
      event.route.push_back(op);
    }
  }
  if (const exp::Json* due = json.find("due")) event.due = due->as_i64();
  if (const exp::Json* machine = json.find("machine")) {
    event.machine = machine->as_int();
  }
  if (const exp::Json* duration = json.find("duration")) {
    event.duration = duration->as_i64();
  }
  if (const exp::Json* job = json.find("job")) {
    event.job = job->as_int();
  }
  return event;
}

exp::Json EventReply::to_json(bool include_timing) const {
  exp::Json json = exp::Json::object();
  json.set("index", exp::Json::integer(index));
  json.set("kind", exp::Json::string(kind));
  json.set("time", exp::Json::integer(time));
  json.set("frozen", exp::Json::uinteger(frozen));
  json.set("remaining", exp::Json::uinteger(remaining));
  json.set("carried", exp::Json::uinteger(carried));
  json.set("baseline", exp::Json::number(baseline));
  json.set("best", exp::Json::number(best));
  json.set("adopted", exp::Json::boolean(adopted));
  json.set("generations", exp::Json::integer(generations));
  json.set("evaluations", exp::Json::integer(evaluations));
  json.set("plan_hash", exp::Json::uinteger(plan_hash));
  if (include_timing) {
    json.set("seconds", exp::Json::number(seconds));
    json.set("slo_met", exp::Json::boolean(slo_met));
  }
  return json;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Session::Session(sched::JobShopInstance inst, SessionConfig config,
                 long long id)
    : id_(id),
      config_(std::move(config)),
      solver_spec_(ga::SolverSpec::parse(config_.solver)),
      inst_(std::move(inst)) {
  require_fits(time_bound(inst_, downtimes_, now_), "session::Session");
  // The canonical fresh plan: job 0's ops, then job 1's, ... — legal for
  // any job shop, and the deterministic starting point open() improves.
  remaining_.reserve(static_cast<std::size_t>(inst_.total_ops()));
  for (int job = 0; job < inst_.jobs; ++job) {
    for (int op = 0; op < inst_.ops_of(job); ++op) remaining_.push_back(job);
  }
  best_ = static_cast<double>(
      sched::realized_makespan_with_prefix(inst_, frozen_, remaining_,
                                           downtimes_));
  if (config_.metrics != nullptr) {
    replans_ = &config_.metrics->counter("session.replans");
    slo_miss_ = &config_.metrics->counter("session.slo_miss");
    event_latency_ns_ =
        &config_.metrics->histogram("session.event_latency_ns");
    decode_ns_ = &config_.metrics->histogram("session.decode_ns");
  }
}

ga::StopCondition Session::default_stop() const {
  ga::StopCondition stop;
  stop.max_generations = config_.replan_generations;
  stop.max_evaluations = config_.replan_evaluations;
  stop.max_seconds = config_.slo_seconds;  // wall-clock safety cap
  return stop;
}

void Session::wait_for_turn(std::unique_lock<std::mutex>& lock) {
  replan_done_.wait(lock, [this] { return !replanning_; });
  if (closed_) {
    throw std::invalid_argument("session " + std::to_string(id_) +
                                " is closed");
  }
}

EventReply Session::open() {
  std::unique_lock<std::mutex> lock(mutex_);
  wait_for_turn(lock);
  return replan_locked("open", 0, default_stop(), lock);
}

void Session::close() {
  std::unique_lock<std::mutex> lock(mutex_);
  replan_done_.wait(lock, [this] { return !replanning_; });
  closed_ = true;
}

EventReply Session::apply(const Event& event) {
  return apply(event, default_stop());
}

EventReply Session::apply(const Event& event, const ga::StopCondition& stop) {
  std::unique_lock<std::mutex> lock(mutex_);
  wait_for_turn(lock);
  if (transcript_.empty()) {
    throw std::logic_error("session::Session: apply() before open()");
  }
  if (event.time < now_) {
    throw std::invalid_argument(
        "session::Session: event time " + std::to_string(event.time) +
        " precedes session clock " + std::to_string(now_));
  }

  // 1. Validate the event, check the overflow rule on the state it would
  // produce, then mutate the instance/downtime state.
  TimeBound bound = time_bound(inst_, downtimes_, event.time);
  int arrival_job = -1;
  switch (event.kind) {
    case EventKind::kBreakdown: {
      if (event.machine < 0 || event.machine >= inst_.machines) {
        event_error("breakdown machine out of range");
      }
      if (event.duration <= 0) event_error("breakdown duration must be > 0");
      sched::Time end = 0;
      bound.overflow |= __builtin_add_overflow(event.time, event.duration, &end);
      bound.include(end);
      require_fits(bound, "session::Event");
      downtimes_.push_back(sched::Downtime{event.machine, event.time, end});
      break;
    }
    case EventKind::kArrival: {
      if (event.route.empty()) event_error("arrival requires a route");
      for (const sched::JsOperation& op : event.route) {
        if (op.machine < 0 || op.machine >= inst_.machines) {
          event_error("arrival route machine out of range");
        }
        if (op.duration <= 0) event_error("arrival durations must be > 0");
        bound.add_work(op.duration);
      }
      require_fits(bound, "session::Event");
      arrival_job = inst_.jobs;
      inst_.ops.push_back(event.route);
      inst_.jobs += 1;
      inst_.attrs.release.resize(static_cast<std::size_t>(inst_.jobs), 0);
      inst_.attrs.release.back() = event.time;
      if (event.due != sched::JobAttributes::kNoDueDate) {
        inst_.attrs.due.resize(static_cast<std::size_t>(inst_.jobs),
                               sched::JobAttributes::kNoDueDate);
        inst_.attrs.due.back() = event.due;
      }
      break;
    }
    case EventKind::kDueDate: {
      if (event.job < 0 || event.job >= inst_.jobs) {
        event_error("due-date job out of range");
      }
      require_fits(bound, "session::Event");  // the clock moves
      inst_.attrs.due.resize(static_cast<std::size_t>(inst_.jobs),
                             sched::JobAttributes::kNoDueDate);
      inst_.attrs.due[static_cast<std::size_t>(event.job)] = event.due;
      break;
    }
  }
  now_ = event.time;

  // 2. Rebase: freeze what already started (the simulate_dynamic rule),
  // keep the rest re-optimizable; a new arrival's genes join the tail.
  std::vector<int> full;
  full.reserve(frozen_.size() + remaining_.size());
  full.insert(full.end(), frozen_.begin(), frozen_.end());
  full.insert(full.end(), remaining_.begin(), remaining_.end());
  sched::ReplanContext context =
      sched::split_at(inst_, full, downtimes_, now_);
  frozen_ = std::move(context.frozen_prefix);
  remaining_ = std::move(context.remaining);
  if (arrival_job >= 0) {
    for (int op = 0; op < inst_.ops_of(arrival_job); ++op) {
      remaining_.push_back(arrival_job);
    }
  }

  // 3. Re-solve the suffix.
  return replan_locked(session::to_string(event.kind), event.time, stop, lock);
}

EventReply Session::replan_locked(const std::string& kind, sched::Time time,
                                  const ga::StopCondition& stop,
                                  std::unique_lock<std::mutex>& lock) {
  const auto t0 = std::chrono::steady_clock::now();
  const int index = static_cast<int>(transcript_.size());

  EventReply reply;
  reply.session = id_;
  reply.index = index;
  reply.kind = kind;
  reply.time = time;
  reply.frozen = frozen_.size();
  reply.remaining = remaining_.size();

  // Anytime answer, pre-solve: the current plan right-shifted into the
  // new state is legal, and its objective bounds whatever we adopt.
  const double baseline = static_cast<double>(
      sched::realized_makespan_with_prefix(inst_, frozen_, remaining_,
                                           downtimes_));
  reply.baseline = baseline;
  best_ = baseline;

  if (remaining_.empty()) {
    // Everything is already dispatched — nothing to re-optimize.
    reply.best = baseline;
    finish_reply(reply, t0);
    return reply;
  }

  // Snapshot the state the solve runs against, then release the lock so
  // readers stay live while the engine works. Replans stay serialized:
  // replanning_ makes every other open(), apply() or close() wait until
  // this one commits.
  auto snapshot = std::make_shared<const sched::JobShopInstance>(inst_);
  std::vector<int> frozen = frozen_;
  std::vector<int> remaining = remaining_;
  std::vector<sched::Downtime> downtimes = downtimes_;
  std::vector<ga::Genome> previous = last_population_;

  ga::SolverSpec spec = solver_spec_;
  spec.seed = event_seed(config_.seed, index);

  replanning_ = true;
  lock.unlock();

  ga::RunResult run;
  ga::PopulationSection population;
  std::size_t carried = 0;
  try {
    auto problem = std::make_shared<ga::DynamicSuffixProblem>(
        snapshot, std::move(frozen), remaining, std::move(downtimes));
    ga::Solver solver = ga::Solver::build(spec, problem, &pool_);

    if (config_.warm.enabled && !previous.empty()) {
      std::vector<int> want(static_cast<std::size_t>(snapshot->jobs), 0);
      for (int job : remaining) ++want[static_cast<std::size_t>(job)];
      std::size_t cap = static_cast<std::size_t>(
          (1.0 - config_.warm.immigrant_fraction) *
          static_cast<double>(previous.size()));
      if (config_.warm.max_carried > 0) {
        cap = std::min(cap,
                       static_cast<std::size_t>(config_.warm.max_carried));
      }
      std::vector<ga::Genome> seeds;
      seeds.reserve(std::min(cap, previous.size()));
      for (const ga::Genome& genome : previous) {
        if (seeds.size() >= cap) break;
        seeds.push_back(repair_genome(genome, want));
      }
      carried = seeds.size();
      if (!solver.engine().seed_population(std::move(seeds))) {
        carried = 0;  // engine cold-starts (quantum/cluster)
      }
    }

    run = solver.run(stop);
    population = solver.engine().population_snapshot();
  } catch (...) {
    lock.lock();
    replanning_ = false;
    replan_done_.notify_all();
    throw;
  }

  lock.lock();
  replanning_ = false;
  if (decode_ns_ != nullptr) {
    // The replan's own decode time, so stats can split an event's latency.
    const obs::HistogramSnapshot* decode =
        run.metrics ? run.metrics->histogram("eval.decode_ns") : nullptr;
    decode_ns_->record(decode != nullptr ? decode->sum : 0);
  }
  last_population_ = std::move(population.genomes);
  reply.carried = carried;
  reply.generations = run.generations;
  reply.evaluations = run.evaluations;
  if (run.best_objective <= baseline &&
      run.best.seq.size() == remaining_.size()) {
    remaining_ = run.best.seq;
    best_ = run.best_objective;
    reply.adopted = true;
  }
  reply.best = best_;
  finish_reply(reply, t0);
  replan_done_.notify_all();
  return reply;
}

void Session::finish_reply(
    EventReply& reply,
    const std::chrono::steady_clock::time_point& start) {
  ga::Genome plan_genome;
  plan_genome.seq.reserve(frozen_.size() + remaining_.size());
  plan_genome.seq.insert(plan_genome.seq.end(), frozen_.begin(),
                         frozen_.end());
  plan_genome.seq.insert(plan_genome.seq.end(), remaining_.begin(),
                         remaining_.end());
  reply.plan_hash = ga::genome_hash(plan_genome);

  const auto elapsed = std::chrono::steady_clock::now() - start;
  reply.seconds =
      std::chrono::duration<double>(elapsed).count();
  reply.slo_met =
      config_.slo_seconds <= 0.0 || reply.seconds <= config_.slo_seconds;

  if (replans_ != nullptr && reply.index > 0) replans_->add();
  if (event_latency_ns_ != nullptr) {
    event_latency_ns_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
  if (slo_miss_ != nullptr && !reply.slo_met) slo_miss_->add();

  transcript_.push_back(reply);
}

double Session::best_objective() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return best_;
}

std::vector<int> Session::plan() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> full;
  full.reserve(frozen_.size() + remaining_.size());
  full.insert(full.end(), frozen_.begin(), frozen_.end());
  full.insert(full.end(), remaining_.begin(), remaining_.end());
  return full;
}

sched::Time Session::now() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return now_;
}

int Session::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(transcript_.size());
}

std::uint64_t Session::plan_hash() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transcript_.empty() ? 0 : transcript_.back().plan_hash;
}

std::vector<EventReply> Session::transcript() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transcript_;
}

std::string Session::transcript_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string text;
  for (const EventReply& reply : transcript_) {
    text += reply.to_json(/*include_timing=*/false).dump();
    text += '\n';
  }
  return text;
}

std::uint64_t Session::transcript_hash() const {
  return fnv1a(transcript_text());
}

std::vector<Event> random_trace(const sched::JobShopInstance& inst, int count,
                                std::uint64_t seed) {
  par::Rng rng(seed);
  // Rough horizon: average machine load; events land inside it so they
  // actually interact with the schedule.
  sched::Time work = 0;
  sched::Time dur_lo = 0;
  sched::Time dur_hi = 0;
  for (const auto& route : inst.ops) {
    for (const sched::JsOperation& op : route) {
      work += op.duration;
      if (dur_lo == 0 || op.duration < dur_lo) dur_lo = op.duration;
      if (op.duration > dur_hi) dur_hi = op.duration;
    }
  }
  if (dur_lo <= 0) dur_lo = 1;
  if (dur_hi < dur_lo) dur_hi = dur_lo;
  const sched::Time horizon =
      std::max<sched::Time>(1, work / std::max(1, inst.machines));
  const int step = std::max(1, static_cast<int>(horizon) / (count + 1));

  std::vector<Event> trace;
  trace.reserve(static_cast<std::size_t>(count));
  sched::Time clock = 0;
  for (int i = 0; i < count; ++i) {
    clock += rng.range(1, step);
    Event event;
    event.time = clock;
    switch (rng.below(3)) {
      case 0: {
        event.kind = EventKind::kArrival;
        const int length = rng.range(2, std::max(2, inst.machines));
        for (int op = 0; op < length; ++op) {
          sched::JsOperation js;
          js.machine = static_cast<int>(
              rng.below(static_cast<std::uint64_t>(inst.machines)));
          js.duration = rng.range(static_cast<int>(dur_lo),
                                  static_cast<int>(dur_hi));
          event.route.push_back(js);
        }
        break;
      }
      case 1: {
        event.kind = EventKind::kBreakdown;
        event.machine = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(inst.machines)));
        event.duration =
            rng.range(std::max(1, static_cast<int>(horizon) / 20),
                      std::max(2, static_cast<int>(horizon) / 8));
        break;
      }
      default: {
        event.kind = EventKind::kDueDate;
        event.job =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(inst.jobs)));
        event.due = clock + rng.range(static_cast<int>(horizon) / 4 + 1,
                                      static_cast<int>(horizon) + 1);
        break;
      }
    }
    trace.push_back(std::move(event));
  }
  return trace;
}

}  // namespace psga::session
