#include "replay.hpp"

#include <chrono>
#include <optional>

#include "base/check.hpp"
#include "cache/cached_solve.hpp"
#include "cache/canonical.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "validate/validator.hpp"

namespace pawsbench {

namespace {

using Clock = std::chrono::steady_clock;

double usBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double phaseSum(const paws::obs::MetricsRegistry& m, const char* name) {
  return m.histogram(name).sum;
}

struct PhaseSnapshot {
  double pipeline = 0, timing = 0, maxPower = 0, minPower = 0, lp = 0;

  static PhaseSnapshot of(const paws::obs::MetricsRegistry& m) {
    return {phaseSum(m, "phase.pipeline.wall_us"),
            phaseSum(m, "phase.timing.wall_us"),
            phaseSum(m, "phase.max-power.wall_us"),
            phaseSum(m, "phase.min-power.wall_us"),
            phaseSum(m, "phase.longest_path.wall_us")};
  }
};

struct Step {
  std::string outcome;
  std::string digest;
  bool exactHit = false;
  bool nearMiss = false;
  bool budget = false;
  bool aborted = false;
  double solvePathUs = 0;
  double spanUs = 0;
};

/// One request through every layer, as pawsd serves it. `timing` is null
/// for the untraced run, which then only measures the whole span.
Step serveOne(const Request& r, paws::cache::ScheduleCache& cache,
              paws::obs::MetricsRegistry* registry, LayerTimes* timing) {
  const std::string payload = paws::serve::formatRequest(wireRequest(r));
  const PhaseSnapshot before =
      registry != nullptr ? PhaseSnapshot::of(*registry) : PhaseSnapshot{};

  Step step;
  const Clock::time_point t0 = Clock::now();
  paws::serve::Frame frame;
  paws::serve::FrameDecoder decoder;
  decoder.feed(paws::serve::encodeFrame(paws::serve::FrameType::kRequest,
                                        payload));
  PAWS_CHECK(decoder.next(frame));
  const Clock::time_point t1 = Clock::now();
  const paws::serve::ParseRequestResult parsed =
      paws::serve::parseRequest(frame.payload);
  PAWS_CHECK(parsed.ok);
  const Clock::time_point t2 = Clock::now();
  paws::io::ParseResult problem =
      paws::io::parseProblem(parsed.request.problemText);
  PAWS_CHECK(problem.ok());
  const Clock::time_point t3 = Clock::now();

  paws::cache::SolveSpec spec;
  spec.scheduler = parsed.request.scheduler;
  spec.trials = parsed.request.trials;
  spec.jobs = 1;
  spec.budget.timeout = std::chrono::milliseconds(parsed.request.timeoutMs);
  spec.budget = spec.budget.resolved();
  spec.obs.metrics = registry;
  paws::cache::SolveInfo info;
  std::optional<paws::ScheduleResult> result;
  try {
    result = paws::cache::solveThroughCache(&cache, *problem.problem, spec,
                                            &info);
  } catch (const paws::CheckError&) {
    step.aborted = true;
  }
  const Clock::time_point t4 = Clock::now();

  paws::serve::Response response;
  response.outcome = "error";
  bool valid = true;
  if (result.has_value()) {
    response.outcome = outcomeName(result->status, result->schedule.has_value());
    if (result->schedule.has_value()) {
      valid = paws::ScheduleValidator(*problem.problem)
                  .validate(*result->schedule)
                  .valid();
    }
  }
  const Clock::time_point t5 = Clock::now();
  if (result.has_value() && result->schedule.has_value()) {
    const paws::Schedule& s = *result->schedule;
    response.finishTicks = s.finish().ticks();
    response.energyCostMwt =
        s.energyCost(problem.problem->minPower()).milliwattTicks();
    response.scheduleText = paws::io::scheduleToText(s, spec.scheduler);
    response.scheduleDigest =
        paws::serve::scheduleDigest(response.scheduleText);
  }
  const std::string json = paws::serve::toJson(response);
  const Clock::time_point t6 = Clock::now();
  paws::serve::FrameDecoder responseDecoder;
  responseDecoder.feed(
      paws::serve::encodeFrame(paws::serve::FrameType::kResponse, json));
  PAWS_CHECK(responseDecoder.next(frame));
  const Clock::time_point t7 = Clock::now();

  step.outcome = valid ? response.outcome : "check_failed";
  step.digest = response.scheduleDigest;
  step.exactHit = info.cacheHit;
  step.nearMiss = info.revalidated;
  step.budget =
      result.has_value() && result->status == paws::SchedStatus::kBudgetExhausted;
  step.solvePathUs = usBetween(t2, t4);
  step.spanUs = usBetween(t0, t7);

  if (timing != nullptr) {
    LayerTimes& t = *timing;
    t.frame += usBetween(t0, t1) + usBetween(t6, t7);
    t.requestParse += usBetween(t1, t2);
    t.ioParse += usBetween(t2, t3);
    t.validate += usBetween(t4, t5);
    t.responseEncode += usBetween(t5, t6);
    t.total += step.spanUs;
    const double resolver = usBetween(t3, t4);
    const PhaseSnapshot after = PhaseSnapshot::of(*registry);
    const double pipeline = after.pipeline - before.pipeline;
    const double maxPower = after.maxPower - before.maxPower;
    const double minPower = after.minPower - before.minPower;
    t.pipeline += pipeline;
    t.timing += after.timing - before.timing;
    t.maxPower += maxPower;
    t.minPower += minPower;
    t.longestPath += after.lp - before.lp;
    // Outermost spans: the pipeline phase nests trial -> max-power
    // (-> timing) and min-power; near-miss polish and repair run
    // max-power/min-power on their own.
    const double top = pipeline > 0 ? pipeline : maxPower + minPower;
    t.schedTop += top;
    if (info.cacheHit) t.exactServe += resolver;
    // The exhaustive search has no span of its own in the program: for a
    // solved optimal request everything outside the pipeline seeding
    // phase (serial + polish seeding included) is attributed to it.
    if (spec.scheduler == "optimal" && !info.cacheHit) {
      t.exhaustive += resolver - top;
    } else {
      t.resolverSelf += resolver - top;
    }
    // Canonicalization runs inside the resolver without a span; a probe
    // call measures what one key-only + one full canonicalization cost.
    const Clock::time_point c0 = Clock::now();
    (void)paws::cache::canonicalize(*problem.problem,
                                    paws::cache::CanonicalParts::kKeyOnly);
    (void)paws::cache::canonicalize(*problem.problem);
    t.canonicalize += usBetween(c0, Clock::now());
  }
  return step;
}

}  // namespace

const char* outcomeName(paws::SchedStatus status, bool hasSchedule) {
  switch (status) {
    case paws::SchedStatus::kOk:
      return "ok";
    case paws::SchedStatus::kDeadlineExceeded:
      return hasSchedule ? "anytime" : "deadline";
    case paws::SchedStatus::kBudgetExhausted:
      return "budget";
    case paws::SchedStatus::kTimingInfeasible:
    case paws::SchedStatus::kPowerInfeasible:
      return "infeasible";
    case paws::SchedStatus::kInvalidInput:
      return "invalid";
  }
  return "error";
}

namespace {

/// One replay's private cache and results.
struct Side {
  explicit Side(std::size_t capacity) : cache(capacity) {}
  paws::cache::ScheduleCache cache;
  paws::cache::CacheStats warm;
  ReplayResult out;
};

void record(ReplayResult& out, const Request& r, const Step& step) {
  ++out.requests;
  out.exactHits += step.exactHit ? 1 : 0;
  out.nearMisses += step.nearMiss ? 1 : 0;
  out.budgetExhausted += step.budget ? 1 : 0;
  out.checkAborts += step.aborted ? 1 : 0;
  out.answers[r.id] =
      ReplayAnswer{step.outcome, step.digest, step.solvePathUs};
}

/// Cache counters of the replayed stream alone (warm-up excluded).
paws::cache::CacheStats streamStats(const Side& side) {
  const paws::cache::CacheStats end = side.cache.stats();
  paws::cache::CacheStats out = end;
  out.hits = end.hits - side.warm.hits;
  out.misses = end.misses - side.warm.misses;
  out.insertions = end.insertions - side.warm.insertions;
  out.evictions = end.evictions - side.warm.evictions;
  out.revalidations = end.revalidations - side.warm.revalidations;
  out.warmStarts = end.warmStarts - side.warm.warmStarts;
  return out;
}

}  // namespace

ReplayPair replay(const std::vector<Request>& warmup,
                  const std::vector<Request>& stream,
                  std::size_t cacheCapacity) {
  Side traced(cacheCapacity);
  Side plain(cacheCapacity);
  for (Side* side : {&traced, &plain}) {
    for (const Request& r : warmup) serveOne(r, side->cache, nullptr, nullptr);
    side->warm = side->cache.stats();
  }
  // Lockstep, alternating which side serves a request first: the host's
  // speed drifts over seconds, and both sides must see the same drift for
  // their difference to measure the tracing alone.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      if ((i + k) % 2 == 0) {
        record(traced.out, stream[i],
               serveOne(stream[i], traced.cache, &traced.out.registry,
                        &traced.out.t));
      } else {
        const Step step = serveOne(stream[i], plain.cache, nullptr, nullptr);
        plain.out.t.total += step.spanUs;
        record(plain.out, stream[i], step);
      }
    }
  }
  traced.out.cache = streamStats(traced);
  plain.out.cache = streamStats(plain);
  return {std::move(traced.out), std::move(plain.out)};
}

}  // namespace pawsbench
