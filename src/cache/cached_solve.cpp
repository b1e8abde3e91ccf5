#include "cache/cached_solve.hpp"

#include <optional>
#include <utility>

#include "cache/canonical.hpp"
#include "exec/jobs.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/polish.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/serial_scheduler.hpp"
#include "validate/validator.hpp"

namespace paws::cache {

namespace {

/// The exhaustive scheduler's default horizon (serial span plus largest
/// declared separation), recomputed here so the warm-start seed check —
/// "does the heuristic schedule fit the search horizon?" — matches the
/// search it seeds.
Time defaultHorizon(const Problem& problem) {
  Duration total = Duration::zero();
  for (TaskId v : problem.taskIds()) total += problem.task(v).delay;
  Duration maxSep = Duration::zero();
  for (const TimingConstraint& c : problem.constraints()) {
    maxSep = std::max(maxSep, c.separation);
  }
  return Time::zero() + total + maxSep;
}

/// Strict lexicographic (energy cost above Pmin, finish) comparison —
/// the objective order the exhaustive search optimizes.
bool lexBetter(const Schedule& a, const Schedule& b) {
  const Problem& p = a.problem();
  const Energy ca = a.energyCost(p.minPower());
  const Energy cb = b.energyCost(p.minPower());
  return ca < cb || (ca == cb && a.finish() < b.finish());
}

/// Binds a cached entry's starts onto `problem`, whose canonical form is
/// `canonical`: index i is the task canonical.taskOrder[i], then re-checks
/// the schedule with the independent validator. An entry found by exact or
/// structural hash has the same task order, so a length mismatch (only a
/// corrupt entry produces one), the astronomically unlikely 64-bit hash
/// collision and a near miss whose new limits broke the plan all read as
/// "nothing usable", never as a wrong answer.
std::optional<Schedule> rebind(const CacheEntry& entry,
                               const Problem& problem,
                               const CanonicalForm& canonical) {
  if (entry.starts.size() != canonical.taskOrder.size()) return std::nullopt;
  std::vector<Time> starts(problem.numVertices(), Time::zero());
  for (std::size_t i = 0; i < entry.starts.size(); ++i) {
    starts[canonical.taskOrder[i].index()] = Time(entry.starts[i]);
  }
  Schedule schedule(&problem, std::move(starts));
  if (!ScheduleValidator(problem).validate(schedule).valid()) {
    return std::nullopt;
  }
  return schedule;
}

void insertClean(ScheduleCache& cache, const CacheKey& key,
                 const CanonicalForm& canonical, const ScheduleResult& r,
                 std::uint64_t nodesExplored, bool provenOptimal) {
  CacheEntry entry;
  entry.starts.reserve(canonical.taskOrder.size());
  for (TaskId v : canonical.taskOrder) {
    entry.starts.push_back(r.schedule->start(v).ticks());
  }
  entry.provenOptimal = provenOptimal;
  entry.structuralHash = canonical.structuralHash;
  entry.stats = r.stats;
  entry.nodesExplored = nodesExplored;
  cache.insert(key, std::move(entry));
}

/// Warm-start pair handed to the exhaustive search: the heuristic
/// schedule's cost and finish (both needed — the finish arms the local
/// cost-tie cut, see ExhaustiveOptions::initialIncumbentFinish).
struct WarmSeed {
  Energy cost;
  Time finish;
};

ScheduleResult runCold(const Problem& problem, const SolveSpec& spec,
                       std::optional<WarmSeed> seed, SolveInfo& info) {
  if (spec.scheduler == "serial") return SerialScheduler(problem).schedule();
  if (spec.scheduler == "list") return ListScheduler(problem).schedule();
  if (spec.scheduler == "optimal") {
    ExhaustiveOptions options;
    options.jobs = spec.jobs == 0 ? exec::resolveJobs(0) : spec.jobs;
    options.obs = spec.obs;
    options.budget = spec.budget;
    if (seed.has_value()) {
      options.initialIncumbent = seed->cost;
      options.initialIncumbentFinish = seed->finish;
    }
    ExhaustiveScheduler optimal(problem, options);
    ScheduleResult r = optimal.schedule();
    info.stopReason = optimal.outcome().stopReason;
    info.provenOptimal = optimal.outcome().provenOptimal;
    info.nodesExplored = optimal.outcome().nodesExplored;
    return r;
  }
  PowerAwareOptions options;
  options.trials = spec.trials;
  options.obs = spec.obs;
  options.budget = spec.budget;
  return PowerAwareScheduler(problem, options).schedule();
}

}  // namespace

ScheduleResult solveThroughCache(ScheduleCache* cache, const Problem& problem,
                                 const SolveSpec& spec, SolveInfo* infoOut) {
  SolveInfo info;
  if (cache == nullptr) {
    // No cache: the historical dispatch, bit-for-bit.
    ScheduleResult r = runCold(problem, spec, std::nullopt, info);
    if (infoOut != nullptr) *infoOut = info;
    return r;
  }

  // Key-only canonicalization: the exact-hit probe needs just the hash.
  // The structural skeleton (near-miss lookup, insertion) is recomputed
  // below, only once rung 1 has missed.
  CanonicalForm canonical = canonicalize(problem, CanonicalParts::kKeyOnly);
  const CacheKey key{canonical.hash,
                     optionsFingerprint(spec.scheduler, spec.trials)};

  // Rung 1: exact hit.
  if (std::optional<ScheduleResult> served =
          tryServeExact(*cache, problem, canonical, spec, &info)) {
    if (infoOut != nullptr) *infoOut = info;
    return std::move(*served);
  }

  // Past the exact probe: the structural hash is needed from here on
  // (near-miss lookup now, insertion after the solve).
  canonical = canonicalize(problem, CanonicalParts::kFull);

  // Rung 2: near-miss revalidation — pipeline only. Serving a structurally
  // matching but numerically different entry is a heuristic answer, which
  // is exactly the pipeline's contract and exactly wrong for `optimal`.
  if (spec.scheduler == "pipeline") {
    if (std::optional<CacheEntry> candidate =
            cache->lookupStructural(canonical.structuralHash, key.optionsFp)) {
      // Only a plan that still validates under the new limits is reused:
      // keep it and polish the soft objective under the (possibly changed)
      // Pmin. A plan the delta broke is a miss and falls through to the
      // cold solve.
      if (std::optional<Schedule> cached =
              rebind(*candidate, problem, canonical)) {
        MinPowerOptions options;
        options.obs = spec.obs;
        options.budget = spec.budget;
        ScheduleResult served =
            MinPowerScheduler(problem, options).improve(*cached);
        if (served.ok() &&
            ScheduleValidator(problem).validate(*served.schedule).valid()) {
          cache->noteRevalidation();
          info.revalidated = true;
          served.message = "revalidated from schedule cache (near miss)";
          insertClean(*cache, key, canonical, served, /*nodesExplored=*/0,
                      /*provenOptimal=*/false);
          if (infoOut != nullptr) *infoOut = info;
          return served;
        }
      }
    }
  }

  // Rung 3: warm-start seed for the exhaustive search — a cached pipeline
  // schedule for this exact problem, or the cheap pipeline heuristic run
  // fresh. Its cost is an upper bound on the optimum whenever the schedule
  // is valid and fits the search horizon, so seeding keeps the result
  // byte-identical while pruning from node 0.
  std::optional<WarmSeed> seed;
  if (spec.scheduler == "optimal") {
    const Time horizon = defaultHorizon(problem);
    const CacheKey pipelineKey{canonical.hash,
                               optionsFingerprint("pipeline", spec.trials)};
    std::optional<Schedule> heuristic;
    ScheduleResult pipelineResult;
    if (std::optional<CacheEntry> entry = cache->peek(pipelineKey)) {
      heuristic = rebind(*entry, problem, canonical);
    }
    if (!heuristic.has_value()) {
      // The seeding run is an internal detail of this request: it may
      // publish effort metrics, but its improvement curve must not pollute
      // the search's incumbent trajectory.
      SolveSpec seedSpec;
      seedSpec.scheduler = "pipeline";
      seedSpec.trials = spec.trials;
      seedSpec.obs = spec.obs;
      seedSpec.obs.incumbents = nullptr;
      seedSpec.budget = spec.budget;
      SolveInfo ignored;
      pipelineResult = runCold(problem, seedSpec, std::nullopt, ignored);
      if (pipelineResult.ok() &&
          ScheduleValidator(problem)
              .validate(*pipelineResult.schedule)
              .valid()) {
        heuristic = *pipelineResult.schedule;
        insertClean(*cache, pipelineKey, canonical, pipelineResult,
                    /*nodesExplored=*/0, /*provenOptimal=*/false);
      }
    }
    // The pipeline compacts, but the lex optimum often spreads tasks out
    // (overlap below Pmin is free) — the serial schedule is frequently
    // at or near the optimal cost when it fits the horizon. Take the
    // lex-best valid in-horizon candidate, then polish it: the tighter
    // the seed, the more of the search's improvement ladder is pruned.
    if (ScheduleResult serial = SerialScheduler(problem).schedule();
        serial.ok() && serial.schedule->finish() <= horizon &&
        ScheduleValidator(problem).validate(*serial.schedule).valid()) {
      if (!heuristic.has_value() || lexBetter(*serial.schedule, *heuristic)) {
        heuristic = *serial.schedule;
      }
    }
    if (heuristic.has_value() && heuristic->finish() <= horizon) {
      PolishOptions polishOptions;
      polishOptions.horizon = horizon;
      Schedule polished = polishSchedule(problem, *heuristic, polishOptions);
      if (polished.finish() <= horizon &&
          ScheduleValidator(problem).validate(polished).valid() &&
          !lexBetter(*heuristic, polished)) {
        heuristic = std::move(polished);
      }
      seed = WarmSeed{heuristic->energyCost(problem.minPower()),
                      heuristic->finish()};
      info.warmStarted = true;
      cache->noteWarmStart();
    }
  }

  ScheduleResult r = runCold(problem, spec, seed, info);

  // Insert only clean, fully-solved results: no budget/deadline trips
  // (those are anytime answers a fresh run would beat) and, for the
  // optimality oracle, only proven-optimal verdicts.
  const bool clean = r.ok() && info.stopReason == guard::StopReason::kNone &&
                     (spec.scheduler != "optimal" || info.provenOptimal);
  if (clean) {
    insertClean(*cache, key, canonical, r, info.nodesExplored,
                info.provenOptimal);
  }
  if (infoOut != nullptr) *infoOut = info;
  return r;
}

std::optional<ScheduleResult> tryServeExact(ScheduleCache& cache,
                                            const Problem& problem,
                                            const CanonicalForm& canonical,
                                            const SolveSpec& spec,
                                            SolveInfo* infoOut) {
  const CacheKey key{canonical.hash,
                     optionsFingerprint(spec.scheduler, spec.trials)};
  if (std::optional<CacheEntry> entry = cache.lookup(key)) {
    if (std::optional<Schedule> schedule =
            rebind(*entry, problem, canonical)) {
      if (infoOut != nullptr) {
        infoOut->cacheHit = true;
        infoOut->provenOptimal = entry->provenOptimal;
      }
      ScheduleResult r;
      r.status = SchedStatus::kOk;
      r.schedule = std::move(schedule);
      r.stats = entry->stats;
      r.message = "served from schedule cache";
      return r;
    }
  }
  return std::nullopt;
}

}  // namespace paws::cache
