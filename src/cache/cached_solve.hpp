// solveThroughCache — the cache-aware solve entry point.
//
// One function wraps the pawsc scheduler dispatch (pipeline / serial /
// list / optimal) with the full reuse ladder, cheapest rung first:
//
//   1. exact hit  — canonical key present: bind the cached start ticks in
//      canonical task order (index i is the i-th task by name),
//      re-validate it against the querying problem (a 64-bit hash
//      collision must cost a miss, never a wrong answer) and serve.
//      Byte-identical to the solve that produced the entry, microseconds.
//   2. near-miss  — pipeline only: an entry with the same structural
//      skeleton but different limits / task costs. Equal structural text
//      means equal task order, so the cached starts bind by the same
//      canonical index; validate them under the NEW problem. A plan that
//      is still valid is polished by MinPowerScheduler::improve (gap
//      filling under the new Pmin), validator-checked again and served,
//      counted as cache.revalidations. A plan the delta made invalid
//      (e.g. a tightened Pmax) is a miss: the request falls through to
//      the cold solve. Results are heuristic-grade like the pipeline
//      itself, but orders of magnitude cheaper than a cold solve on
//      near-duplicate traffic.
//   3. warm start — optimal only: a cold exhaustive solve is seeded with
//      `ExhaustiveOptions::{initialIncumbent, initialIncumbentFinish}`
//      from the lex-best of the pipeline heuristic (or a cached pipeline
//      entry) and the serial schedule, sharpened by polishSchedule, so
//      branch-and-bound prunes against a real (cost, finish) incumbent
//      from node 0. Byte-identical result, strictly fewer nodes. Counted
//      as cache.warm_starts.
//   4. cold solve — no cache, or nothing reusable.
//
// Clean, fully-solved results (status kOk, no budget/deadline trip, and
// for `optimal` a proven-optimal verdict) are inserted back. With
// `cache == nullptr` the function degrades to the plain dispatch and is
// behavior-identical to the historical pawsc runScheduler path.
#pragma once

#include <cstdint>
#include <string>

#include "cache/canonical.hpp"
#include "cache/schedule_cache.hpp"
#include "guard/budget.hpp"
#include "model/problem.hpp"
#include "obs/context.hpp"
#include "sched/result.hpp"

namespace paws::cache {

struct SolveSpec {
  /// pawsc dispatch name: pipeline | serial | list | optimal.
  std::string scheduler = "pipeline";
  /// Pipeline restarts (PowerAwareOptions::trials).
  std::uint32_t trials = 4;
  /// Worker threads for the exhaustive search (already resolved; 0 is
  /// passed through to exec::resolveJobs).
  std::size_t jobs = 1;
  obs::ObsContext obs;
  guard::RunBudget budget;
};

/// How the result was produced — pawsc reporting reads this.
struct SolveInfo {
  bool cacheHit = false;      ///< served from an exact cache entry
  bool revalidated = false;   ///< served through the near-miss path
  bool warmStarted = false;   ///< cold solve ran with a seeded incumbent
  /// Exhaustive verdict (true for serves of proven-optimal entries).
  bool provenOptimal = false;
  /// Stop reason of a cold optimal solve (kNone for serves).
  guard::StopReason stopReason = guard::StopReason::kNone;
  /// Nodes the cold optimal solve explored (0 for serves).
  std::uint64_t nodesExplored = 0;
  [[nodiscard]] bool servedFromCache() const {
    return cacheHit || revalidated;
  }
};

/// Solves `problem` through `cache` (nullptr = always cold). The returned
/// schedule is bound to `problem`.
ScheduleResult solveThroughCache(ScheduleCache* cache, const Problem& problem,
                                 const SolveSpec& spec,
                                 SolveInfo* infoOut = nullptr);

/// Rung 1 alone: serve an exact cache hit, or return nullopt WITHOUT
/// solving. This is pawsd's cache-only overload rung — under shedding the
/// daemon still answers repeated traffic in microseconds while refusing
/// anything that would cost a solve. Identical serve semantics to the
/// exact-hit rung of solveThroughCache (bind in canonical task order, then
/// revalidate). `canonical` is
/// `problem`'s form; CanonicalParts::kKeyOnly is enough.
std::optional<ScheduleResult> tryServeExact(ScheduleCache& cache,
                                            const Problem& problem,
                                            const CanonicalForm& canonical,
                                            const SolveSpec& spec,
                                            SolveInfo* infoOut = nullptr);

}  // namespace paws::cache
