// Tuning knobs for the three schedulers.
//
// Every heuristic the paper leaves open ("heuristically determined",
// "a heuristic order", "scan the schedule in various orders") is an explicit
// option here so the ablation benches can measure each choice.
#pragma once

#include <cstdint>
#include <limits>

#include "base/time.hpp"
#include "guard/budget.hpp"
#include "obs/context.hpp"

namespace paws {

/// How TimingScheduler orders candidate vertices at each step.
enum class CandidateOrder : std::uint8_t {
  kByLongestPath,  ///< earliest current longest-path distance first (default)
  kByIndex,        ///< declaration order
  kRandom,         ///< seeded shuffle (ablation baseline)
};

/// How MaxPowerScheduler picks the victim among simultaneous tasks.
enum class VictimOrder : std::uint8_t {
  kBySlack,  ///< largest slack first — the paper's heuristic
  kRandom,   ///< random victim (the paper's fallback, used for ablation)
};

/// Which start slot MinPowerScheduler tries for a gap-filling task.
enum class SlotHeuristic : std::uint8_t {
  kStartAtGap,     ///< start v exactly at the gap start t
  kFinishAtGapEnd, ///< finish v at the end of the gap beginning at t
  kRandom,         ///< random slot covering t (ablation)
};

/// Scan order over gap times in one MinPowerScheduler pass.
enum class ScanOrder : std::uint8_t {
  kForward,   ///< increasing time
  kBackward,  ///< decreasing time
  kRandom,    ///< seeded shuffle
};

struct TimingOptions {
  CandidateOrder candidateOrder = CandidateOrder::kByLongestPath;
  /// Backtracking budget: total number of candidate choices undone before
  /// giving up. The default covers every problem in the paper by orders of
  /// magnitude while bounding pathological searches.
  std::uint64_t maxBacktracks = 100000;
  std::uint32_t randomSeed = 1;
  /// Observability hooks (borrowed; see obs/context.hpp). Outer pipeline
  /// stages propagate their own context into unset nested contexts.
  obs::ObsContext obs;
  /// Wall-clock deadline / cancellation (guard/budget.hpp). Inherited from
  /// the outer pipeline stage like `obs`; inactive by default, in which
  /// case results are byte-identical to a build without guards.
  guard::RunBudget budget;
};

struct MaxPowerOptions {
  TimingOptions timing;
  VictimOrder victimOrder = VictimOrder::kBySlack;
  /// Spikes strictly before this instant are tolerated instead of
  /// eliminated (PowerAwareScheduler hands it to min-power improvement
  /// too) — used by mid-flight repair, where frozen history may already
  /// violate a newly tightened budget and cannot move.
  std::int64_t ignoreSpikesBeforeTick =
      std::numeric_limits<std::int64_t>::min();
  /// Recursion depth for the reschedule path (Fig. 4's recursive call).
  std::uint32_t maxRecursionDepth = 64;
  /// Total delay decisions before giving up.
  std::uint64_t maxDelays = 100000;
  std::uint32_t randomSeed = 1;
  obs::ObsContext obs;
  /// See TimingOptions::budget; propagated into `timing.budget`.
  guard::RunBudget budget;
};

struct MinPowerOptions {
  /// Scan passes; the paper scans "multiple times while altering some of
  /// the heuristics during each scan and takes the best results". Each pass
  /// cycles through scan orders and slot heuristics.
  std::uint32_t maxPasses = 8;
  ScanOrder scanOrder = ScanOrder::kForward;
  SlotHeuristic slotHeuristic = SlotHeuristic::kStartAtGap;
  /// Rotate scan order / slot heuristic between passes (paper's "altering
  /// some of the heuristics during each scan").
  bool rotateHeuristics = true;
  std::uint32_t randomSeed = 1;
  obs::ObsContext obs;
  /// See TimingOptions::budget.
  guard::RunBudget budget;
};

}  // namespace paws
