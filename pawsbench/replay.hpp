// The traced replay: a workload's exact request stream, run in-process on
// one thread through the public function of each layer, in the order
// pawsd calls them:
//
//   encodeFrame/FrameDecoder -> parseRequest -> io::parseProblem ->
//   cache::solveThroughCache -> ScheduleValidator -> scheduleToText +
//   scheduleDigest + toJson -> encodeFrame/FrameDecoder
//
// The spans are the benchmark's own, around those calls; the resolver runs
// against a private ScheduleCache with an attached MetricsRegistry, so the
// program's phase.*.wall_us spans and search/exhaustive/profile counters
// come along. A second, untraced copy (no registry, no layer spans) runs in
// lockstep and gives the baseline for the tracing overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/schedule_cache.hpp"
#include "obs/metrics.hpp"
#include "sched/result.hpp"
#include "workload.hpp"

namespace pawsbench {

struct ReplayAnswer {
  std::string outcome;
  std::string digest;
  /// io::parseProblem + solveThroughCache of this request, microseconds —
  /// what pawsd spends outside its queue.
  double solvePathUs = 0;
};

/// Per-layer sums over the replayed stream, microseconds.
struct LayerTimes {
  double frame = 0;            ///< request + response encodeFrame/decode
  double requestParse = 0;     ///< parseRequest
  double ioParse = 0;          ///< io::parseProblem
  double resolverSelf = 0;     ///< solveThroughCache minus sched spans
  double schedTop = 0;         ///< outermost phase.* spans in the resolver
  double exhaustive = 0;       ///< optimal: resolver minus phase spans
  double validate = 0;         ///< ScheduleValidator::validate
  double responseEncode = 0;   ///< scheduleToText + digest + toJson
  double exactServe = 0;       ///< resolver span of exact cache hits
  double canonicalize = 0;     ///< probe: canonicalize key-only + full
  double pipeline = 0;         ///< phase.pipeline.wall_us
  double timing = 0;           ///< phase.timing.wall_us
  double maxPower = 0;         ///< phase.max-power.wall_us
  double minPower = 0;         ///< phase.min-power.wall_us
  double longestPath = 0;      ///< phase.longest_path.wall_us
  double total = 0;            ///< whole per-request span

  /// The self times that partition a request's span.
  [[nodiscard]] double selfSum() const {
    return frame + requestParse + ioParse + resolverSelf + schedTop +
           exhaustive + validate + responseEncode;
  }
};

struct ReplayResult {
  std::map<std::string, ReplayAnswer> answers;
  LayerTimes t;
  paws::obs::MetricsRegistry registry;
  paws::cache::CacheStats cache;
  std::size_t requests = 0;
  std::size_t exactHits = 0;
  std::size_t nearMisses = 0;
  std::size_t budgetExhausted = 0;
  /// solveThroughCache threw (a PAWS_CHECK abort) — counted as `error`.
  std::size_t checkAborts = 0;
};

struct ReplayPair {
  ReplayResult traced;
  /// The same stream with the obs hooks detached; only the answers, the
  /// counts and `t.total` are filled.
  ReplayResult plain;
};

/// Solves `warmup` untimed, then replays `stream` in order, traced and
/// untraced in lockstep, each against its own cache.
ReplayPair replay(const std::vector<Request>& warmup,
                  const std::vector<Request>& stream,
                  std::size_t cacheCapacity);

/// The daemon's outcome vocabulary for a scheduler status.
const char* outcomeName(paws::SchedStatus status, bool hasSchedule);

}  // namespace pawsbench
