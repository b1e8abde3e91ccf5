// IncumbentLog — the anytime-result trajectory of one scheduling run.
//
// Every time a search improves its best-known schedule ("incumbent"), the
// scheduler records (tsNs, costMilliwattTicks): nanoseconds since the log
// was created and the incumbent's energy cost above Pmin in integer
// milliwatt-ticks. The resulting curve is the time-vs-quality profile the
// anytime literature evaluates — how good is the answer after 10 ms, after
// 50 ms, at the deadline — and lands in the RunReport (obs/report.hpp) and
// `pawsc trace incumbents`.
//
// Producers:
//   * ExhaustiveScheduler — each CAS win on the shared incumbent bound
//     (parallel workers race; the log's own monotonicity filter keeps the
//     curve consistent);
//   * MinPowerScheduler — every accepted gap-filling move that lowered Ec,
//     plus the cost of the schedule it started from;
//   * PowerAwareScheduler trials inherit the same log, so a multi-trial
//     pipeline produces one merged curve.
//
// The log is thread-safe (a mutex; improvements are rare relative to
// search nodes) and *monotonic by construction*: a point is appended only
// when its cost is strictly below the last appended cost, so out-of-order
// publication from racing workers can never produce a rising curve.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace paws::obs {

struct IncumbentPoint {
  std::int64_t tsNs = 0;     ///< steady-clock offset from the log's epoch
  std::int64_t costMwt = 0;  ///< energy cost above Pmin, milliwatt-ticks

  [[nodiscard]] bool operator==(const IncumbentPoint&) const = default;
};

class IncumbentLog {
 public:
  IncumbentLog();

  /// Appends (now, costMwt) iff costMwt is strictly below the last
  /// appended cost (always true for the first point). Returns whether the
  /// point was kept. Thread-safe.
  bool record(std::int64_t costMwt);

  /// Appends a pre-stamped point under the same monotonicity filter —
  /// used when replaying a parsed report back into a log.
  bool recordAt(std::int64_t tsNs, std::int64_t costMwt);

  /// Snapshot of the curve so far, in record order (thread-safe copy).
  [[nodiscard]] std::vector<IncumbentPoint> points() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Nanoseconds since this log was created (steady clock).
  [[nodiscard]] std::int64_t nowNs() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<IncumbentPoint> points_;
};

}  // namespace paws::obs
