// MetricsRegistry — named counters, gauges and histograms for search
// effort and wall-clock accounting.
//
// This subsumes the fixed-field SchedulerStats struct (see
// sched/result.hpp's exportStats): schedulers keep their cheap
// plain-integer counters on the hot path, and full runs export them into
// a registry under stable names, alongside metrics the struct cannot
// hold — phase wall times, per-run longest-path durations, executor
// outcomes.
//
// Histograms are *bucketed*: besides count/sum/min/max every observation
// lands in one of 64 log2 buckets (bucket 0 = values below 1, bucket i =
// [2^(i-1), 2^i), bucket 63 = everything from 2^62 up), which is enough to
// estimate p50/p90/p99 for wall-time and effort distributions at a fixed
// 512-byte footprint per metric, and merges exactly (bucket-wise sums)
// when per-run registries are folded together.
//
// Naming convention (documented in docs/observability.md):
//   search.*    scheduler decision counters (search.backtracks, ...)
//   phase.*     wall-clock histograms, microseconds (phase.timing.wall_us)
//   executor.*  runtime-executor counters/gauges
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

namespace paws::obs {

class MetricsRegistry {
 public:
  /// Monotonic counter: creates at 0 on first touch.
  void add(std::string_view name, std::uint64_t delta = 1);
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// Last-write-wins gauge.
  void set(std::string_view name, double value);
  [[nodiscard]] double gauge(std::string_view name) const;

  /// Streaming histogram: tracks count / sum / min / max plus 64 log2
  /// buckets for quantile estimates.
  void observe(std::string_view name, double value);

  struct HistogramSummary {
    static constexpr std::size_t kNumBuckets = 64;

    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    /// buckets[0] counts values < 1 (including zero and negatives);
    /// buckets[i] (1 <= i <= 62) counts values in [2^(i-1), 2^i);
    /// buckets[63] counts values >= 2^62.
    std::array<std::uint64_t, kNumBuckets> buckets{};

    [[nodiscard]] double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }

    /// Quantile estimate from the log2 buckets (q in [0, 1]): locates the
    /// bucket holding the q-th ranked observation and interpolates
    /// linearly inside it, clamped to the exact [min, max] envelope. The
    /// estimate is exact at the envelope (q=0 -> min, q=1 -> max) and
    /// bucket-resolution (a factor of 2) in between.
    [[nodiscard]] double quantile(double q) const;

    /// Folds `other` in: counts and buckets add, min/max widen. An empty
    /// side contributes nothing — in particular it never clobbers the
    /// other side's min/max with its default zeros.
    void merge(const HistogramSummary& other);

    /// Records one value (the registry's observe() forwards here).
    void observe(double value);

    /// The log2 bucket `value` falls into.
    [[nodiscard]] static std::size_t bucketIndex(double value);
    /// Inclusive-exclusive bounds of bucket i; bucket 63's upper bound is
    /// +infinity.
    [[nodiscard]] static double bucketLowerBound(std::size_t i);
    [[nodiscard]] static double bucketUpperBound(std::size_t i);

    [[nodiscard]] bool operator==(const HistogramSummary&) const = default;
  };
  [[nodiscard]] HistogramSummary histogram(std::string_view name) const;

  /// Installs a complete summary under `name`, replacing any existing one —
  /// how the run-report parser reconstructs a registry from JSON.
  void setHistogram(std::string_view name, const HistogramSummary& summary);

  [[nodiscard]] bool has(std::string_view name) const;
  /// Total number of distinct metric names across all three families.
  [[nodiscard]] std::size_t size() const;

  /// Read-only views over the three families, sorted by name — the JSON /
  /// OpenMetrics exporters and the run-report builder iterate these.
  using CounterMap = std::map<std::string, std::uint64_t, std::less<>>;
  using GaugeMap = std::map<std::string, double, std::less<>>;
  using HistogramMap = std::map<std::string, HistogramSummary, std::less<>>;
  [[nodiscard]] const CounterMap& counters() const { return counters_; }
  [[nodiscard]] const GaugeMap& gauges() const { return gauges_; }
  [[nodiscard]] const HistogramMap& histograms() const { return histograms_; }

  /// Folds every metric of `other` into this registry (counters add,
  /// gauges overwrite, histograms merge bucket-wise) — used by benches
  /// aggregating per-run registries and by pawsd-style per-request scrapes.
  MetricsRegistry& operator+=(const MetricsRegistry& other);

  /// Exact structural equality (used by the run-report round-trip tests).
  [[nodiscard]] bool operator==(const MetricsRegistry&) const = default;

  /// CSV export, one row per metric, sorted by name:
  ///   name,kind,value,count,sum,min,max,mean,p50,p90,p99
  /// Counters/gauges fill `value`; histograms fill the summary columns.
  void writeCsv(std::ostream& os) const;

  /// Human-readable aligned table (the CLI's --obs-summary body).
  [[nodiscard]] std::string renderTable() const;

 private:
  // Ordered maps: export order is deterministic and sorted by name.
  // std::less<> enables lookups by string_view without allocating.
  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap histograms_;
};

}  // namespace paws::obs
