// Bench regression gate: compares two BENCH_results.json files (the
// format bench/bench_report.hpp writes) and classifies every difference.
//
// Two classes of check, mirroring what a committed baseline can promise:
//
//   * exact counters — counters named in `exactCounters` are determinism
//     witnesses (serialized schedule bytes, single-threaded longest-path
//     run counts). Any mismatch, and any benchmark or suite present in the
//     baseline but missing from the current run, is a HARD regression:
//     tools/bench_diff exits non-zero.
//   * wall time — per-iteration wall_ns is machine- and load-dependent, so
//     slowdowns beyond `wallTolerance` are soft findings: warnings by
//     default, hard only under --fail-on-wall (for same-machine A/B runs).
//
// Benchmarks present only in the current run are informational (new
// coverage is never a regression).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace paws::obs {

struct BenchCompareOptions {
  /// Relative wall_ns slowdown beyond which a soft finding is raised
  /// (0.5 = current may take up to 1.5x the baseline).
  double wallTolerance = 0.5;
  /// Promote wall-time findings to hard regressions.
  bool failOnWall = false;
  /// Counter names that must match exactly between baseline and current.
  /// nodes_explored and the pruned_* counters come from the serial pruned
  /// exhaustive search, whose visit set is machine-independent; the
  /// cache_* traffic counters count resolver decisions, which are a pure
  /// function of the request sequence.
  /// delivered_steps / survival_permille / mode_escalations come from
  /// fault campaigns, which are byte-exact for any worker count.
  /// backtracks counts a timing search's rejected candidates, a pure
  /// function of the instance.
  std::vector<std::string> exactCounters = {
      "schedule_bytes", "lp_runs",         "nodes_explored",
      "pruned_dominance", "pruned_symmetry", "pruned_bound",
      "cache_hits",       "cache_misses",    "delivered_steps",
      "survival_permille", "mode_escalations", "backtracks"};
};

struct BenchComparison {
  struct Finding {
    std::string suite;
    std::string bench;    ///< empty for suite-level findings
    std::string metric;   ///< counter name, "wall_ns", or "presence"
    double baseline = 0;
    double current = 0;
    bool hard = false;
    std::string note;
  };
  std::vector<Finding> findings;  ///< hard first, then soft, stable order
  std::size_t hardCount = 0;
  std::size_t softCount = 0;
  std::size_t benchesCompared = 0;
  std::string error;  ///< non-empty: one input failed to parse (hard)

  [[nodiscard]] bool ok() const { return hardCount == 0 && error.empty(); }
};

/// Compares two BENCH_results.json documents (baseline, current) passed as
/// text. Parse failures land in `error` and count as a failed gate.
[[nodiscard]] BenchComparison compareBenchResults(
    std::string_view baselineJson, std::string_view currentJson,
    const BenchCompareOptions& options = {});

[[nodiscard]] std::string renderBenchComparison(
    const BenchComparison& comparison, std::string_view baselineLabel,
    std::string_view currentLabel);

}  // namespace paws::obs
