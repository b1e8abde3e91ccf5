// Machine-readable bench output: every bench binary funnels its
// google-benchmark run through runBenchMain(), which keeps the normal
// console output (via ConsoleReporter) while also collecting one row per
// measured run. Rows are written to
//
//   $PAWS_BENCH_DIR/.bench-fragments/<suite>.json
//
// and all fragments present are then stitched into
// $PAWS_BENCH_DIR/BENCH_results.json (PAWS_BENCH_DIR defaults to the
// current directory, so running the benches from the repo root drops
// BENCH_results.json at the root). Stitching is raw-text concatenation of
// the per-suite fragments — each fragment is a complete `"suite": {...}`
// JSON member — so no JSON parser is needed and a partial bench run still
// yields a valid file covering the suites that ran.
//
// Schema, per benchmark name:
//   { "wall_ns": <per-iteration wall time>, "cpu_ns": ...,
//     "iterations": ..., "counters": { "threads": ..., "lp_runs": ... } }
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace paws::bench {

struct ResultRow {
  std::string name;
  double wallNs = 0;
  double cpuNs = 0;
  std::int64_t iterations = 0;
  std::map<std::string, double> counters;
};

/// ConsoleReporter that additionally keeps every measured (non-aggregate)
/// run for the JSON fragment.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type == Run::RT_Aggregate) continue;
      if (run.error_occurred) continue;
      ResultRow row;
      row.name = run.benchmark_name();
      row.iterations = static_cast<std::int64_t>(run.iterations);
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      row.wallNs = run.real_accumulated_time * 1e9 / iters;
      row.cpuNs = run.cpu_accumulated_time * 1e9 / iters;
      for (const auto& [name, counter] : run.counters) {
        row.counters[name] = counter.value;
      }
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] const std::vector<ResultRow>& rows() const { return rows_; }

 private:
  std::vector<ResultRow> rows_;
};

namespace detail {

inline std::filesystem::path benchDir() {
  const char* dir = std::getenv("PAWS_BENCH_DIR");
  return std::filesystem::path(dir != nullptr && *dir != '\0' ? dir : ".");
}

/// Writes this suite's fragment: a complete `"suite": { ... }` member.
inline void writeFragment(const std::string& suite,
                          const std::vector<ResultRow>& rows) {
  const std::filesystem::path dir = benchDir() / ".bench-fragments";
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / (suite + ".json"), std::ios::trunc);
  out << obs::json::escaped(suite) << ": {";
  bool firstRow = true;
  for (const ResultRow& row : rows) {
    out << (firstRow ? "\n" : ",\n");
    firstRow = false;
    out << "    " << obs::json::escaped(row.name) << ": {\"wall_ns\": "
        << row.wallNs << ", \"cpu_ns\": " << row.cpuNs
        << ", \"iterations\": " << row.iterations << ", \"counters\": {";
    bool firstCounter = true;
    for (const auto& [name, value] : row.counters) {
      if (!firstCounter) out << ", ";
      firstCounter = false;
      out << obs::json::escaped(name) << ": " << value;
    }
    out << "}}";
  }
  out << "\n  }";
}

/// Stitches every fragment currently on disk into BENCH_results.json.
inline void aggregateFragments() {
  const std::filesystem::path dir = benchDir() / ".bench-fragments";
  std::vector<std::filesystem::path> fragments;
  if (std::filesystem::is_directory(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".json") {
        fragments.push_back(entry.path());
      }
    }
  }
  std::sort(fragments.begin(), fragments.end());
  std::ofstream out(benchDir() / "BENCH_results.json", std::ios::trunc);
  out << "{\n  \"suites\": {\n";
  bool first = true;
  for (const std::filesystem::path& path : fragments) {
    std::ifstream in(path);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (body.empty()) continue;
    if (!first) out << ",\n";
    first = false;
    out << "  " << body;
  }
  out << "\n  }\n}\n";
}

}  // namespace detail

/// Drop-in replacement for the Initialize/RunSpecifiedBenchmarks pair:
/// runs the registered benchmarks with console output, then writes this
/// suite's JSON fragment and re-aggregates BENCH_results.json.
inline int runBenchMain(const std::string& suite, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  detail::writeFragment(suite, reporter.rows());
  detail::aggregateFragments();
  return 0;
}

}  // namespace paws::bench
