// bench_diff — the bench regression gate (src/obs/bench_compare.hpp as a
// CLI). Compares two BENCH_results.json files and exits non-zero on a hard
// regression, so CI can run it against the committed bench/baseline.json:
//
//   bench_diff baseline.json current.json [--wall-tolerance PCT]
//              [--fail-on-wall] [--exact COUNTER]...
//
// Hard (always fatal): a suite/benchmark present in the baseline but
// missing from the current run, or any mismatch on an exact counter
// (default: schedule_bytes, lp_runs, backtracks, nodes_explored and the
// pruned_* search counters — determinism witnesses). Soft
// (warn-only unless --fail-on-wall): per-iteration wall_ns slowdowns
// beyond the tolerance (default 50%), since wall time is machine-bound.
//
// Exit codes: 0 no hard regression; 1 usage; 2 unreadable/unparseable
// input; 3 hard regression found.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/bench_compare.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff <baseline.json> <current.json>\n"
               "       [--wall-tolerance PCT]  slowdown warning threshold "
               "(default 50)\n"
               "       [--fail-on-wall]        wall-time findings become "
               "fatal\n"
               "       [--exact COUNTER]       replace the exact-counter "
               "set\n"
               "                               (repeatable; default "
               "schedule_bytes, lp_runs,\n"
               "                                backtracks, nodes_explored, "
               "pruned_*)\n"
               "exit: 0 ok; 1 usage; 2 bad input; 3 regression\n");
  return 1;
}

std::optional<std::string> readFile(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const char* baselinePath = argv[1];
  const char* currentPath = argv[2];
  paws::obs::BenchCompareOptions options;
  bool exactReplaced = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--wall-tolerance") {
      options.wallTolerance = std::atof(value("--wall-tolerance")) / 100.0;
    } else if (arg == "--fail-on-wall") {
      options.failOnWall = true;
    } else if (arg == "--exact") {
      if (!exactReplaced) {
        options.exactCounters.clear();
        exactReplaced = true;
      }
      options.exactCounters.emplace_back(value("--exact"));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage();
    }
  }

  const auto baseline = readFile(baselinePath);
  const auto current = readFile(currentPath);
  if (!baseline || !current) return 2;

  const paws::obs::BenchComparison comparison =
      paws::obs::compareBenchResults(*baseline, *current, options);
  std::fputs(paws::obs::renderBenchComparison(comparison, baselinePath,
                                              currentPath)
                 .c_str(),
             stdout);
  if (!comparison.error.empty()) return 2;
  return comparison.ok() ? 0 : 3;
}
