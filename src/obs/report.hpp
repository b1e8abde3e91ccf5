// RunReport — one scheduling/simulation/campaign run, end to end, as a
// single JSON document.
//
// The report is the machine-readable counterpart of --obs-summary: problem
// identity (name + content hash), the options that shaped the run, the
// outcome (status, stop reason, exit class), a schedule digest, the full
// MetricsRegistry snapshot (counters, gauges, bucketed histograms) and the
// incumbent trajectory — the anytime time-vs-quality curve recorded by the
// schedulers through obs::IncumbentLog. `pawsc ... --report out.json`
// writes one; `pawsc trace summarize|diff|incumbents` reads them back.
//
// The JSON schema (version 1) is documented in docs/observability.md.
// Round-trip contract: parseRunReport(runReportToJson(r)).report == r for
// every report the toolchain writes — integers stay integers, doubles are
// printed with enough digits to reparse exactly, and map ordering is the
// registry's (sorted by name).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "base/hash.hpp"
#include "obs/incumbents.hpp"
#include "obs/metrics.hpp"

namespace paws::obs {

struct RunReport {
  static constexpr std::int64_t kSchemaVersion = 1;

  /// What ran: "schedule", "simulate" or "campaign".
  std::string kind = "schedule";

  // ----- problem identity ----------------------------------------------
  std::string problemName;
  /// FNV-1a 64 over the canonical .paws text (io::problemToText) — two
  /// reports with equal hashes scheduled the same problem.
  std::uint64_t problemHash = 0;
  std::uint64_t numTasks = 0;
  std::uint64_t numResources = 0;
  std::uint64_t numConstraints = 0;

  // ----- options that shaped the run -----------------------------------
  std::string scheduler;       ///< "pipeline", "exhaustive", "timing", ...
  std::int64_t trials = 1;
  std::int64_t jobs = 1;
  std::int64_t timeoutMs = -1; ///< -1 = unlimited

  // ----- outcome --------------------------------------------------------
  std::string status;               ///< toString(SchedStatus) / run status
  std::string stopReason = "none";  ///< guard::toString(StopReason)
  std::int64_t exitClass = 0;       ///< the pawsc exit code for this run
  bool valid = false;               ///< validator verdict on the schedule
  std::string message;

  // ----- schedule digest (when one was produced) -----------------------
  bool hasSchedule = false;
  std::int64_t finishTicks = 0;
  std::int64_t energyCostMwt = 0;  ///< Ec above Pmin, milliwatt-ticks
  std::int64_t peakPowerMw = 0;
  std::uint64_t scheduleBytes = 0; ///< serialized schedule size (determinism
                                   ///< witness: equal bytes = equal schedule)

  // ----- observability payload -----------------------------------------
  MetricsRegistry metrics;
  std::vector<IncumbentPoint> incumbents;  ///< monotone non-increasing cost

  // ----- volatile meta (normalized away in golden tests) ---------------
  std::int64_t createdUnixMs = 0;
  std::string host;

  [[nodiscard]] bool operator==(const RunReport&) const = default;
};

/// FNV-1a 64-bit over `text` — the problem-content hash. The definition
/// lives in base/hash.hpp (shared with the schedule cache); this alias
/// keeps the historical obs:: spelling working for report call sites.
using paws::fnv1a64;

/// Stamps the volatile meta fields (wall clock, host name).
void stampVolatile(RunReport& report);

void writeRunReport(std::ostream& os, const RunReport& report);
[[nodiscard]] std::string runReportToJson(const RunReport& report);

struct ReportParseResult {
  bool ok = false;
  std::string error;
  RunReport report;
};

/// Parses a report document; unknown fields are ignored, missing fields
/// keep their defaults, a wrong top-level shape or newer schema fails.
[[nodiscard]] ReportParseResult parseRunReport(std::string_view jsonText);

/// Reads and parses a report file; IO failures land in `error`.
[[nodiscard]] ReportParseResult loadRunReport(const std::string& path);

}  // namespace paws::obs
