// Serializers for recorded search traces.
//
//   * writeSearchTraceJson  — chrome://tracing / Perfetto "traceEvents"
//     JSON. Follows the event-shape conventions of io/writer.cpp's
//     writeChromeTrace (pid/tid/ts/dur, "X" spans, metadata thread names),
//     but renders the *search* — phases, longest-path runs and per-decision
//     instants on one row per subsystem — instead of the schedule.
//   * writeSearchTraceJsonl — one JSON object per line, in recording
//     order; the stable machine-readable form for diffing and scripting.
//   * renderObsSummary      — the CLI's --obs-summary text: the metrics
//     table plus an event-count digest of the trace.
//   * writeOpenMetrics      — Prometheus / OpenMetrics text exposition of a
//     MetricsRegistry: counters as `<name>_total`, gauges verbatim, and the
//     log2-bucketed histograms as cumulative `_bucket{le="..."}` series.
//     This is the scrape format the planned pawsd service will serve; the
//     CLI exposes it as `--openmetrics` for pipeline smoke tests.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace paws::obs {

class IncumbentLog;

void writeSearchTraceJson(std::ostream& os, const TraceSink& sink);
void writeSearchTraceJsonl(std::ostream& os, const TraceSink& sink);

/// Optional context lines appended to the --obs-summary text: the guard's
/// stop reason (omitted while empty or "none") and the incumbent
/// trajectory length.
struct ObsSummaryExtras {
  const IncumbentLog* incumbents = nullptr;
  std::string_view stopReason;
};

[[nodiscard]] std::string renderObsSummary(
    const MetricsRegistry& metrics, const TraceSink* sink = nullptr,
    const ObsSummaryExtras& extras = {});

/// OpenMetrics text exposition. Metric names are prefixed with `prefix`
/// and sanitized (dots become underscores); the output ends with `# EOF`
/// as the spec requires.
void writeOpenMetrics(std::ostream& os, const MetricsRegistry& metrics,
                      std::string_view prefix = "paws");
[[nodiscard]] std::string toOpenMetrics(const MetricsRegistry& metrics,
                                        std::string_view prefix = "paws");

}  // namespace paws::obs
