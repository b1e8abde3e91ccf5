#include "obs/export.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/incumbents.hpp"

namespace paws::obs {

namespace {

/// chrome://tracing groups events by (pid, tid); we use one pid and one
/// row per subsystem so the search reads like a profiler timeline.
struct Row {
  int tid;
  const char* name;
};

Row rowOf(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kPhase:
      return {1, "phases"};
    case TraceEventKind::kLongestPath:
      return {2, "longest-path engine"};
    case TraceEventKind::kCandidate:
    case TraceEventKind::kBacktrack:
      return {3, "timing search"};
    case TraceEventKind::kDelay:
    case TraceEventKind::kLock:
    case TraceEventKind::kRecursion:
      return {4, "max-power decisions"};
    case TraceEventKind::kMoveAccepted:
    case TraceEventKind::kMoveRejected:
    case TraceEventKind::kScanPass:
      return {5, "min-power moves"};
    case TraceEventKind::kIteration:
      return {6, "runtime executor"};
    case TraceEventKind::kServeShed:
    case TraceEventKind::kServeMode:
    case TraceEventKind::kServeDrain:
      return {7, "service"};
  }
  return {8, "other"};
}

/// Microseconds with nanosecond precision — chrome's ts unit is us.
void printUs(std::ostream& os, std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  os << buf;
}

void printArgs(std::ostream& os, const TraceEvent& e) {
  os << "{\"depth\":" << e.depth;
  if (e.task != TraceEvent::kNoTask) os << ",\"task\":" << e.task;
  os << ",\"at\":" << e.at << ",\"value\":" << e.value;
  if (e.label[0] != '\0') os << ",\"label\":\"" << e.label << "\"";
  os << "}";
}

}  // namespace

void writeSearchTraceJson(std::ostream& os, const TraceSink& sink) {
  os << "{\"traceEvents\":[";
  bool first = true;
  std::map<int, const char*> rows;
  for (const TraceEvent& e : sink.events()) {
    const Row row = rowOf(e.kind);
    rows.emplace(row.tid, row.name);
    if (!first) os << ',';
    first = false;
    const bool isSpan = e.durNs > 0 || e.kind == TraceEventKind::kPhase ||
                        e.kind == TraceEventKind::kLongestPath ||
                        e.kind == TraceEventKind::kIteration;
    const char* name = (e.kind == TraceEventKind::kPhase && e.label[0] != '\0')
                           ? e.label
                           : toString(e.kind);
    os << "{\"name\":\"" << name << "\",\"cat\":\"search\",\"ph\":\""
       << (isSpan ? 'X' : 'i') << "\",\"pid\":1,\"tid\":" << row.tid
       << ",\"ts\":";
    printUs(os, e.tsNs);
    if (isSpan) {
      os << ",\"dur\":";
      printUs(os, e.durNs);
    } else {
      os << ",\"s\":\"t\"";  // instant scope: thread
    }
    os << ",\"args\":";
    printArgs(os, e);
    os << "}";
  }
  // Row-name metadata, mirroring writeChromeTrace's thread_name records.
  for (const auto& [tid, name] : rows) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << name << "\"}}";
  }
  os << "]}";
}

void writeSearchTraceJsonl(std::ostream& os, const TraceSink& sink) {
  for (const TraceEvent& e : sink.events()) {
    os << "{\"kind\":\"" << toString(e.kind) << "\",\"ts_ns\":" << e.tsNs
       << ",\"dur_ns\":" << e.durNs;
    if (e.task != TraceEvent::kNoTask) os << ",\"task\":" << e.task;
    os << ",\"at\":" << e.at << ",\"value\":" << e.value
       << ",\"depth\":" << e.depth;
    if (e.label[0] != '\0') os << ",\"label\":\"" << e.label << "\"";
    os << "}\n";
  }
}

std::string renderObsSummary(const MetricsRegistry& metrics,
                             const TraceSink* sink,
                             const ObsSummaryExtras& extras) {
  std::ostringstream os;
  os << metrics.renderTable();
  if (sink != nullptr && !sink->empty()) {
    std::array<std::size_t, 16> byKind{};
    for (const TraceEvent& e : sink->events()) {
      ++byKind[static_cast<std::size_t>(e.kind) % byKind.size()];
    }
    os << "trace (" << sink->size() << " events):\n";
    for (std::size_t k = 0; k < byKind.size(); ++k) {
      if (byKind[k] == 0) continue;
      os << "  " << toString(static_cast<TraceEventKind>(k)) << ": "
         << byKind[k] << "\n";
    }
    if (sink->droppedEvents() > 0) {
      os << "  dropped (cap " << sink->maxEvents()
         << " events): " << sink->droppedEvents() << "\n";
    }
  }
  if (!extras.stopReason.empty() && extras.stopReason != "none") {
    os << "guard: stopped early (" << extras.stopReason << ")\n";
  }
  if (extras.incumbents != nullptr && !extras.incumbents->empty()) {
    const auto points = extras.incumbents->points();
    os << "incumbents: " << points.size() << " improvement"
       << (points.size() == 1 ? "" : "s") << ", final cost "
       << points.back().costMwt << " mWt\n";
  }
  return os.str();
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The registry's
/// dotted names map dots (and anything else illegal) to underscores.
std::string sanitizeMetricName(std::string_view prefix,
                               std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + 1 + name.size());
  const auto append = [&out](std::string_view part) {
    for (const char c : part) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9' && !out.empty()) || c == '_' ||
                      c == ':';
      out.push_back(ok ? c : '_');
    }
  };
  append(prefix);
  if (!out.empty() && !name.empty()) out.push_back('_');
  append(name);
  return out;
}

/// `le` labels and sample values: integral doubles print without a
/// fraction, everything else with enough digits to reparse.
void printOmValue(std::ostream& os, double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  os << buf;
}

}  // namespace

void writeOpenMetrics(std::ostream& os, const MetricsRegistry& metrics,
                      std::string_view prefix) {
  for (const auto& [name, value] : metrics.counters()) {
    const std::string om = sanitizeMetricName(prefix, name);
    os << "# TYPE " << om << " counter\n";
    os << om << "_total " << value << "\n";
  }
  for (const auto& [name, value] : metrics.gauges()) {
    const std::string om = sanitizeMetricName(prefix, name);
    os << "# TYPE " << om << " gauge\n";
    os << om << " ";
    printOmValue(os, value);
    os << "\n";
  }
  using HistogramSummary = MetricsRegistry::HistogramSummary;
  for (const auto& [name, h] : metrics.histograms()) {
    const std::string om = sanitizeMetricName(prefix, name);
    os << "# TYPE " << om << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i + 1 < HistogramSummary::kNumBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      cumulative += h.buckets[i];
      os << om << "_bucket{le=\"";
      printOmValue(os, HistogramSummary::bucketUpperBound(i));
      os << "\"} " << cumulative << "\n";
    }
    cumulative += h.buckets[HistogramSummary::kNumBuckets - 1];
    if (cumulative < h.count) cumulative = h.count;  // defensive
    os << om << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    os << om << "_sum ";
    printOmValue(os, h.sum);
    os << "\n" << om << "_count " << h.count << "\n";
  }
  os << "# EOF\n";
}

std::string toOpenMetrics(const MetricsRegistry& metrics,
                          std::string_view prefix) {
  std::ostringstream os;
  writeOpenMetrics(os, metrics, prefix);
  return os.str();
}

}  // namespace paws::obs
