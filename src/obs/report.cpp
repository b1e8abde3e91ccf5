#include "obs/report.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace paws::obs {

namespace {

/// Doubles print as integers when they are one (reparses as an exact
/// integer), otherwise with max_digits10 so strtod reconstructs the exact
/// bit pattern. Non-finite values have no JSON spelling and collapse to 0
/// (histogram envelopes are finite in practice).
void writeDouble(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 9007199254740992.0) {  // 2^53
    os << static_cast<long long>(v);
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void writeHex64(std::ostream& os, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"",
                static_cast<unsigned long long>(v));
  os << buf;
}

std::uint64_t parseHex64(std::string_view text) {
  return std::strtoull(std::string(text).c_str(), nullptr, 16);
}

using HistogramSummary = MetricsRegistry::HistogramSummary;

void writeHistogram(std::ostream& os, const HistogramSummary& h,
                    const char* indent) {
  os << "{\n" << indent << "  \"count\": " << h.count << ",\n"
     << indent << "  \"sum\": ";
  writeDouble(os, h.sum);
  os << ",\n" << indent << "  \"min\": ";
  writeDouble(os, h.min);
  os << ",\n" << indent << "  \"max\": ";
  writeDouble(os, h.max);
  os << ",\n" << indent << "  \"buckets\": [";
  bool first = true;
  for (std::size_t i = 0; i < HistogramSummary::kNumBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "[" << i << ", " << h.buckets[i] << "]";
  }
  os << "]\n" << indent << "}";
}

}  // namespace

void stampVolatile(RunReport& report) {
  report.createdUnixMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) == 0) {
    report.host = host;
  } else {
    report.host.clear();
  }
}

void writeRunReport(std::ostream& os, const RunReport& r) {
  os << "{\n";
  os << "  \"schema\": " << RunReport::kSchemaVersion << ",\n";
  os << "  \"kind\": " << json::escaped(r.kind) << ",\n";

  os << "  \"problem\": {\n";
  os << "    \"name\": " << json::escaped(r.problemName) << ",\n";
  os << "    \"hash\": ";
  writeHex64(os, r.problemHash);
  os << ",\n";
  os << "    \"tasks\": " << r.numTasks << ",\n";
  os << "    \"resources\": " << r.numResources << ",\n";
  os << "    \"constraints\": " << r.numConstraints << "\n  },\n";

  os << "  \"options\": {\n";
  os << "    \"scheduler\": " << json::escaped(r.scheduler) << ",\n";
  os << "    \"trials\": " << r.trials << ",\n";
  os << "    \"jobs\": " << r.jobs << ",\n";
  os << "    \"timeout_ms\": " << r.timeoutMs << "\n  },\n";

  os << "  \"outcome\": {\n";
  os << "    \"status\": " << json::escaped(r.status) << ",\n";
  os << "    \"stop_reason\": " << json::escaped(r.stopReason) << ",\n";
  os << "    \"exit_class\": " << r.exitClass << ",\n";
  os << "    \"valid\": " << (r.valid ? "true" : "false") << ",\n";
  os << "    \"message\": " << json::escaped(r.message) << "\n  },\n";

  os << "  \"schedule\": {\n";
  os << "    \"present\": " << (r.hasSchedule ? "true" : "false") << ",\n";
  os << "    \"finish_ticks\": " << r.finishTicks << ",\n";
  os << "    \"energy_cost_mwt\": " << r.energyCostMwt << ",\n";
  os << "    \"peak_power_mw\": " << r.peakPowerMw << ",\n";
  os << "    \"bytes\": " << r.scheduleBytes << "\n  },\n";

  // Derived view: phase wall-time histograms by their phase name. The
  // parser ignores this section (it reconstructs from "metrics"), but
  // humans and plotting scripts get the pipeline breakdown without
  // knowing the phase.*.wall_us naming convention.
  os << "  \"phases\": [";
  {
    bool first = true;
    for (const auto& [name, h] : r.metrics.histograms()) {
      constexpr std::string_view kPrefix = "phase.";
      constexpr std::string_view kSuffix = ".wall_us";
      if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
      if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
      if (name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                       kSuffix) != 0) {
        continue;
      }
      const std::string phase = name.substr(
          kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
      if (!first) os << ",";
      first = false;
      os << "\n    {\"name\": " << json::escaped(phase)
         << ", \"count\": " << h.count << ", \"wall_us\": ";
      writeDouble(os, h.sum);
      os << "}";
    }
    if (!first) os << "\n  ";
  }
  os << "],\n";

  os << "  \"metrics\": {\n    \"counters\": {";
  {
    bool first = true;
    for (const auto& [name, v] : r.metrics.counters()) {
      if (!first) os << ",";
      first = false;
      os << "\n      " << json::escaped(name) << ": " << v;
    }
    if (!first) os << "\n    ";
  }
  os << "},\n    \"gauges\": {";
  {
    bool first = true;
    for (const auto& [name, v] : r.metrics.gauges()) {
      if (!first) os << ",";
      first = false;
      os << "\n      " << json::escaped(name) << ": ";
      writeDouble(os, v);
    }
    if (!first) os << "\n    ";
  }
  os << "},\n    \"histograms\": {";
  {
    bool first = true;
    for (const auto& [name, h] : r.metrics.histograms()) {
      if (!first) os << ",";
      first = false;
      os << "\n      " << json::escaped(name) << ": ";
      writeHistogram(os, h, "      ");
    }
    if (!first) os << "\n    ";
  }
  os << "}\n  },\n";

  os << "  \"incumbents\": [";
  {
    bool first = true;
    for (const IncumbentPoint& p : r.incumbents) {
      if (!first) os << ",";
      first = false;
      os << "\n    {\"ts_ns\": " << p.tsNs << ", \"cost_mwt\": " << p.costMwt
         << "}";
    }
    if (!first) os << "\n  ";
  }
  os << "],\n";

  os << "  \"meta\": {\n";
  os << "    \"tool\": \"pawsc\",\n";
  os << "    \"created_unix_ms\": " << r.createdUnixMs << ",\n";
  os << "    \"host\": " << json::escaped(r.host) << "\n  }\n";
  os << "}\n";
}

std::string runReportToJson(const RunReport& report) {
  std::ostringstream os;
  writeRunReport(os, report);
  return os.str();
}

ReportParseResult parseRunReport(std::string_view jsonText) {
  ReportParseResult out;
  const json::ParseResult parsed = json::parse(jsonText);
  if (!parsed.ok) {
    out.error = "invalid JSON: " + parsed.error;
    return out;
  }
  const json::Value& v = parsed.value;
  if (!v.isObject()) {
    out.error = "report must be a JSON object";
    return out;
  }
  if (const json::Value* schema = v.find("schema")) {
    const std::int64_t version = schema->asInt(RunReport::kSchemaVersion);
    if (version > RunReport::kSchemaVersion) {
      out.error =
          "report schema " + std::to_string(version) + " is newer than " +
          std::to_string(RunReport::kSchemaVersion);
      return out;
    }
  }
  RunReport& r = out.report;
  if (const json::Value* kind = v.find("kind")) r.kind = kind->asString();

  if (const json::Value* p = v.find("problem"); p != nullptr && p->isObject()) {
    if (const json::Value* f = p->find("name")) r.problemName = f->asString();
    if (const json::Value* f = p->find("hash")) {
      r.problemHash = parseHex64(f->asString());
    }
    if (const json::Value* f = p->find("tasks")) r.numTasks = f->asUint();
    if (const json::Value* f = p->find("resources")) {
      r.numResources = f->asUint();
    }
    if (const json::Value* f = p->find("constraints")) {
      r.numConstraints = f->asUint();
    }
  }

  if (const json::Value* o = v.find("options"); o != nullptr && o->isObject()) {
    if (const json::Value* f = o->find("scheduler")) {
      r.scheduler = f->asString();
    }
    if (const json::Value* f = o->find("trials")) r.trials = f->asInt(1);
    if (const json::Value* f = o->find("jobs")) r.jobs = f->asInt(1);
    if (const json::Value* f = o->find("timeout_ms")) {
      r.timeoutMs = f->asInt(-1);
    }
  }

  if (const json::Value* o = v.find("outcome"); o != nullptr && o->isObject()) {
    if (const json::Value* f = o->find("status")) r.status = f->asString();
    if (const json::Value* f = o->find("stop_reason")) {
      r.stopReason = f->asString("none");
    }
    if (const json::Value* f = o->find("exit_class")) r.exitClass = f->asInt();
    if (const json::Value* f = o->find("valid")) r.valid = f->asBool();
    if (const json::Value* f = o->find("message")) r.message = f->asString();
  }

  if (const json::Value* s = v.find("schedule");
      s != nullptr && s->isObject()) {
    if (const json::Value* f = s->find("present")) r.hasSchedule = f->asBool();
    if (const json::Value* f = s->find("finish_ticks")) {
      r.finishTicks = f->asInt();
    }
    if (const json::Value* f = s->find("energy_cost_mwt")) {
      r.energyCostMwt = f->asInt();
    }
    if (const json::Value* f = s->find("peak_power_mw")) {
      r.peakPowerMw = f->asInt();
    }
    if (const json::Value* f = s->find("bytes")) r.scheduleBytes = f->asUint();
  }

  if (const json::Value* m = v.find("metrics"); m != nullptr && m->isObject()) {
    if (const json::Value* c = m->find("counters");
        c != nullptr && c->isObject()) {
      for (const auto& [name, value] : c->members) {
        r.metrics.add(name, value.asUint());
      }
    }
    if (const json::Value* g = m->find("gauges");
        g != nullptr && g->isObject()) {
      for (const auto& [name, value] : g->members) {
        r.metrics.set(name, value.asDouble());
      }
    }
    if (const json::Value* hs = m->find("histograms");
        hs != nullptr && hs->isObject()) {
      for (const auto& [name, hv] : hs->members) {
        if (!hv.isObject()) continue;
        HistogramSummary h;
        if (const json::Value* f = hv.find("count")) h.count = f->asUint();
        if (const json::Value* f = hv.find("sum")) h.sum = f->asDouble();
        if (const json::Value* f = hv.find("min")) h.min = f->asDouble();
        if (const json::Value* f = hv.find("max")) h.max = f->asDouble();
        if (const json::Value* b = hv.find("buckets");
            b != nullptr && b->isArray()) {
          for (const json::Value& pair : b->items) {
            if (!pair.isArray() || pair.items.size() != 2) continue;
            const std::uint64_t idx = pair.items[0].asUint();
            if (idx >= HistogramSummary::kNumBuckets) continue;
            h.buckets[idx] = pair.items[1].asUint();
          }
        }
        r.metrics.setHistogram(name, h);
      }
    }
  }

  if (const json::Value* inc = v.find("incumbents");
      inc != nullptr && inc->isArray()) {
    for (const json::Value& point : inc->items) {
      if (!point.isObject()) continue;
      IncumbentPoint p;
      if (const json::Value* f = point.find("ts_ns")) p.tsNs = f->asInt();
      if (const json::Value* f = point.find("cost_mwt")) {
        p.costMwt = f->asInt();
      }
      r.incumbents.push_back(p);
    }
  }

  if (const json::Value* meta = v.find("meta");
      meta != nullptr && meta->isObject()) {
    if (const json::Value* f = meta->find("created_unix_ms")) {
      r.createdUnixMs = f->asInt();
    }
    if (const json::Value* f = meta->find("host")) r.host = f->asString();
  }

  out.ok = true;
  return out;
}

ReportParseResult loadRunReport(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ReportParseResult out;
    out.error = "cannot open " + path;
    return out;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ReportParseResult out = parseRunReport(buffer.str());
  if (!out.ok && out.error.find(path) == std::string::npos) {
    out.error = path + ": " + out.error;
  }
  return out;
}

}  // namespace paws::obs
