// pawsbench — closed-loop benchmark of pawsd, end to end and layer by layer.
//
//   pawsbench --workload cold-pipeline|hot-repeat|optimal-oracle
//             --seed N --seconds S --trace 0|1
//             --pawsd PATH --root DIR --state DIR
//
// One run: start pawsd (--threads 2) as a child process, set it up several
// times (spawn -> `listening on`, plus the warm-up pass on hot-repeat),
// drive it for S seconds from two closed-loop clients (one connection
// each), scrape its counters after the last response, read its peak RSS,
// SIGTERM it. Every answer is checked: an `ok` schedule must parse against
// the benchmark's own parse of the problem, pass ScheduleValidator, match
// its schedule_digest and its energy cost. With --trace 1 the workload's
// request stream is then replayed in-process (replay.hpp), traced and
// untraced, for the per-layer table, the tracing overhead and a digest
// comparison of every request both runs answered.
//
// Output: the human-readable report, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exit 0 when the
// run completed; 1 on usage errors; 2 when the run could not be made.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/hash.hpp"
#include "io/parser.hpp"
#include "io/schedule_io.hpp"
#include "replay.hpp"
#include "sched/serial_scheduler.hpp"
#include "serve/protocol.hpp"
#include "socket_run.hpp"
#include "validate/validator.hpp"
#include "workload.hpp"

namespace {

using pawsbench::Answer;
using pawsbench::Kind;
using pawsbench::Request;
using pawsbench::Workload;

/// pawsd's default cache capacity, which the replay's private cache
/// matches. Only hot-repeat fills it; what it evicts are near-miss variants
/// no later request asks for again, while every family's near-miss parent
/// and base entry stay recent.
constexpr std::size_t kCacheCapacity = 4096;
/// hot-repeat: requests of each client's stream the replay covers.
constexpr std::size_t kHotReplayPerClient = 5000;
/// The layer self times must account for the traced request wall time
/// within this share.
constexpr double kAccountingBound = 0.05;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string pawsd;
  std::string root = ".";
  std::string state;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Outcome tally buckets.
std::string bucketOf(const std::string& outcome) {
  if (outcome == "ok" || outcome == "budget" || outcome == "infeasible" ||
      outcome == "overloaded" || outcome == "no_response" ||
      outcome == "check_failed") {
    return outcome;
  }
  if (outcome == "deadline" || outcome == "anytime") return "deadline";
  return "error";
}

struct Verdict {
  bool pass = false;
  std::int64_t servedMwt = 0;
  /// SerialScheduler's Ec on the same problem; -1 when serial fails.
  std::int64_t serialMwt = -1;
};

/// Checks answers against the benchmark's own parse of each problem.
class Checker {
 public:
  /// SerialScheduler is timing-only: its start times are the same for
  /// every request derived from one item (renamed, or a near-miss variant
  /// with other power numbers), so they are computed once per item, on
  /// all cores (some take seconds: the mono-resource clone can exhaust
  /// the backtrack budget), and costed under each request's own numbers.
  explicit Checker(const Workload& w)
      : workload_(w), serialStarts_(w.poolSize()) {
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
      for (std::size_t i = next++; i < serialStarts_.size(); i = next++) {
        paws::ScheduleResult r =
            paws::SerialScheduler(w.itemProblem(i)).schedule();
        if (r.ok()) serialStarts_[i] = r.schedule->starts();
      }
    };
    std::vector<std::thread> threads;
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned t = 0; t < n; ++t) threads.emplace_back(work);
    for (std::thread& t : threads) t.join();
  }

  /// Verdict for an `ok` answer. The first answer of a (problem, digest)
  /// carries the schedule text; repeats reuse its verdict.
  Verdict check(const Answer& a, bool warm) {
    const std::string key = a.problemKey + "#" + a.digest;
    if (a.scheduleText.empty()) {
      const auto it = verdicts_.find(key);
      return it != verdicts_.end() ? it->second : Verdict{};
    }
    const Request r = warm ? workload_.warmup()[a.index] : requestOf(a);
    Verdict v;
    paws::io::ParseResult problem = paws::io::parseProblem(r.text);
    if (problem.ok()) {
      const paws::Problem& p = *problem.problem;
      paws::io::ScheduleParseResult s =
          paws::io::parseSchedule(a.scheduleText, p);
      if (s.ok()) {
        v.servedMwt = s.schedule->energyCost(p.minPower()).milliwattTicks();
        v.pass = paws::ScheduleValidator(p).validate(*s.schedule).valid() &&
                 paws::serve::scheduleDigest(a.scheduleText) == a.digest &&
                 v.servedMwt == a.energyMwt;
      }
      v.serialMwt = serialCost(a, p);
    }
    verdicts_[key] = v;
    return v;
  }

 private:
  Request requestOf(const Answer& a) const {
    return workload_.passes() ? workload_.atPosition(a.index)
                              : workload_.forClient(a.client, a.index);
  }

  /// Ec of the serial schedule under this request's problem; -1 when
  /// SerialScheduler found none.
  std::int64_t serialCost(const Answer& a, const paws::Problem& p) const {
    const std::optional<std::vector<paws::Time>>& starts =
        serialStarts_[a.item];
    if (!starts.has_value()) return -1;
    return paws::Schedule(&p, *starts)
        .energyCost(p.minPower())
        .milliwattTicks();
  }

  const Workload& workload_;
  std::map<std::string, Verdict> verdicts_;
  std::vector<std::optional<std::vector<paws::Time>>> serialStarts_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

std::string jsonLine(bool correct, std::size_t attempted, std::size_t failed,
                     const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << fmt(v) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// Exact counts and answer fingerprints of this (workload, seed), compared
/// with the previous run's record. 1 = equal, 0 = differ, -1 = first run.
int repeatsPreviousRun(const Options& o, const std::string& tag,
                       const std::string& record) {
  if (o.state.empty()) return -1;
  std::error_code ec;
  std::filesystem::create_directories(o.state, ec);
  const std::filesystem::path file =
      std::filesystem::path(o.state) /
      (o.workload + "-" + std::to_string(o.seed) + "." + tag);
  std::ifstream in(file);
  std::string previous((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (previous.empty()) {
    std::ofstream(file) << record;
    return -1;
  }
  return previous == record ? 1 : 0;
}

std::string machineLine() {
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " compiler=\"" PAWSBENCH_COMPILER "\" build=" PAWSBENCH_BUILD_TYPE;
}

int usage(const char* msg) {
  std::fprintf(stderr, "pawsbench: %s\nsee pawsbench/main.cpp header\n", msg);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = std::atoi(v.c_str());
    } else if (arg == "--pawsd") {
      o.pawsd = v;
    } else if (arg == "--root") {
      o.root = v;
    } else if (arg == "--state") {
      o.state = v;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  Kind kind;
  if (!pawsbench::kindFromName(o.workload, kind)) {
    return usage("--workload must be cold-pipeline, hot-repeat or "
                 "optimal-oracle");
  }
  if (o.pawsd.empty() || o.seconds <= 0) {
    return usage("--pawsd and a positive --seconds are required");
  }

  // A daemon that dies mid-request must surface as a missing answer, not
  // take the benchmark down with it.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Workload workload(kind, o.seed, o.root);
    pawsbench::SocketConfig sc;
    sc.pawsd = o.pawsd;
    sc.seconds = o.seconds;
    sc.cacheCapacity = kCacheCapacity;
    const pawsbench::SocketResult run = pawsbench::runSocket(workload, sc);
    if (!run.ok) {
      std::fprintf(stderr, "pawsbench: socket run failed: %s\n",
                   run.error.c_str());
      return 2;
    }

    // ---- answer checks -------------------------------------------------
    Checker checker(workload);
    bool warmOk = true;
    for (const Answer& a : run.warmup) {
      warmOk = warmOk && a.outcome == "ok" && checker.check(a, true).pass;
    }
    std::vector<std::string> outcome(run.answers.size());
    std::int64_t servedSum = 0;
    std::int64_t serialSum = 0;
    std::size_t costed = 0;
    for (std::size_t i = 0; i < run.answers.size(); ++i) {
      const Answer& a = run.answers[i];
      outcome[i] = a.outcome;
      if (a.outcome != "ok") continue;
      const Verdict v = checker.check(a, false);
      if (!v.pass) {
        outcome[i] = "check_failed";
      } else if (v.serialMwt >= 0) {
        servedSum += v.servedMwt;
        serialSum += v.serialMwt;
        ++costed;
      }
    }

    // ---- traced replay ---------------------------------------------------
    std::vector<Request> stream;
    if (workload.passes()) {
      for (std::size_t p = 0; p < workload.poolSize(); ++p) {
        stream.push_back(workload.atPosition(p));
      }
    } else {
      for (std::size_t c = 0; c < Workload::clients(); ++c) {
        for (std::size_t i = 0; i < kHotReplayPerClient; ++i) {
          stream.push_back(workload.forClient(c, i));
        }
      }
    }
    std::set<std::string> inStream;
    for (const Request& r : stream) inStream.insert(r.id);

    pawsbench::ReplayPair replayed;
    const pawsbench::ReplayResult& traced = replayed.traced;
    const pawsbench::ReplayResult& plain = replayed.plain;
    std::size_t mismatches = 0;
    std::vector<double> queueWait;
    if (o.trace == 1) {
      replayed = pawsbench::replay(workload.warmup(), stream, kCacheCapacity);
      for (std::size_t i = 0; i < run.answers.size(); ++i) {
        const Answer& a = run.answers[i];
        const auto it = traced.answers.find(a.id);
        if (it == traced.answers.end() || a.outcome == "no_response") {
          continue;
        }
        if (it->second.outcome != a.outcome ||
            it->second.digest != a.digest) {
          ++mismatches;
          outcome[i] = "check_failed";
        }
        queueWait.push_back(std::max(
            0.0, static_cast<double>(a.serviceUs) - it->second.solvePathUs));
      }
      for (const auto& [id, ans] : plain.answers) {
        const auto it = traced.answers.find(id);
        if (it == traced.answers.end() || it->second.outcome != ans.outcome ||
            it->second.digest != ans.digest) {
          ++mismatches;
        }
      }
    }

    // ---- end-to-end metrics ---------------------------------------------
    std::map<std::string, std::size_t> tally;
    for (const char* b : {"ok", "budget", "deadline", "infeasible", "error",
                          "overloaded", "no_response", "check_failed"}) {
      tally[b] = 0;
    }
    std::vector<double> latMs;
    std::vector<double> serviceUs;
    std::vector<double> wireUs;
    std::uint64_t answersFp = paws::kFnv1a64OffsetBasis;
    std::vector<std::string> fpRows;
    for (std::size_t i = 0; i < run.answers.size(); ++i) {
      const Answer& a = run.answers[i];
      ++tally[bucketOf(outcome[i])];
      latMs.push_back(a.latencyUs / 1000);
      if (a.outcome != "no_response") {
        serviceUs.push_back(static_cast<double>(a.serviceUs));
        wireUs.push_back(a.latencyUs - static_cast<double>(a.serviceUs));
      }
      if (inStream.count(a.id) != 0) {
        fpRows.push_back(a.id + " " + outcome[i] + " " + a.digest);
      }
    }
    std::sort(fpRows.begin(), fpRows.end());
    for (const std::string& row : fpRows) {
      answersFp = paws::fnv1a64Append(answersFp, row + "\n");
    }

    const std::size_t sent = run.answers.size();
    const std::size_t okCount = tally["ok"];
    const std::size_t failed = sent - okCount;
    double busy = 0;
    for (double b : run.busySeconds) busy += b;
    busy /= static_cast<double>(Workload::clients());
    // The highest percentile with at least ten samples beyond it in every
    // run: pass workloads answer at least kMinPasses whole passes (and a
    // fixed percentile of whole passes reads the same order statistic of
    // one pass whatever their number); hot-repeat answers tens of
    // thousands of requests.
    const double tailQ =
        workload.passes()
            ? 1.0 - 10.0 / static_cast<double>(workload.poolSize() *
                                               pawsbench::kMinPasses)
            : 0.999;
    const double setupS = median(run.setups);
    const std::vector<Metric> e2e = {
        {"throughput_rps", busy > 0 ? static_cast<double>(okCount) / busy : 0,
         "req/s"},
        {"latency_p50_ms", percentile(latMs, 0.5), "ms"},
        {"latency_tail_ms", percentile(latMs, tailQ), "ms"},
        {"ok_frac", sent ? static_cast<double>(okCount) / sent : 0, "ratio"},
        {"energy_cost_ratio",
         serialSum > 0 ? static_cast<double>(servedSum) / serialSum : 0,
         "ratio"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", static_cast<double>(run.peakRssKb) / 1024.0, "MB"},
    };

    // ---- report ----------------------------------------------------------
    std::printf("pawsbench %s seed=%llu seconds=%g trace=%d clients=%zu "
                "pawsd_threads=2\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace, Workload::clients());
    std::printf("machine: %s\n", machineLine().c_str());
    std::printf("mix: %s\n", workload.describe().c_str());
    std::printf("timed phase: %.3f s, %zu requests%s, warm-up %zu requests "
                "(%s), daemon restarts %zu\n",
                run.elapsedSeconds, sent,
                workload.passes()
                    ? (" in " + std::to_string(run.passes) + " whole passes")
                          .c_str()
                    : "",
                run.warmup.size(), warmOk ? "checked" : "CHECK FAILED",
                run.restarts);
    std::printf("\nend-to-end (socket run, untraced)\n");
    for (const Metric& m : e2e) {
      std::printf("  %-20s %14.6g %s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.name == "latency_tail_ms") {
        std::printf("   (p%g over %zu samples)", tailQ * 100, sent);
      } else if (m.name == "energy_cost_ratio") {
        std::printf("   (over the %zu of %zu ok answers that SerialScheduler "
                    "also schedules)",
                    costed, okCount);
      }
      std::printf("\n");
    }
    std::printf("  %-20s %14.6g ratio   (failed_frac = 1 - ok_frac)\n",
                "failed_frac",
                sent ? static_cast<double>(failed) / sent : 0);
    std::printf("outcomes:");
    for (const auto& [k, n] : tally) std::printf(" %s=%zu", k.c_str(), n);
    std::printf("\n");

    const auto scrapeDelta = [&](const char* name) {
      const auto after = run.scrapeAfter.find(name);
      const double a = after == run.scrapeAfter.end() ? 0 : after->second;
      if (run.restarts > 0) return a;  // counters restarted with the daemon
      const auto before = run.scrapeBefore.find(name);
      return a - (before == run.scrapeBefore.end() ? 0 : before->second);
    };
    std::printf("daemon scrape (after the last response): serve.shed=%g "
                "serve.degraded=%g serve.mode_changes=%g "
                "exec.tasks_rejected=%g exec.tasks_run=%g (may under-count) "
                "cache.hits=%g cache.revalidations=%g cache.insertions=%g "
                "cache.evictions=%g\n",
                scrapeDelta("serve_shed"), scrapeDelta("serve_degraded"),
                scrapeDelta("serve_mode_changes"),
                scrapeDelta("exec_tasks_rejected"),
                scrapeDelta("exec_tasks_run"), scrapeDelta("cache_hits"),
                scrapeDelta("cache_revalidations"),
                scrapeDelta("cache_insertions"),
                scrapeDelta("cache_evictions"));

    const int answersRepeat =
        repeatsPreviousRun(o, "answers", hex64(answersFp) + "\n");

    bool correct = warmOk && tally["check_failed"] == 0;
    if (o.trace == 0) {
      std::printf("answers fingerprint %s (repeat of previous run: %d)\n",
                  hex64(answersFp).c_str(), answersRepeat);
      std::printf("%s\n", jsonLine(correct, sent, failed, e2e).c_str());
      return 0;
    }

    // ---- per-layer table (traced replay) --------------------------------
    const pawsbench::LayerTimes& t = traced.t;
    const paws::obs::MetricsRegistry& reg = traced.registry;
    const double n = static_cast<double>(traced.requests);
    const double accounted = t.total > 0 ? t.selfSum() / t.total : 0;
    const double overhead =
        plain.t.total > 0 ? (t.total - plain.t.total) / plain.t.total : 0;
    std::ostringstream counts;
    counts << "requests=" << traced.requests
           << " exact=" << traced.exactHits << " near=" << traced.nearMisses
           << " budget=" << traced.budgetExhausted
           << " aborts=" << traced.checkAborts
           << " cache.hits=" << traced.cache.hits
           << " cache.insertions=" << traced.cache.insertions
           << " cache.evictions=" << traced.cache.evictions
           << " cache.revalidations=" << traced.cache.revalidations
           << " cache.warm_starts=" << traced.cache.warmStarts;
    for (const auto& [name, value] : reg.counters()) {
      counts << " " << name << "=" << value;
    }
    counts << "\n";
    const int countsRepeat = repeatsPreviousRun(o, "counts", counts.str());

    struct Row {
      const char* layer;
      Metric m;
      const char* moves;
    };
    const char* hotP50 = "hot-repeat latency_p50_ms";
    const std::vector<Row> rows = {
        {"serve", {"serve.frame_us", t.frame, "us"}, hotP50},
        {"serve", {"serve.request_parse_us", t.requestParse, "us"}, hotP50},
        {"serve", {"serve.response_encode_us", t.responseEncode, "us"}, hotP50},
        {"serve", {"serve.wire_us_p50", median(wireUs), "us"}, hotP50},
        {"serve", {"serve.service_us_p50", percentile(serviceUs, 0.5), "us"},
         "latency_p50_ms"},
        {"serve", {"serve.service_us_p99", percentile(serviceUs, 0.99), "us"},
         "latency_tail_ms"},
        {"serve", {"serve.shed", scrapeDelta("serve_shed"), "count"},
         "ok_frac (expected 0)"},
        {"serve", {"serve.degraded", scrapeDelta("serve_degraded"), "count"},
         "energy_cost_ratio (expected 0)"},
        {"serve",
         {"serve.mode_changes", scrapeDelta("serve_mode_changes"), "count"},
         "latency_tail_ms (expected 0)"},
        {"serve",
         {"serve.daemon_restarts", static_cast<double>(run.restarts), "count"},
         "ok_frac, throughput_rps"},
        {"exec",
         {"exec.queue_wait_us_p99", percentile(queueWait, 0.99), "us"},
         "latency_tail_ms (expected ~0 at 2 clients)"},
        {"exec",
         {"exec.tasks_rejected", scrapeDelta("exec_tasks_rejected"), "count"},
         "ok_frac (expected 0)"},
        {"exec", {"exec.tasks_run", scrapeDelta("exec_tasks_run"), "count"},
         "none (may under-count; not gated)"},
        {"io", {"io.parse_us", t.ioParse, "us"}, hotP50},
        {"cache", {"cache.canonicalize_us", t.canonicalize, "us"}, hotP50},
        {"cache", {"cache.exact_serve_us", t.exactServe, "us"},
         "hot-repeat throughput_rps"},
        {"cache", {"cache.resolver_self_us", t.resolverSelf, "us"},
         "hot-repeat throughput_rps"},
        {"cache",
         {"cache.hit_ratio", n > 0 ? traced.cache.hits / n : 0, "ratio"},
         "hot-repeat throughput_rps"},
        {"cache",
         {"cache.exact_hit_share", n > 0 ? traced.exactHits / n : 0, "ratio"},
         "hot-repeat throughput_rps"},
        {"cache",
         {"cache.near_miss_share", n > 0 ? traced.nearMisses / n : 0, "ratio"},
         "hot-repeat throughput_rps"},
        {"cache",
         {"cache.revalidations",
          static_cast<double>(traced.cache.revalidations), "count"},
         "hot-repeat throughput_rps"},
        {"cache",
         {"cache.warm_starts", static_cast<double>(traced.cache.warmStarts),
          "count"},
         "optimal-oracle throughput_rps"},
        {"cache",
         {"cache.insertions", static_cast<double>(traced.cache.insertions),
          "count"},
         "cold-pipeline latency_tail_ms, peak_rss_mb"},
        {"cache",
         {"cache.evictions", scrapeDelta("cache_evictions"), "count"},
         "cold-pipeline latency_tail_ms, peak_rss_mb"},
        {"sched", {"sched.pipeline_us", t.pipeline, "us"},
         "cold-pipeline throughput_rps"},
        {"sched", {"sched.timing_us", t.timing, "us"},
         "cold-pipeline throughput_rps, latency_tail_ms"},
        {"sched", {"sched.max_power_us", t.maxPower, "us"},
         "cold-pipeline latency_p50_ms"},
        {"sched", {"sched.min_power_us", t.minPower, "us"},
         "cold-pipeline latency_p50_ms"},
        {"sched",
         {"sched.backtracks",
          static_cast<double>(reg.counter("search.backtracks")), "count"},
         "cold-pipeline throughput_rps, latency_tail_ms"},
        {"sched",
         {"sched.budget_exhausted",
          static_cast<double>(traced.budgetExhausted), "count"},
         "cold-pipeline ok_frac, latency_tail_ms"},
        {"sched", {"sched.exhaustive_us", t.exhaustive, "us"},
         "optimal-oracle throughput_rps, latency_tail_ms"},
        {"sched",
         {"sched.exhaustive_nodes",
          static_cast<double>(reg.counter("exhaustive.nodes")), "count"},
         "optimal-oracle throughput_rps"},
        {"sched",
         {"sched.pruned_bound",
          static_cast<double>(reg.counter("exhaustive.pruned_bound")),
          "count"},
         "optimal-oracle throughput_rps"},
        {"sched",
         {"sched.check_aborts", static_cast<double>(traced.checkAborts),
          "count"},
         "ok_frac"},
        {"graph",
         {"graph.longest_path_runs",
          static_cast<double>(reg.counter("longest_path.runs")), "count"},
         "cold-pipeline throughput_rps"},
        {"graph", {"graph.longest_path_us", t.longestPath, "us"},
         "cold-pipeline throughput_rps"},
        {"power",
         {"power.profile_updates",
          static_cast<double>(reg.counter("profile.incremental_updates")),
          "count"},
         "optimal-oracle throughput_rps"},
        {"validate", {"validate.us", t.validate, "us"}, hotP50},
        {"trace", {"trace.requests", n, "count"}, "-"},
        {"trace", {"trace.request_wall_us", t.total, "us"}, "-"},
        {"trace", {"trace.accounted_frac", accounted, "ratio"}, "-"},
        {"trace", {"trace.overhead_frac", overhead, "ratio"}, "-"},
        {"trace",
         {"trace.counts_repeat", static_cast<double>(countsRepeat), "flag"},
         "-"},
        {"check",
         {"check.answers_repeat", static_cast<double>(answersRepeat), "flag"},
         "-"},
        {"check",
         {"check.replay_mismatches", static_cast<double>(mismatches),
          "count"},
         "ok_frac"},
    };
    std::printf("\nper-layer (traced in-process replay of %zu requests; "
                "times are sums over them; self times account for %.1f%% of "
                "the request wall time, bound +-%.0f%%: %s)\n",
                traced.requests, accounted * 100, kAccountingBound * 100,
                std::abs(accounted - 1) <= kAccountingBound ? "met"
                                                            : "NOT MET");
    std::printf("  %-9s %-26s %16s %-6s %s\n", "layer", "metric", "value",
                "unit", "should move");
    std::vector<Metric> perLayer;
    for (const Row& r : rows) {
      std::printf("  %-9s %-26s %16.6g %-6s %s\n", r.layer, r.m.name.c_str(),
                  r.m.value, r.m.unit.c_str(), r.moves);
      perLayer.push_back(r.m);
    }
    std::printf("exact counts: %s", counts.str().c_str());
    std::printf("exact counts repeat previous run of this seed: %d; answers "
                "fingerprint %s repeats: %d (1 yes, 0 no, -1 first run)\n",
                countsRepeat, hex64(answersFp).c_str(), answersRepeat);
    correct = correct && mismatches == 0;
    std::printf("%s\n", jsonLine(correct, sent, failed, perLayer).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pawsbench: %s\n", e.what());
    return 2;
  }
}
