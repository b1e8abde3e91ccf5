#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

namespace paws::obs {

namespace {

/// Prints doubles compactly: integers without a fraction, otherwise three
/// decimals — keeps CSV diffable and the summary table readable.
void printNumber(std::ostream& os, double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
  } else {
    os << std::fixed << std::setprecision(3) << v
       << std::defaultfloat << std::setprecision(6);
  }
}

}  // namespace

std::size_t MetricsRegistry::HistogramSummary::bucketIndex(double value) {
  if (!(value >= 1.0)) return 0;  // < 1, zero, negative, NaN
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp with m in [0.5, 1)
  // value in [2^(exp-1), 2^exp) -> bucket exp, clamped to the top bucket.
  if (exp < 1) return 1;
  return std::min<std::size_t>(static_cast<std::size_t>(exp),
                               kNumBuckets - 1);
}

double MetricsRegistry::HistogramSummary::bucketLowerBound(std::size_t i) {
  if (i == 0) return -std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i) - 1);  // 2^(i-1)
}

double MetricsRegistry::HistogramSummary::bucketUpperBound(std::size_t i) {
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i));  // 2^i
}

void MetricsRegistry::HistogramSummary::observe(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  ++buckets[bucketIndex(value)];
}

void MetricsRegistry::HistogramSummary::merge(const HistogramSummary& other) {
  if (other.count == 0) return;  // nothing observed: no envelope to widen
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
}

double MetricsRegistry::HistogramSummary::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The envelope is tracked exactly; the buckets only refine the interior.
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank of the q-th observation, 1-based (nearest-rank definition).
  const std::uint64_t target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (cumulative + buckets[i] < target) {
      cumulative += buckets[i];
      continue;
    }
    // The target rank lands in bucket i: interpolate linearly between the
    // bucket bounds, clamped to the exact observed envelope.
    const double lo = std::max(bucketLowerBound(i), min);
    const double hi = std::min(bucketUpperBound(i), max);
    if (!(hi > lo)) return std::clamp(lo, min, max);
    const double within = (static_cast<double>(target - cumulative) - 0.5) /
                          static_cast<double>(buckets[i]);
    return std::clamp(lo + within * (hi - lo), min, max);
  }
  return max;
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::set(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

double MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), HistogramSummary{}).first;
  }
  it->second.observe(value);
}

void MetricsRegistry::setHistogram(std::string_view name,
                                   const HistogramSummary& summary) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(name), summary);
  } else {
    it->second = summary;
  }
}

MetricsRegistry::HistogramSummary MetricsRegistry::histogram(
    std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? HistogramSummary{} : it->second;
}

bool MetricsRegistry::has(std::string_view name) const {
  return counters_.find(name) != counters_.end() ||
         gauges_.find(name) != gauges_.end() ||
         histograms_.find(name) != histograms_.end();
}

std::size_t MetricsRegistry::size() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricsRegistry& MetricsRegistry::operator+=(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) add(name, v);
  for (const auto& [name, v] : other.gauges_) set(name, v);
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, HistogramSummary{}).first;
    }
    it->second.merge(h);
  }
  return *this;
}

void MetricsRegistry::writeCsv(std::ostream& os) const {
  os << "name,kind,value,count,sum,min,max,mean,p50,p90,p99\n";
  // Merge the three families into one name-sorted listing.
  struct Row {
    std::string_view name;
    int family;  // 0 counter, 1 gauge, 2 histogram
  };
  std::vector<Row> rows;
  rows.reserve(size());
  for (const auto& [name, v] : counters_) rows.push_back({name, 0});
  for (const auto& [name, v] : gauges_) rows.push_back({name, 1});
  for (const auto& [name, h] : histograms_) rows.push_back({name, 2});
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });

  for (const Row& row : rows) {
    os << row.name << ',';
    switch (row.family) {
      case 0:
        os << "counter," << counters_.find(row.name)->second << ",,,,,,,,\n";
        break;
      case 1:
        os << "gauge,";
        printNumber(os, gauges_.find(row.name)->second);
        os << ",,,,,,,,\n";
        break;
      default: {
        const HistogramSummary& h = histograms_.find(row.name)->second;
        os << "histogram,," << h.count << ',';
        printNumber(os, h.sum);
        os << ',';
        printNumber(os, h.min);
        os << ',';
        printNumber(os, h.max);
        os << ',';
        printNumber(os, h.mean());
        os << ',';
        printNumber(os, h.quantile(0.50));
        os << ',';
        printNumber(os, h.quantile(0.90));
        os << ',';
        printNumber(os, h.quantile(0.99));
        os << "\n";
        break;
      }
    }
  }
}

std::string MetricsRegistry::renderTable() const {
  std::ostringstream os;
  if (!counters_.empty() || !gauges_.empty()) {
    os << "metrics:\n";
    for (const auto& [name, v] : counters_) {
      os << "  " << std::left << std::setw(34) << name << std::right
         << std::setw(12) << v << "\n";
    }
    for (const auto& [name, v] : gauges_) {
      os << "  " << std::left << std::setw(34) << name << std::right
         << std::setw(12);
      printNumber(os, v);
      os << "\n";
    }
  }
  if (!histograms_.empty()) {
    os << "timings (and other distributions):\n";
    os << "  " << std::left << std::setw(34) << "name" << std::right
       << std::setw(7) << "count" << std::setw(11) << "mean"
       << std::setw(11) << "p50" << std::setw(11) << "p90" << std::setw(11)
       << "p99" << std::setw(11) << "max" << std::setw(13) << "total"
       << "\n";
    for (const auto& [name, h] : histograms_) {
      os << "  " << std::left << std::setw(34) << name << std::right
         << std::setw(7) << h.count << std::setw(11);
      printNumber(os, h.mean());
      os << std::setw(11);
      printNumber(os, h.quantile(0.50));
      os << std::setw(11);
      printNumber(os, h.quantile(0.90));
      os << std::setw(11);
      printNumber(os, h.quantile(0.99));
      os << std::setw(11);
      printNumber(os, h.max);
      os << std::setw(13);
      printNumber(os, h.sum);
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace paws::obs
