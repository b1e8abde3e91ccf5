#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.hpp"

namespace paws::obs {
namespace {

TEST(MetricsRegistryTest, CountersCreateAtZeroAndAccumulate) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter("search.backtracks"), 0u);
  EXPECT_FALSE(m.has("search.backtracks"));
  m.add("search.backtracks");
  m.add("search.backtracks", 4);
  EXPECT_EQ(m.counter("search.backtracks"), 5u);
  EXPECT_TRUE(m.has("search.backtracks"));
  EXPECT_EQ(m.size(), 1u);
}

TEST(MetricsRegistryTest, GaugesAreLastWriteWins) {
  MetricsRegistry m;
  EXPECT_EQ(m.gauge("pipeline.status"), 0.0);
  m.set("pipeline.status", 2.0);
  m.set("pipeline.status", 3.0);
  EXPECT_EQ(m.gauge("pipeline.status"), 3.0);
}

TEST(MetricsRegistryTest, HistogramsTrackCountSumMinMax) {
  MetricsRegistry m;
  m.observe("phase.timing.wall_us", 10.0);
  m.observe("phase.timing.wall_us", 30.0);
  m.observe("phase.timing.wall_us", 20.0);
  const auto h = m.histogram("phase.timing.wall_us");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.sum, 60.0);
  EXPECT_DOUBLE_EQ(h.min, 10.0);
  EXPECT_DOUBLE_EQ(h.max, 30.0);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_EQ(m.histogram("phase.absent.wall_us").count, 0u);
  EXPECT_DOUBLE_EQ(m.histogram("phase.absent.wall_us").mean(), 0.0);
}

TEST(MetricsRegistryTest, NamesAreSharedAcrossKindsOnlyByFamily) {
  // The three families are independent maps: the same name in two families
  // counts twice in size(). Instrumentation uses disjoint names, but the
  // registry itself must not conflate them.
  MetricsRegistry m;
  m.add("x");
  m.set("x", 7.0);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.counter("x"), 1u);
  EXPECT_DOUBLE_EQ(m.gauge("x"), 7.0);
}

TEST(MetricsRegistryTest, MergeAddsCountersOverwritesGaugesMergesHistograms) {
  MetricsRegistry a, b;
  a.add("c", 2);
  b.add("c", 3);
  a.set("g", 1.0);
  b.set("g", 9.0);
  a.observe("h", 1.0);
  b.observe("h", 5.0);
  b.observe("only_b", 2.0);
  a += b;
  EXPECT_EQ(a.counter("c"), 5u);
  EXPECT_DOUBLE_EQ(a.gauge("g"), 9.0);
  EXPECT_EQ(a.histogram("h").count, 2u);
  EXPECT_DOUBLE_EQ(a.histogram("h").min, 1.0);
  EXPECT_DOUBLE_EQ(a.histogram("h").max, 5.0);
  EXPECT_EQ(a.histogram("only_b").count, 1u);
}

TEST(MetricsRegistryTest, CsvIsSortedWithHeaderAndOneRowPerMetric) {
  MetricsRegistry m;
  m.add("b.counter", 7);
  m.set("a.gauge", 2.5);
  m.observe("c.hist", 4.0);
  std::ostringstream os;
  m.writeCsv(os);
  const std::string csv = os.str();
  EXPECT_EQ(
      csv.rfind("name,kind,value,count,sum,min,max,mean,p50,p90,p99\n", 0),
      0u);
  // Sorted by name: gauge, counter, histogram.
  const auto ga = csv.find("a.gauge,gauge,2.500");
  const auto co = csv.find("b.counter,counter,7");
  const auto hi = csv.find("c.hist,histogram,");
  ASSERT_NE(ga, std::string::npos);
  ASSERT_NE(co, std::string::npos);
  ASSERT_NE(hi, std::string::npos);
  EXPECT_LT(ga, co);
  EXPECT_LT(co, hi);
}

TEST(MetricsRegistryTest, MergingAnEmptyHistogramKeepsMinMax) {
  // Regression guard: an empty summary's default min/max are zero, and a
  // naive merge would clobber the real envelope with them.
  MetricsRegistry a, b;
  a.observe("h", 5.0);
  a.observe("h", 9.0);
  b.add("unrelated");  // b has no "h" histogram at all
  a += b;
  EXPECT_DOUBLE_EQ(a.histogram("h").min, 5.0);
  EXPECT_DOUBLE_EQ(a.histogram("h").max, 9.0);

  // Same via an explicit empty summary on the left: merge into empty
  // adopts the non-empty side's envelope verbatim.
  MetricsRegistry::HistogramSummary empty;
  MetricsRegistry::HistogramSummary full;
  full.observe(5.0);
  full.observe(9.0);
  empty.merge(full);
  EXPECT_DOUBLE_EQ(empty.min, 5.0);
  EXPECT_DOUBLE_EQ(empty.max, 9.0);
  EXPECT_EQ(empty.count, 2u);
  // And merging empty into full is a no-op.
  MetricsRegistry::HistogramSummary full2 = full;
  full2.merge(MetricsRegistry::HistogramSummary{});
  EXPECT_EQ(full2, full);
}

TEST(MetricsRegistryTest, MergeKeepsGaugeOverwriteVsCounterAddApart) {
  // Explicit semantics check: += must ADD counters but OVERWRITE gauges,
  // even when both families hold the same name.
  MetricsRegistry a, b;
  a.add("x", 10);
  a.set("x", 1.5);
  b.add("x", 32);
  b.set("x", 2.5);
  a += b;
  EXPECT_EQ(a.counter("x"), 42u);
  EXPECT_DOUBLE_EQ(a.gauge("x"), 2.5);
  // A gauge missing from the right side keeps its left value (overwrite
  // only happens when the right side actually carries the name).
  MetricsRegistry c;
  c.set("only_left", 7.0);
  c += MetricsRegistry{};
  EXPECT_DOUBLE_EQ(c.gauge("only_left"), 7.0);
}

TEST(HistogramSummaryTest, BucketIndexFollowsLog2Bounds) {
  using H = MetricsRegistry::HistogramSummary;
  EXPECT_EQ(H::bucketIndex(-3.0), 0u);
  EXPECT_EQ(H::bucketIndex(0.0), 0u);
  EXPECT_EQ(H::bucketIndex(0.5), 0u);
  EXPECT_EQ(H::bucketIndex(1.0), 1u);   // [1, 2)
  EXPECT_EQ(H::bucketIndex(1.99), 1u);
  EXPECT_EQ(H::bucketIndex(2.0), 2u);   // [2, 4)
  EXPECT_EQ(H::bucketIndex(3.0), 2u);
  EXPECT_EQ(H::bucketIndex(4.0), 3u);   // [4, 8)
  EXPECT_EQ(H::bucketIndex(1024.0), 11u);
  EXPECT_EQ(H::bucketIndex(9e18), H::kNumBuckets - 1);
  // Bounds invert the index: every bucket's lower bound lands back in it.
  for (std::size_t i = 1; i + 1 < H::kNumBuckets; ++i) {
    EXPECT_EQ(H::bucketIndex(H::bucketLowerBound(i)), i) << i;
  }
}

TEST(HistogramSummaryTest, QuantilesAreExactAtEnvelopeAndOrdered) {
  MetricsRegistry m;
  for (int i = 1; i <= 100; ++i) m.observe("h", static_cast<double>(i));
  const auto h = m.histogram("h");
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  const double p50 = h.quantile(0.5);
  const double p90 = h.quantile(0.9);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log2 buckets are factor-of-2 resolution: p50 of 1..100 is in [32, 64),
  // p90/p99 in [64, 100].
  EXPECT_GE(p50, 32.0);
  EXPECT_LT(p50, 64.0);
  EXPECT_GE(p90, 64.0);
  EXPECT_LE(p99, 100.0);
  // Degenerate cases: empty -> 0, single observation -> itself.
  EXPECT_DOUBLE_EQ(MetricsRegistry::HistogramSummary{}.quantile(0.5), 0.0);
  MetricsRegistry::HistogramSummary one;
  one.observe(17.0);
  EXPECT_DOUBLE_EQ(one.quantile(0.5), 17.0);
}

TEST(MetricsRegistryTest, SetHistogramInstallsACompleteSummary) {
  MetricsRegistry m;
  MetricsRegistry::HistogramSummary h;
  h.observe(3.0);
  h.observe(11.0);
  m.setHistogram("imported", h);
  EXPECT_EQ(m.histogram("imported"), h);
  // Replaces, not merges.
  MetricsRegistry::HistogramSummary other;
  other.observe(100.0);
  m.setHistogram("imported", other);
  EXPECT_EQ(m.histogram("imported").count, 1u);
  EXPECT_DOUBLE_EQ(m.histogram("imported").max, 100.0);
}

TEST(MetricsRegistryTest, RenderTableMentionsEveryMetric) {
  MetricsRegistry m;
  m.add("search.delays", 12);
  m.observe("phase.timing.wall_us", 3.0);
  const std::string table = m.renderTable();
  EXPECT_NE(table.find("search.delays"), std::string::npos);
  EXPECT_NE(table.find("phase.timing.wall_us"), std::string::npos);
  EXPECT_NE(table.find("12"), std::string::npos);
}

}  // namespace
}  // namespace paws::obs
