#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/context.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"

namespace paws::obs {
namespace {

constexpr TraceEventKind kAllKinds[] = {
    TraceEventKind::kPhase,        TraceEventKind::kLongestPath,
    TraceEventKind::kCandidate,    TraceEventKind::kBacktrack,
    TraceEventKind::kDelay,        TraceEventKind::kLock,
    TraceEventKind::kRecursion,    TraceEventKind::kMoveAccepted,
    TraceEventKind::kMoveRejected, TraceEventKind::kScanPass,
    TraceEventKind::kIteration,
};

TEST(TraceEventKindTest, EveryKindHasAUniqueName) {
  std::vector<std::string> names;
  for (const TraceEventKind k : kAllKinds) {
    const std::string name = toString(k);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    for (const std::string& seen : names) EXPECT_NE(name, seen);
    names.push_back(name);
  }
}

TEST(TraceSinkTest, InstantStampsMonotonicTimesAndPayload) {
  TraceSink sink;
  EXPECT_TRUE(sink.empty());
  sink.instant(TraceEventKind::kDelay, 3, 17, 5, 2, "why");
  sink.instant(TraceEventKind::kLock, 4);
  ASSERT_EQ(sink.size(), 2u);
  const TraceEvent& d = sink.events()[0];
  EXPECT_EQ(d.kind, TraceEventKind::kDelay);
  EXPECT_EQ(d.task, 3u);
  EXPECT_EQ(d.at, 17);
  EXPECT_EQ(d.value, 5);
  EXPECT_EQ(d.depth, 2u);
  EXPECT_STREQ(d.label, "why");
  EXPECT_EQ(d.durNs, 0);
  EXPECT_GE(d.tsNs, 0);
  const TraceEvent& l = sink.events()[1];
  EXPECT_EQ(l.task, 4u);
  EXPECT_GE(l.tsNs, d.tsNs);
}

TEST(TraceSinkTest, SpanRecordsDurationVerbatim) {
  TraceSink sink;
  sink.span(TraceEventKind::kLongestPath, 100, 250, "full", 1, 42);
  ASSERT_EQ(sink.size(), 1u);
  const TraceEvent& e = sink.events()[0];
  EXPECT_EQ(e.tsNs, 100);
  EXPECT_EQ(e.durNs, 250);
  EXPECT_EQ(e.value, 42);
  EXPECT_EQ(e.task, TraceEvent::kNoTask);
}

TEST(TraceSinkTest, CapDropsAndCountsInsteadOfGrowing) {
  TraceSink sink(/*maxEvents=*/2);
  sink.instant(TraceEventKind::kCandidate, 1);
  sink.instant(TraceEventKind::kCandidate, 2);
  EXPECT_EQ(sink.droppedEvents(), 0u);
  sink.instant(TraceEventKind::kCandidate, 3);
  sink.span(TraceEventKind::kPhase, 0, 10, "late");
  EXPECT_EQ(sink.size(), 2u);  // held events stop at the cap
  EXPECT_EQ(sink.droppedEvents(), 2u);
  EXPECT_EQ(sink.events()[1].task, 2u);  // the first two survived verbatim

  // The dropped line surfaces in the summary only when events were lost.
  TraceSink tiny(1);
  tiny.instant(TraceEventKind::kDelay);
  tiny.instant(TraceEventKind::kDelay);
  MetricsRegistry metrics;
  const std::string summary = renderObsSummary(metrics, &tiny);
  EXPECT_NE(summary.find("dropped (cap 1 events): 1"), std::string::npos);
  TraceSink roomy(2);
  roomy.instant(TraceEventKind::kDelay);
  EXPECT_EQ(renderObsSummary(metrics, &roomy).find("dropped"),
            std::string::npos);
}

TEST(TraceMacrosTest, NullSinkIsANoOp) {
  TraceSink* sink = nullptr;
  // Must compile and do nothing — this is the disabled-by-default hot path.
  PAWS_TRACE_INSTANT(sink, TraceEventKind::kBacktrack, 1);
  PAWS_TRACE_SPAN(sink, TraceEventKind::kPhase, 0, 10, "p");
  TraceSink real;
  PAWS_TRACE_INSTANT(&real, TraceEventKind::kBacktrack, 1);
  EXPECT_EQ(real.size(), 1u);
}

TEST(ObsContextTest, EnabledAndInheritance) {
  ObsContext none;
  EXPECT_FALSE(none.enabled());

  TraceSink sink;
  MetricsRegistry metrics;
  ObsContext parent{&sink, &metrics};
  EXPECT_TRUE(parent.enabled());

  ObsContext child;
  child.inheritFrom(parent);
  EXPECT_EQ(child.trace, &sink);
  EXPECT_EQ(child.metrics, &metrics);

  // Explicitly-set hooks are not clobbered.
  MetricsRegistry mine;
  ObsContext custom;
  custom.metrics = &mine;
  custom.inheritFrom(parent);
  EXPECT_EQ(custom.metrics, &mine);
  EXPECT_EQ(custom.trace, &sink);
}

TEST(PhaseTimerTest, RecordsSpanAndHistogramOnce) {
  TraceSink sink;
  MetricsRegistry metrics;
  ObsContext obs{&sink, &metrics};
  {
    PhaseTimer timer(obs, "unit-test", 3);
    timer.finish();
    timer.finish();  // idempotent; the destructor adds nothing either
  }
  ASSERT_EQ(sink.size(), 1u);
  const TraceEvent& e = sink.events()[0];
  EXPECT_EQ(e.kind, TraceEventKind::kPhase);
  EXPECT_STREQ(e.label, "unit-test");
  EXPECT_EQ(e.depth, 3u);
  EXPECT_GE(e.durNs, 0);
  EXPECT_EQ(metrics.histogram("phase.unit-test.wall_us").count, 1u);
}

TEST(PhaseTimerTest, CustomKindLandsInTheEvent) {
  TraceSink sink;
  ObsContext obs{&sink, nullptr};
  { PhaseTimer timer(obs, "iter", 7, TraceEventKind::kIteration); }
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.events()[0].kind, TraceEventKind::kIteration);
}

TEST(PhaseTimerTest, DisabledContextRecordsNothing) {
  ObsContext obs;
  { PhaseTimer timer(obs, "ghost"); }
  // Nothing to assert against — the test is that this neither crashes nor
  // dereferences the null hooks (ASan/UBSan builds verify the latter).
  SUCCEED();
}

TEST(SearchTraceJsonTest, SpansInstantsAndRowMetadata) {
  TraceSink sink;
  sink.span(TraceEventKind::kPhase, 1500, 2500, "timing");
  sink.instant(TraceEventKind::kDelay, 2, 10, 4, 1);
  std::ostringstream os;
  writeSearchTraceJson(os, sink);
  const std::string json = os.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  // The phase span keeps its label as the event name and carries a dur.
  EXPECT_NE(json.find("{\"name\":\"timing\",\"cat\":\"search\",\"ph\":\"X\","
                      "\"pid\":1,\"tid\":1,\"ts\":1.500,\"dur\":2.500"),
            std::string::npos);
  // The delay instant: ph "i", max-power row, thread scope, task payload.
  EXPECT_NE(json.find("{\"name\":\"delay\",\"cat\":\"search\",\"ph\":\"i\","
                      "\"pid\":1,\"tid\":4"),
            std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"task\":2"), std::string::npos);
  // One thread_name metadata record per populated row.
  EXPECT_NE(json.find("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":1,\"args\":{\"name\":\"phases\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"max-power decisions\""), std::string::npos);
}

TEST(SearchTraceJsonlTest, OneObjectPerLineInRecordingOrder) {
  TraceSink sink;
  sink.instant(TraceEventKind::kCandidate, 1, 0, 0, 2);
  sink.span(TraceEventKind::kLongestPath, 10, 20, "incremental", 0, 9);
  std::ostringstream os;
  writeSearchTraceJsonl(os, sink);
  const std::string jsonl = os.str();

  const auto newline = jsonl.find('\n');
  ASSERT_NE(newline, std::string::npos);
  const std::string first = jsonl.substr(0, newline);
  EXPECT_EQ(first.rfind("{\"kind\":\"candidate\"", 0), 0u);
  EXPECT_NE(first.find("\"task\":1"), std::string::npos);
  EXPECT_NE(first.find("\"depth\":2"), std::string::npos);
  const std::string second = jsonl.substr(newline + 1);
  EXPECT_EQ(second.rfind("{\"kind\":\"longest-path\"", 0), 0u);
  EXPECT_NE(second.find("\"ts_ns\":10"), std::string::npos);
  EXPECT_NE(second.find("\"dur_ns\":20"), std::string::npos);
  EXPECT_NE(second.find("\"label\":\"incremental\""), std::string::npos);
  // Untasked events omit the task field entirely.
  EXPECT_EQ(second.find("\"task\""), std::string::npos);
}

TEST(ObsSummaryTest, CombinesMetricsTableAndEventDigest) {
  MetricsRegistry metrics;
  metrics.add("search.delays", 2);
  TraceSink sink;
  sink.instant(TraceEventKind::kDelay);
  sink.instant(TraceEventKind::kDelay);
  sink.instant(TraceEventKind::kScanPass);
  const std::string summary = renderObsSummary(metrics, &sink);
  EXPECT_NE(summary.find("search.delays"), std::string::npos);
  EXPECT_NE(summary.find("trace (3 events):"), std::string::npos);
  EXPECT_NE(summary.find("delay: 2"), std::string::npos);
  EXPECT_NE(summary.find("scan-pass: 1"), std::string::npos);
  // Without a sink the digest is omitted.
  EXPECT_EQ(renderObsSummary(metrics, nullptr).find("trace ("),
            std::string::npos);
}

}  // namespace
}  // namespace paws::obs
