// Search-level tracing: typed events describing what the schedulers *did*
// (candidates tried, backtracks, delay/lock decisions, min-power moves,
// longest-path runs), each stamped with a steady_clock time so the search
// can be replayed on a wall-clock timeline in chrome://tracing.
//
// This traces the *search*, not the schedule — io/writer.cpp's
// writeChromeTrace renders the produced schedule; obs/export.hpp renders
// the effort that produced it.
//
// Cost model: every instrumentation site goes through the PAWS_TRACE_*
// macros below, which compile to a single null-pointer check — with no
// sink attached the hot searches run within run-to-run noise of a build
// without the sites (docs/observability.md). The sink itself is a
// single-writer append-only vector — the schedulers are single-threaded,
// so "lock-free-enough" means no locks at all, just no shared mutation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include <chrono>

namespace paws::obs {

/// What happened. Instants mark one decision; spans carry a duration.
enum class TraceEventKind : std::uint8_t {
  kPhase,         ///< span: a named pipeline phase (see PhaseTimer)
  kLongestPath,   ///< span: one Bellman–Ford longest-path run
  kCandidate,     ///< instant: timing scheduler tried a candidate vertex
  kBacktrack,     ///< instant: timing candidate choice undone
  kDelay,         ///< instant: max-power delay decision
  kLock,          ///< instant: max-power lock decision
  kRecursion,     ///< instant: max-power reschedule recursion entered
  kMoveAccepted,  ///< instant: min-power move kept (rho improved)
  kMoveRejected,  ///< instant: min-power move rolled back
  kScanPass,      ///< instant: min-power scan pass started
  kIteration,     ///< span: one runtime-executor iteration
  kServeShed,     ///< instant: pawsd refused a request (overload/drain)
  kServeMode,     ///< instant: pawsd overload ladder changed rung
  kServeDrain,    ///< span: pawsd graceful-drain window
};

const char* toString(TraceEventKind kind);

/// POD event record. Payload fields are kind-specific (documented in
/// docs/observability.md); unused fields stay at their defaults. `label`
/// must point at static-storage text (phase names, literals) — events are
/// recorded on hot paths and never own memory.
struct TraceEvent {
  static constexpr std::uint32_t kNoTask = 0xffffffffu;

  TraceEventKind kind = TraceEventKind::kPhase;
  std::int64_t tsNs = 0;       ///< steady_clock offset from the sink's epoch
  std::int64_t durNs = 0;      ///< spans only; 0 for instants
  std::uint32_t task = kNoTask;  ///< TaskId::value() when a task is involved
  std::int64_t at = 0;         ///< schedule-time payload (ticks)
  std::int64_t value = 0;      ///< kind-specific magnitude
  std::uint32_t depth = 0;     ///< recursion depth / pass / trial index
  const char* label = "";      ///< static-storage annotation
};

/// Append-only, single-writer event buffer with a private steady_clock
/// epoch. Borrowed by every instrumented component via ObsContext.
///
/// Memory is bounded: once `maxEvents` events are held, further records
/// are counted in droppedEvents() and discarded, so an hour-long
/// exhaustive search or campaign cannot grow the sink without limit. The
/// default cap (2^20 events, ~56 MB) is generous — a full satellite-pass
/// pipeline records a few thousand events — and tunable per sink.
class TraceSink {
 public:
  /// Default cap: 2^20 events. Each TraceEvent is 56 bytes, so a full
  /// sink tops out near 56 MB.
  static constexpr std::size_t kDefaultMaxEvents = 1u << 20;

  explicit TraceSink(std::size_t maxEvents = kDefaultMaxEvents)
      : epoch_(std::chrono::steady_clock::now()), maxEvents_(maxEvents) {
    events_.reserve(std::min<std::size_t>(1024, maxEvents));
  }

  /// Nanoseconds since this sink was created (steady clock).
  [[nodiscard]] std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records a pre-built event verbatim (spans stamp their own tsNs).
  void record(const TraceEvent& event) {
    if (admit()) events_.push_back(event);
  }

  /// Records an instant event stamped with the current time.
  void instant(TraceEventKind kind, std::uint32_t task = TraceEvent::kNoTask,
               std::int64_t at = 0, std::int64_t value = 0,
               std::uint32_t depth = 0, const char* label = "") {
    if (!admit()) return;
    TraceEvent e;
    e.kind = kind;
    e.tsNs = nowNs();
    e.task = task;
    e.at = at;
    e.value = value;
    e.depth = depth;
    e.label = label;
    events_.push_back(e);
  }

  /// Records a completed span [startNs, startNs + durNs).
  void span(TraceEventKind kind, std::int64_t startNs, std::int64_t durNs,
            const char* label, std::uint32_t depth = 0,
            std::int64_t value = 0) {
    if (!admit()) return;
    TraceEvent e;
    e.kind = kind;
    e.tsNs = startNs;
    e.durNs = durNs;
    e.depth = depth;
    e.value = value;
    e.label = label;
    events_.push_back(e);
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Events refused because the cap was reached.
  [[nodiscard]] std::uint64_t droppedEvents() const { return dropped_; }
  [[nodiscard]] std::size_t maxEvents() const { return maxEvents_; }

 private:
  [[nodiscard]] bool admit() {
    if (events_.size() < maxEvents_) return true;
    ++dropped_;
    return false;
  }

  std::chrono::steady_clock::time_point epoch_;
  const std::size_t maxEvents_;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace paws::obs

/// Instant event through a possibly-null TraceSink*.
#define PAWS_TRACE_INSTANT(sink, ...)                       \
  do {                                                      \
    if ((sink) != nullptr) (sink)->instant(__VA_ARGS__);    \
  } while (0)
/// Completed span through a possibly-null TraceSink*.
#define PAWS_TRACE_SPAN(sink, ...)                          \
  do {                                                      \
    if ((sink) != nullptr) (sink)->span(__VA_ARGS__);       \
  } while (0)
