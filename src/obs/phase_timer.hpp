// PhaseTimer — RAII wall-clock span around one pipeline phase.
//
// On construction it reads std::chrono::steady_clock (only when the
// context is enabled); on destruction it records
//   * a kPhase span in the TraceSink (chrome://tracing row), and
//   * an observation in the MetricsRegistry histogram
//     "phase.<name>.wall_us" (microseconds).
//
// Phases are coarse: a handful per scheduler run.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace paws::obs {

class PhaseTimer {
 public:
  /// `name` must be static-storage text (it lands in TraceEvent::label).
  /// `kind` defaults to kPhase; the runtime executor passes kIteration so
  /// its spans land on their own chrome://tracing row.
  explicit PhaseTimer(const ObsContext& obs, const char* name,
                      std::uint32_t depth = 0,
                      TraceEventKind kind = TraceEventKind::kPhase)
      : obs_(obs), name_(name), depth_(depth), kind_(kind) {
    if (obs_.enabled()) start_ = std::chrono::steady_clock::now();
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() { finish(); }

  /// Ends the span early (idempotent); the destructor becomes a no-op.
  void finish() {
    if (finished_ || !obs_.enabled()) {
      finished_ = true;
      return;
    }
    finished_ = true;
    const auto end = std::chrono::steady_clock::now();
    const std::int64_t durNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count();
    if (obs_.trace != nullptr) {
      // Align the span's start to the sink's epoch.
      obs_.trace->span(kind_, obs_.trace->nowNs() - durNs, durNs, name_,
                       depth_);
    }
    if (obs_.metrics != nullptr) {
      obs_.metrics->observe(std::string("phase.") + name_ + ".wall_us",
                            static_cast<double>(durNs) / 1000.0);
    }
  }

 private:
  ObsContext obs_;
  const char* name_;
  std::uint32_t depth_;
  TraceEventKind kind_;
  std::chrono::steady_clock::time_point start_{};
  bool finished_ = false;
};

}  // namespace paws::obs
