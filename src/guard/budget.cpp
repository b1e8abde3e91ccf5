#include "guard/budget.hpp"

namespace paws::guard {

const char* toString(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
      return "none";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

RunBudget RunBudget::resolved(std::chrono::steady_clock::time_point now) const {
  RunBudget out = *this;
  if (out.timeout.has_value()) {
    const auto fromTimeout = now + *out.timeout;
    if (!out.deadlineAt.has_value() || fromTimeout < *out.deadlineAt) {
      out.deadlineAt = fromTimeout;
    }
    out.timeout.reset();
  }
  return out;
}

void RunBudget::inheritFrom(const RunBudget& parent) {
  if (!timeout.has_value() && !deadlineAt.has_value()) {
    timeout = parent.timeout;
    deadlineAt = parent.deadlineAt;
  }
  if (!cancel.connected()) cancel = parent.cancel;
}

RunGuard::RunGuard(const RunBudget& budget, std::uint32_t stride)
    : cancel_(budget.cancel), stride_(stride == 0 ? 1 : stride) {
  RunBudget pinned = budget.timeout.has_value() ? budget.resolved() : budget;
  deadline_ = pinned.deadlineAt;
  active_ = deadline_.has_value() || cancel_.connected();
}

StopReason RunGuard::check() {
  if (!active_ || reason_ != StopReason::kNone) return reason_;
  if (cancel_.cancelled()) {
    reason_ = StopReason::kCancelled;
  } else if (deadline_.has_value() &&
             std::chrono::steady_clock::now() >= *deadline_) {
    reason_ = StopReason::kDeadline;
  }
  return reason_;
}

}  // namespace paws::guard
