#include "obs/incumbents.hpp"

namespace paws::obs {

IncumbentLog::IncumbentLog() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t IncumbentLog::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool IncumbentLog::record(std::int64_t costMwt) {
  return recordAt(nowNs(), costMwt);
}

bool IncumbentLog::recordAt(std::int64_t tsNs, std::int64_t costMwt) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!points_.empty() && costMwt >= points_.back().costMwt) return false;
  points_.push_back(IncumbentPoint{tsNs, costMwt});
  return true;
}

std::vector<IncumbentPoint> IncumbentLog::points() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return points_;
}

std::size_t IncumbentLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return points_.size();
}

}  // namespace paws::obs
