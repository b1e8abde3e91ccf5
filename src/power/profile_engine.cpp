#include "power/profile_engine.hpp"

#include <algorithm>

#include "base/check.hpp"
#include "model/problem.hpp"
#include "obs/metrics.hpp"

namespace paws::power {

ProfileEngine::ProfileEngine(Watts background, Watts pmin, Watts pmax)
    : background_(background), pmin_(pmin), pmax_(pmax) {}

// ----- segment bookkeeping ----------------------------------------------

Duration ProfileEngine::segmentLength(
    std::map<Time, Watts>::const_iterator it) const {
  const auto next = std::next(it);
  const Time end = next == level_.end() ? finish_ : next->first;
  return end - it->first;
}

void ProfileEngine::registerSegment(Time begin, Watts level) {
  if (level > pmax_) spikeStarts_.insert(begin);
  if (level < pmin_) gapStarts_.insert(begin);
}

void ProfileEngine::unregisterSegment(Time begin, Watts level) {
  if (level > pmax_) spikeStarts_.erase(begin);
  if (level < pmin_) gapStarts_.erase(begin);
}

void ProfileEngine::energyDelta(Watts level, Duration length, bool add) {
  const Energy a =
      level > pmin_ ? (level - pmin_) * length : Energy::zero();
  const Energy c = std::min(level, pmin_) * length;
  if (add) {
    above_ += a;
    capped_ += c;
  } else {
    above_ = above_ - a;
    capped_ = capped_ - c;
  }
}

void ProfileEngine::splitAt(Time t) {
  if (t <= Time::zero() || t >= finish_) return;
  const auto next = level_.upper_bound(t);
  const auto it = std::prev(next);
  if (it->first == t) return;  // already a breakpoint
  level_.emplace_hint(next, t, it->second);
  registerSegment(t, it->second);  // same level: integrals unchanged
}

void ProfileEngine::coalesceAt(Time t) {
  const auto it = level_.find(t);
  if (it == level_.end() || it == level_.begin()) return;
  if (std::prev(it)->second != it->second) return;
  unregisterSegment(t, it->second);
  level_.erase(it);
}

void ProfileEngine::applyDelta(Time b, Time e, Watts delta) {
  if (delta.isZero() || b >= e) return;
  auto it = level_.find(b);
  PAWS_CHECK(it != level_.end());
  while (it != level_.end() && it->first < e) {
    const Duration len = segmentLength(it);
    const Watts oldLevel = it->second;
    const Watts newLevel = oldLevel + delta;
    energyDelta(oldLevel, len, /*add=*/false);
    energyDelta(newLevel, len, /*add=*/true);
    // The segment's begin key is unchanged, so the spike/gap cursor sets
    // only need touching when the level actually crosses a threshold —
    // the common same-side delta costs no tree operation here.
    const bool wasSpike = oldLevel > pmax_;
    const bool isSpike = newLevel > pmax_;
    if (wasSpike != isSpike) {
      if (isSpike) {
        spikeStarts_.insert(it->first);
      } else {
        spikeStarts_.erase(it->first);
      }
    }
    const bool wasGap = oldLevel < pmin_;
    const bool isGap = newLevel < pmin_;
    if (wasGap != isGap) {
      if (isGap) {
        gapStarts_.insert(it->first);
      } else {
        gapStarts_.erase(it->first);
      }
    }
    it->second = newLevel;
    ++it;
  }
}

void ProfileEngine::extendTo(Time newEnd) {
  if (newEnd <= finish_) return;
  const Time old = finish_;
  finish_ = newEnd;
  if (level_.empty()) {
    level_.emplace(Time::zero(), background_);
    registerSegment(Time::zero(), background_);
    energyDelta(background_, newEnd - Time::zero(), /*add=*/true);
    return;
  }
  level_.emplace(old, background_);
  registerSegment(old, background_);
  energyDelta(background_, newEnd - old, /*add=*/true);
  coalesceAt(old);
}

void ProfileEngine::shrinkTo(Time newEnd) {
  if (newEnd >= finish_) return;
  splitAt(newEnd);  // breakpoint at the new span end, if inside a segment
  auto it = level_.lower_bound(newEnd);
  while (it != level_.end()) {
    PAWS_CHECK_MSG(it->second == background_,
                   "span shrink over a non-background segment at "
                       << it->first);
    energyDelta(it->second, segmentLength(it), /*add=*/false);
    unregisterSegment(it->first, it->second);
    it = level_.erase(it);
  }
  finish_ = newEnd;
}

// ----- mutation ----------------------------------------------------------

void ProfileEngine::addContribution(TaskId v, Interval interval, Watts watts,
                                    bool log) {
  if (v.index() >= tasks_.size()) tasks_.resize(v.index() + 1);
  PAWS_CHECK_MSG(!tasks_[v.index()].present,
                 "task " << v.value() << " already in the profile");
  // Mirror PowerProfileBuilder::add: only contributions that change the
  // level function must start at/after 0; empty/zero ones just extend the
  // span.
  if (!interval.empty() && !watts.isZero()) {
    PAWS_CHECK_MSG(interval.begin() >= Time::zero(),
                   "profile contributions must start at/after 0, got "
                       << interval.begin());
  }
  if (log && openCheckpoints_ > 0) {
    undoLog_.push_back(Undo{Undo::Op::kAdd, v, interval, watts});
  }

  ends_.insert(interval.end());
  if (interval.end() > finish_) extendTo(interval.end());
  if (!interval.empty() && !watts.isZero()) {
    splitAt(interval.begin());
    splitAt(interval.end());
    applyDelta(interval.begin(), interval.end(), watts);
    coalesceAt(interval.begin());
    coalesceAt(interval.end());
  }

  byStart_.emplace(interval.begin(), v);
  if (interval.length() > maxTaskLength_) maxTaskLength_ = interval.length();
  tasks_[v.index()] = Entry{interval, watts, /*present=*/true};
}

void ProfileEngine::removeContribution(TaskId v, bool log) {
  PAWS_CHECK(v.index() < tasks_.size() && tasks_[v.index()].present);
  const Entry entry = tasks_[v.index()];
  if (log && openCheckpoints_ > 0) {
    undoLog_.push_back(
        Undo{Undo::Op::kRemove, v, entry.interval, entry.watts});
  }

  if (!entry.interval.empty() && !entry.watts.isZero()) {
    splitAt(entry.interval.begin());
    splitAt(entry.interval.end());
    applyDelta(entry.interval.begin(), entry.interval.end(), -entry.watts);
    coalesceAt(entry.interval.begin());
    coalesceAt(entry.interval.end());
  }
  ends_.erase(ends_.find(entry.interval.end()));
  // The span is max(0, latest contribution end) — the builder's maxEnd_
  // starts at 0 and only grows, so negative ends never shrink below 0.
  const Time newFinish = std::max(
      Time::zero(), ends_.empty() ? Time::zero() : *ends_.rbegin());
  if (newFinish < finish_) shrinkTo(newFinish);

  const auto range = byStart_.equal_range(entry.interval.begin());
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second == v) {
      byStart_.erase(it);
      break;
    }
  }
  tasks_[v.index()].present = false;
}

void ProfileEngine::addTask(TaskId v, Interval interval, Watts watts) {
  ++updates_;
  addContribution(v, interval, watts, /*log=*/true);
}

void ProfileEngine::removeTask(TaskId v) {
  ++updates_;
  removeContribution(v, /*log=*/true);
}

void ProfileEngine::moveTask(TaskId v, Time newStart) {
  PAWS_CHECK(v.index() < tasks_.size() && tasks_[v.index()].present);
  const Entry entry = tasks_[v.index()];
  const Interval target(newStart, newStart + entry.interval.length());
  if (target == entry.interval) return;
  ++updates_;
  removeContribution(v, /*log=*/true);
  addContribution(v, target, entry.watts, /*log=*/true);
}

void ProfileEngine::clear() {
  PAWS_CHECK_MSG(openCheckpoints_ == 0,
                 "ProfileEngine::clear with an open checkpoint");
  finish_ = Time::zero();
  level_.clear();
  ends_.clear();
  above_ = Energy::zero();
  capped_ = Energy::zero();
  spikeStarts_.clear();
  gapStarts_.clear();
  byStart_.clear();
  maxTaskLength_ = Duration::zero();
  tasks_.clear();
  undoLog_.clear();
}

void ProfileEngine::rebuild(const Problem& problem,
                            const std::vector<Time>& starts) {
  clear();
  ++rebuilds_;
  for (std::size_t i = 1; i < problem.numVertices(); ++i) {
    const TaskId v(static_cast<std::uint32_t>(i));
    const Task& task = problem.task(v);
    addContribution(v, Interval(starts[i], starts[i] + task.delay),
                    task.power, /*log=*/false);
  }
}

// ----- queries -----------------------------------------------------------

bool ProfileEngine::hasTask(TaskId v) const {
  return v.index() < tasks_.size() && tasks_[v.index()].present;
}

Interval ProfileEngine::taskInterval(TaskId v) const {
  PAWS_CHECK(hasTask(v));
  return tasks_[v.index()].interval;
}

Watts ProfileEngine::valueAt(Time t) const {
  if (t < Time::zero() || t >= finish_) return Watts::zero();
  return std::prev(level_.upper_bound(t))->second;
}

double ProfileEngine::utilization() const {
  if (pmin_ <= Watts::zero() || finish_ <= Time::zero()) return 1.0;
  const Energy available = pmin_ * (finish_ - Time::zero());
  return capped_.ratioOf(available);
}

std::optional<Time> ProfileEngine::firstSpike(Time from) const {
  // The spike segment straddling `from`, if any (begin < from < end).
  if (from > Time::zero() && from < finish_) {
    const auto seg = std::prev(level_.upper_bound(from));
    if (seg->first < from && seg->second > pmax_) return from;
  }
  const auto it = spikeStarts_.lower_bound(from);
  if (it != spikeStarts_.end()) return *it;
  return std::nullopt;
}

std::vector<Interval> ProfileEngine::gaps() const {
  std::vector<Interval> result;
  for (const Time begin : gapStarts_) {
    const auto next = level_.upper_bound(begin);
    const Time end = next == level_.end() ? finish_ : next->first;
    if (!result.empty() && result.back().end() == begin) {
      result.back() = Interval(result.back().begin(), end);
    } else {
      result.emplace_back(begin, end);
    }
  }
  return result;
}

std::vector<TaskId> ProfileEngine::activeAt(Time t) const {
  std::vector<TaskId> result;
  if (maxTaskLength_ <= Duration::zero()) return result;
  // Only tasks starting in (t - maxLen, t] can contain t.
  const Time lo = t - maxTaskLength_ + Duration(1);
  for (auto it = byStart_.lower_bound(lo);
       it != byStart_.end() && it->first <= t; ++it) {
    if (tasks_[it->second.index()].interval.contains(t)) {
      result.push_back(it->second);
    }
  }
  std::sort(result.begin(), result.end(),
            [](TaskId a, TaskId b) { return a.value() < b.value(); });
  return result;
}

PowerProfile ProfileEngine::snapshot() const {
  // Adjacent equal-level segments never survive a mutation (coalesceAt),
  // so the breakpoint map is already the merged segment list.
  std::vector<PowerSegment> segments;
  segments.reserve(level_.size());
  for (auto it = level_.begin(); it != level_.end(); ++it) {
    segments.push_back(
        PowerSegment{Interval(it->first, it->first + segmentLength(it)),
                     it->second});
  }
  return PowerProfile::fromSegments(std::move(segments), finish_);
}

// ----- checkpoint / restore ----------------------------------------------

ProfileEngine::Checkpoint ProfileEngine::checkpoint() {
  ++openCheckpoints_;
  return Checkpoint{undoLog_.size()};
}

void ProfileEngine::restore(const Checkpoint& cp) {
  PAWS_CHECK(openCheckpoints_ > 0);
  PAWS_CHECK(undoLog_.size() >= cp.undoSize);
  while (undoLog_.size() > cp.undoSize) {
    const Undo u = undoLog_.back();
    undoLog_.pop_back();
    if (u.op == Undo::Op::kAdd) {
      removeContribution(u.task, /*log=*/false);
    } else {
      addContribution(u.task, u.interval, u.watts, /*log=*/false);
    }
  }
  --openCheckpoints_;
  ++restores_;
  if (openCheckpoints_ == 0) undoLog_.clear();
}

void ProfileEngine::release(const Checkpoint& cp) {
  PAWS_CHECK(openCheckpoints_ > 0);
  PAWS_CHECK(undoLog_.size() >= cp.undoSize);
  --openCheckpoints_;
  if (openCheckpoints_ == 0) undoLog_.clear();
}

// ----- observability ------------------------------------------------------

void ProfileEngine::exportMetrics(obs::MetricsRegistry& registry) const {
  registry.add("profile.rebuilds", rebuilds_);
  registry.add("profile.incremental_updates", updates_);
  registry.add("profile.restores", restores_);
}

}  // namespace paws::power
