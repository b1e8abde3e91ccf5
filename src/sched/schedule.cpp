#include "sched/schedule.hpp"

#include "base/check.hpp"

namespace paws {

Schedule::Schedule(const Problem* problem, std::vector<Time> starts)
    : problem_(problem), starts_(std::move(starts)) {
  PAWS_CHECK(problem_ != nullptr);
  PAWS_CHECK_MSG(starts_.size() == problem_->numVertices(),
                 "start vector size " << starts_.size() << " != vertex count "
                                      << problem_->numVertices());
  PAWS_CHECK_MSG(starts_[kAnchorTask.index()] == Time::zero(),
                 "anchor must start at time 0");
  finish_ = finishOf(*problem_, starts_);
}

Time Schedule::start(TaskId v) const {
  PAWS_CHECK(v.index() < starts_.size());
  return starts_[v.index()];
}

Time Schedule::end(TaskId v) const {
  return start(v) + problem_->task(v).delay;
}

Interval Schedule::interval(TaskId v) const {
  return Interval(start(v), end(v));
}

const PowerProfile& Schedule::powerProfile() const {
  if (!profile_) profile_ = profileOf(*problem_, starts_);
  return *profile_;
}

PowerProfile profileOf(const Problem& problem,
                       const std::vector<Time>& starts) {
  PowerProfileBuilder builder;
  for (std::size_t i = 1; i < problem.numVertices(); ++i) {
    const TaskId v(static_cast<std::uint32_t>(i));
    const Task& task = problem.task(v);
    builder.add(Interval(starts[i], starts[i] + task.delay), task.power);
  }
  return builder.build(problem.backgroundPower());
}

Time finishOf(const Problem& problem, const std::vector<Time>& starts) {
  Time finish = Time::zero();
  for (std::size_t i = 1; i < problem.numVertices(); ++i) {
    const TaskId v(static_cast<std::uint32_t>(i));
    const Time end = starts[i] + problem.task(v).delay;
    if (end > finish) finish = end;
  }
  return finish;
}

}  // namespace paws
