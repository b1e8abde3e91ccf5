#include "model/problem.hpp"

#include <sstream>

#include "base/check.hpp"

namespace paws {

Problem::Problem(std::string name) : name_(std::move(name)) {
  // Task slot 0: the virtual anchor. Zero delay and power so it never
  // contributes to the profile; no resource so it never serializes.
  tasks_.push_back(
      Task{"<anchor>", Duration::zero(), Watts::zero(), ResourceId::invalid()});
  delays_.push_back(Duration::zero());
  powers_.push_back(Watts::zero());
  taskResources_.push_back(ResourceId::invalid());
}

ResourceId Problem::addResource(std::string name) {
  PAWS_CHECK_MSG(!name.empty(), "resource name must be non-empty");
  PAWS_CHECK_MSG(resourceByName_.find(name) == resourceByName_.end(),
                 "duplicate resource name '" << name << "'");
  const ResourceId id(static_cast<std::uint32_t>(resources_.size()));
  resourceByName_.emplace(name, id);
  resources_.push_back(Resource{std::move(name)});
  return id;
}

TaskId Problem::addTask(std::string name, Duration delay, Watts power,
                        ResourceId resource) {
  PAWS_CHECK_MSG(!name.empty(), "task name must be non-empty");
  PAWS_CHECK_MSG(taskByName_.find(name) == taskByName_.end(),
                 "duplicate task name '" << name << "'");
  PAWS_CHECK_MSG(delay > Duration::zero(),
                 "task '" << name << "' needs positive delay, got "
                          << delay.ticks());
  PAWS_CHECK_MSG(power >= Watts::zero(),
                 "task '" << name << "' needs non-negative power");
  PAWS_CHECK_MSG(resource.isValid() && resource.index() < resources_.size(),
                 "task '" << name << "' maps to unknown resource");
  const TaskId id(static_cast<std::uint32_t>(tasks_.size()));
  taskByName_.emplace(name, id);
  tasks_.push_back(Task{std::move(name), delay, power, resource});
  delays_.push_back(delay);
  powers_.push_back(power);
  taskResources_.push_back(resource);
  return id;
}

void Problem::checkTask(TaskId id) const {
  PAWS_CHECK_MSG(id.isValid() && id.index() < tasks_.size(),
                 "unknown task id " << id);
}

void Problem::minSeparation(TaskId from, TaskId to, Duration separation) {
  checkTask(from);
  checkTask(to);
  PAWS_CHECK_MSG(from != to, "constraint endpoints must differ");
  constraints_.push_back(TimingConstraint{TimingConstraint::Kind::kMinSeparation,
                                          from, to, separation});
}

void Problem::maxSeparation(TaskId from, TaskId to, Duration separation) {
  checkTask(from);
  checkTask(to);
  PAWS_CHECK_MSG(from != to, "constraint endpoints must differ");
  constraints_.push_back(TimingConstraint{TimingConstraint::Kind::kMaxSeparation,
                                          from, to, separation});
}

void Problem::precedes(TaskId from, TaskId to, Duration lag) {
  minSeparation(from, to, task(from).delay + lag);
}

void Problem::release(TaskId v, Time t) {
  minSeparation(kAnchorTask, v, t - Time::zero());
}

void Problem::deadline(TaskId v, Time t) {
  maxSeparation(kAnchorTask, v, (t - Time::zero()) - task(v).delay);
}

void Problem::pin(TaskId v, Time t) {
  release(v, t);
  maxSeparation(kAnchorTask, v, t - Time::zero());
}

void Problem::setCriticality(TaskId v, std::uint8_t criticality) {
  checkTask(v);
  PAWS_CHECK_MSG(v != kAnchorTask, "the anchor task cannot be droppable");
  tasks_[v.index()].criticality = criticality;
}

void Problem::setTaskPower(TaskId v, Watts power) {
  checkTask(v);
  PAWS_CHECK_MSG(v != kAnchorTask, "the anchor task draws no power");
  PAWS_CHECK_MSG(power >= Watts::zero(),
                 "task '" << tasks_[v.index()].name
                          << "' needs non-negative power");
  tasks_[v.index()].power = power;
  powers_[v.index()] = power;
}

const Task& Problem::task(TaskId id) const {
  checkTask(id);
  return tasks_[id.index()];
}

const Resource& Problem::resource(ResourceId id) const {
  PAWS_CHECK_MSG(id.isValid() && id.index() < resources_.size(),
                 "unknown resource id " << id);
  return resources_[id.index()];
}

std::vector<TaskId> Problem::taskIds() const {
  std::vector<TaskId> ids;
  ids.reserve(tasks_.size() - 1);
  for (std::size_t i = 1; i < tasks_.size(); ++i) {
    ids.push_back(TaskId(static_cast<std::uint32_t>(i)));
  }
  return ids;
}

std::vector<ResourceId> Problem::resourceIds() const {
  std::vector<ResourceId> ids;
  ids.reserve(resources_.size());
  for (std::size_t i = 0; i < resources_.size(); ++i) {
    ids.push_back(ResourceId(static_cast<std::uint32_t>(i)));
  }
  return ids;
}

std::optional<TaskId> Problem::findTask(std::string_view name) const {
  // Transparent hashing: no std::string temporary per lookup.
  auto it = taskByName_.find(name);
  if (it == taskByName_.end()) return std::nullopt;
  return it->second;
}

std::optional<ResourceId> Problem::findResource(std::string_view name) const {
  auto it = resourceByName_.find(name);
  if (it == resourceByName_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> Problem::validate() const {
  std::vector<std::string> issues;
  auto report = [&issues](const auto&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    issues.push_back(os.str());
  };

  if (pmin_ > pmax_) {
    report("min power ", pmin_, " exceeds max power budget ", pmax_);
  }
  if (background_ > pmax_) {
    report("background power ", background_, " alone exceeds the budget ",
           pmax_);
  }
  for (std::size_t i = 1; i < tasks_.size(); ++i) {
    const Task& t = tasks_[i];
    if (t.power + background_ > pmax_) {
      report("task '", t.name, "' draws ", t.power, " + background ",
             background_, " > budget ", pmax_,
             " — no schedule can be power-valid");
    }
  }
  if (battery_.has_value()) {
    for (std::size_t i = 0; i < battery_->bands.size(); ++i) {
      const RateBand& band = battery_->bands[i];
      if (band.factorPermille < 1000) {
        report("battery rate band above ", band.threshold,
               " has factor ", band.factorPermille,
               " permille — the rate-capacity effect cannot make draws "
               "cheaper");
      }
      if (i > 0 && band.threshold <= battery_->bands[i - 1].threshold) {
        report("battery rate band thresholds must strictly increase (",
               battery_->bands[i - 1].threshold, " then ", band.threshold,
               ")");
      }
    }
    if (battery_->recoverablePermille < 0 ||
        battery_->recoverablePermille > 1000) {
      report("battery recoverable fraction ", battery_->recoverablePermille,
             " permille is outside [0, 1000]");
    }
  }
  for (std::size_t i = 0; i < modes_.size(); ++i) {
    const SystemMode& m = modes_[i];
    if (m.pmaxPct > 100 || m.pminPct > 100) {
      report("mode '", m.name, "' scales a power budget above 100% (pmax ",
             m.pmaxPct, "%, pmin ", m.pminPct, "%)");
    }
    if (i > 0 && m.ceiling > modes_[i - 1].ceiling) {
      report("mode '", m.name, "' raises the criticality ceiling over '",
             modes_[i - 1].name, "' — escalation must shed, not restore");
    }
  }
  // Contradictory min/max pairs on the same ordered task pair.
  for (const TimingConstraint& a : constraints_) {
    if (a.kind != TimingConstraint::Kind::kMinSeparation) continue;
    for (const TimingConstraint& b : constraints_) {
      if (b.kind != TimingConstraint::Kind::kMaxSeparation) continue;
      if (a.from == b.from && a.to == b.to && b.separation < a.separation) {
        report("constraints on ", tasks_[a.from.index()].name, " -> ",
               tasks_[a.to.index()].name, " contradict: min ",
               a.separation.ticks(), " > max ", b.separation.ticks());
      }
    }
  }
  return issues;
}

ConstraintGraph Problem::buildGraph() const {
  ConstraintGraph g(tasks_.size());
  g.reserveEdges(tasks_.size() - 1 + constraints_.size());
  for (std::size_t i = 1; i < tasks_.size(); ++i) {
    g.addEdge(kAnchorTask, TaskId(static_cast<std::uint32_t>(i)),
              Duration::zero(), EdgeKind::kRelease);
  }
  for (const TimingConstraint& c : constraints_) {
    switch (c.kind) {
      case TimingConstraint::Kind::kMinSeparation:
        g.addEdge(c.from, c.to, c.separation, EdgeKind::kUserMin);
        break;
      case TimingConstraint::Kind::kMaxSeparation:
        // sigma(to) <= sigma(from) + s   <=>   sigma(from) - sigma(to) >= -s
        g.addEdge(c.to, c.from, -c.separation, EdgeKind::kUserMax);
        break;
    }
  }
  return g;
}

}  // namespace paws
