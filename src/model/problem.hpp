// The scheduling problem: tasks, resources, timing and power constraints.
//
// This is the user-facing input model (Section 4 of the paper). A `Problem`
// owns:
//   * a set of execution resources — not just processors: heaters, motors
//     and other power consumers are resources too (Section 4.1);
//   * a set of non-preemptive tasks, each with execution delay d(v), exact
//     power draw p(v) and a resource mapping r(v);
//   * min/max timing separations between task start times (these subsume
//     precedence, deadlines and release times);
//   * a max power budget Pmax (hard) and a min power floor Pmin (soft);
//   * an optional constant background draw (the rover's always-on CPU).
//
// Index 0 of the task table is the virtual *anchor* task that starts at
// time 0; every other task implicitly gets a release edge anchor -> v with
// weight 0 so schedules never start before the anchor.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/ids.hpp"
#include "base/time.hpp"
#include "base/units.hpp"
#include "graph/constraint_graph.hpp"
#include "model/battery_traits.hpp"
#include "model/mode_policy.hpp"

namespace paws {

/// Heterogeneous (transparent) string hashing for name maps: lets
/// `find(string_view)` probe an `unordered_map<std::string, …>` without
/// materializing a temporary std::string per query.
struct TransparentStringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  [[nodiscard]] std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Name → id map with allocation-free string_view lookup.
template <typename Id>
using NameIndex =
    std::unordered_map<std::string, Id, TransparentStringHash, std::equal_to<>>;

/// A non-preemptive task (vertex of the constraint graph).
struct Task {
  std::string name;
  Duration delay;      ///< execution delay d(v), in ticks
  Watts power;         ///< exact power draw p(v) while executing
  ResourceId resource; ///< r(v); invalid only for the anchor
  /// Graceful-degradation rank: 0 = mission-critical (never shed); values
  /// > 0 mark the task droppable, higher values shed first. Consumed by
  /// the runtime contingency policy (fault/contingency.hpp).
  std::uint8_t criticality = 0;

  /// Total energy spent by one execution: d(v) x p(v).
  [[nodiscard]] Energy energy() const { return power * delay; }

  [[nodiscard]] bool droppable() const { return criticality > 0; }
};

/// An execution resource; tasks mapped to the same resource must be
/// serialized by the scheduler.
struct Resource {
  std::string name;
};

/// One user timing constraint, kept in declaration order so that files can
/// round-trip and validators can report in source terms.
struct TimingConstraint {
  enum class Kind : std::uint8_t {
    kMinSeparation,  ///< sigma(to) >= sigma(from) + separation
    kMaxSeparation,  ///< sigma(to) <= sigma(from) + separation
  };
  Kind kind;
  TaskId from;
  TaskId to;
  Duration separation;
};

class Problem {
 public:
  /// Creates an empty problem; the anchor task is pre-installed as task 0.
  explicit Problem(std::string name = "problem");

  [[nodiscard]] const std::string& name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  // ----- construction -------------------------------------------------

  ResourceId addResource(std::string name);

  /// Adds a task; `delay` must be positive, `power` non-negative, and
  /// `resource` must exist.
  TaskId addTask(std::string name, Duration delay, Watts power,
                 ResourceId resource);

  /// sigma(to) >= sigma(from) + separation ("to at least `separation` after
  /// from", start-to-start — the paper's min timing constraint).
  void minSeparation(TaskId from, TaskId to, Duration separation);

  /// sigma(to) <= sigma(from) + separation ("to at most `separation` after
  /// from" — the paper's max timing constraint).
  void maxSeparation(TaskId from, TaskId to, Duration separation);

  /// Completion-to-start precedence with optional lag:
  /// sigma(to) >= sigma(from) + d(from) + lag.
  void precedes(TaskId from, TaskId to, Duration lag = Duration::zero());

  /// sigma(v) >= t.
  void release(TaskId v, Time t);

  /// sigma(v) + d(v) <= t.
  void deadline(TaskId v, Time t);

  /// Pins sigma(v) = t (a user-level lock: the interactive "drag & lock"
  /// operation of the power-aware Gantt chart, Section 4.3).
  void pin(TaskId v, Time t);

  /// Marks task `v` droppable with shed rank `criticality` (0 restores
  /// mission-critical). See Task::criticality.
  void setCriticality(TaskId v, std::uint8_t criticality);

  /// Overrides the power draw of task `v` — used by fault-aware repair to
  /// model shed tasks (power 0) without disturbing ids or constraints.
  void setTaskPower(TaskId v, Watts power);

  /// Hard system-wide power budget Pmax (Section 4.2).
  void setMaxPower(Watts pmax) { pmax_ = pmax; }
  /// Soft min power floor Pmin (free-power level; Section 4.2).
  void setMinPower(Watts pmin) { pmin_ = pmin; }
  /// Constant always-on draw added to the profile over [0, finish) —
  /// models the rover's CPU which is "constant" in Table 2.
  void setBackgroundPower(Watts w) { background_ = w; }

  /// Declares the platform battery's rate-capacity characteristics
  /// (`battery { ... }` in .paws). Purely declarative for the schedulers;
  /// the runtime stack and the battery-aware refinement consume it.
  void setBattery(BatteryTraits traits) { battery_ = std::move(traits); }

  /// Appends one rung to the problem's system-mode ladder (`mode name
  /// { ... }` in .paws), in declaration order.
  void addMode(SystemMode mode) { modes_.push_back(std::move(mode)); }

  // ----- queries -------------------------------------------------------

  /// Number of task slots *including* the anchor (= graph vertex count).
  [[nodiscard]] std::size_t numVertices() const { return tasks_.size(); }
  /// Number of real tasks (excluding the anchor).
  [[nodiscard]] std::size_t numTasks() const { return tasks_.size() - 1; }
  [[nodiscard]] std::size_t numResources() const { return resources_.size(); }

  [[nodiscard]] const Task& task(TaskId id) const;
  [[nodiscard]] const Resource& resource(ResourceId id) const;

  // Dense structure-of-arrays views over the hot per-task fields, indexed
  // by TaskId::index() (slot 0 is the anchor: zero delay/power, invalid
  // resource). Search inner loops read these instead of striding through
  // the Task records so delay/power/resource probes stay cache-linear.
  [[nodiscard]] std::span<const Duration> taskDelays() const {
    return delays_;
  }
  [[nodiscard]] std::span<const Watts> taskPowers() const { return powers_; }
  [[nodiscard]] std::span<const ResourceId> taskResources() const {
    return taskResources_;
  }

  /// Ids of all real tasks (anchor excluded), in creation order.
  [[nodiscard]] std::vector<TaskId> taskIds() const;
  /// All resource ids in creation order.
  [[nodiscard]] std::vector<ResourceId> resourceIds() const;

  [[nodiscard]] std::optional<TaskId> findTask(std::string_view name) const;
  [[nodiscard]] std::optional<ResourceId> findResource(
      std::string_view name) const;

  [[nodiscard]] const std::vector<TimingConstraint>& constraints() const {
    return constraints_;
  }

  [[nodiscard]] Watts maxPower() const { return pmax_; }
  [[nodiscard]] Watts minPower() const { return pmin_; }
  [[nodiscard]] Watts backgroundPower() const { return background_; }

  /// Declared battery characteristics, if any (nullopt = linear battery).
  [[nodiscard]] const std::optional<BatteryTraits>& battery() const {
    return battery_;
  }
  /// Declared system-mode ladder in declaration order (empty = no modes).
  [[nodiscard]] const std::vector<SystemMode>& modes() const {
    return modes_;
  }

  /// Structural diagnostics (empty when the problem is well-formed):
  /// tasks with non-positive delay, constraints touching the anchor twice,
  /// duplicate names, min>max separation pairs, etc.
  [[nodiscard]] std::vector<std::string> validate() const;

  // ----- graph construction -------------------------------------------

  /// Builds the constraint graph over numVertices() vertices: release
  /// edges anchor->v (weight 0) for every task, then one edge per user
  /// constraint under the encoding of graph/constraint_graph.hpp.
  [[nodiscard]] ConstraintGraph buildGraph() const;

 private:
  void checkTask(TaskId id) const;

  std::string name_;
  std::vector<Task> tasks_;
  // SoA mirrors of tasks_ (same indexing), kept in sync by addTask /
  // setTaskPower; see taskDelays()/taskPowers()/taskResources().
  std::vector<Duration> delays_;
  std::vector<Watts> powers_;
  std::vector<ResourceId> taskResources_;
  std::vector<Resource> resources_;
  std::vector<TimingConstraint> constraints_;
  NameIndex<TaskId> taskByName_;
  NameIndex<ResourceId> resourceByName_;
  Watts pmax_ = Watts::max();
  Watts pmin_ = Watts::zero();
  Watts background_ = Watts::zero();
  std::optional<BatteryTraits> battery_;
  std::vector<SystemMode> modes_;
};

}  // namespace paws
