#include "sched/repair.hpp"

#include <sstream>

#include "base/check.hpp"

namespace paws {

namespace {

ScheduleResult invalidInput(std::string message) {
  ScheduleResult result;
  result.status = SchedStatus::kInvalidInput;
  result.message = std::move(message);
  return result;
}

}  // namespace

ScheduleResult repairSchedule(const RepairInput& input,
                              const PowerAwareOptions& options) {
  // Repair runs mid-mission on caller-assembled inputs; a malformed request
  // must come back as a structured failure, not a process abort.
  if (input.updated == nullptr) {
    return invalidInput("repair: updated problem is null");
  }
  if (input.current == nullptr) {
    return invalidInput("repair: current schedule is null");
  }
  const Problem& updated = *input.updated;
  const Schedule& current = *input.current;
  if (updated.numVertices() != current.problem().numVertices()) {
    std::ostringstream os;
    os << "repair: updated problem has " << updated.numVertices() - 1
       << " task(s) but the schedule's problem has "
       << current.problem().numVertices() - 1;
    return invalidInput(os.str());
  }
  for (TaskId v : updated.taskIds()) {
    if (updated.task(v).name != current.problem().task(v).name) {
      std::ostringstream os;
      os << "repair: task id " << v << " is '" << updated.task(v).name
         << "' in the updated problem but '" << current.problem().task(v).name
         << "' in the schedule's problem";
      return invalidInput(os.str());
    }
  }

  // Amend a copy: freeze the past, release the future.
  Problem amended(updated);
  for (TaskId v : updated.taskIds()) {
    if (current.start(v) < input.now) {
      amended.pin(v, current.start(v));
    } else {
      amended.release(v, input.now);
    }
  }

  // Frozen history may already violate a newly tightened budget; such
  // spikes cannot be repaired and must be tolerated, not chased.
  PowerAwareOptions repairOptions = options;
  repairOptions.maxPower.ignoreSpikesBeforeTick = input.now.ticks();

  PowerAwareScheduler scheduler(amended, repairOptions);
  ScheduleResult result = scheduler.schedule();
  if (result.ok()) {
    // Rebind to the caller's updated problem (same ids; the pins/releases
    // only constrained the solver).
    result.schedule = Schedule(input.updated, result.schedule->starts());
    // Postcondition: history untouched.
    for (TaskId v : updated.taskIds()) {
      if (current.start(v) < input.now) {
        PAWS_CHECK(result.schedule->start(v) == current.start(v));
      }
    }
  }
  return result;
}

}  // namespace paws
