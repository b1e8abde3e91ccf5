// Schedule save/load in .paws-style syntax — the persistence half of the
// runtime deployment story: schedules are computed offline, written next
// to the problem file, and loaded back for a mid-flight repair when the
// budget changes (`pawsc repair`).
//
//   schedule "label" of "problem_name" {
//     at heat_wheel1 0
//     at hazard1 0
//     ...
//   }
//
// Every task of the problem must be assigned exactly once; unknown task
// names and duplicates are parse errors.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "io/parser.hpp"
#include "sched/schedule.hpp"

namespace paws::io {

struct ScheduleParseResult {
  std::optional<Schedule> schedule;  // bound to the problem passed in
  std::string label;
  std::string problemName;  // as written in the file
  std::vector<ParseError> errors;
  [[nodiscard]] bool ok() const { return schedule.has_value(); }
};

/// Parses a schedule document against `problem` (which provides task names
/// and delays). A mismatching `of "<name>"` clause is an error.
ScheduleParseResult parseSchedule(std::string_view source,
                                  const Problem& problem);

/// Serializes `schedule` with the given label; round-trips through
/// parseSchedule against the same problem.
void writeSchedule(std::ostream& os, const Schedule& schedule,
                   std::string_view label);
std::string scheduleToText(const Schedule& schedule, std::string_view label);

}  // namespace paws::io
