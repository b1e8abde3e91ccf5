// Writers: Problem -> .paws text (round-trips through the parser) and
// Schedule -> CSV or Chrome-trace JSON for external analysis/plotting.
#pragma once

#include <iosfwd>
#include <string>

#include "model/problem.hpp"
#include "sched/schedule.hpp"

namespace paws::io {

/// `name` spelled so the lexer reads back exactly this name: bare when it
/// is a plain identifier, quoted otherwise. Names containing '"' or a
/// newline are not representable in .paws (strings have no escapes).
std::string nameToken(std::string_view name);

/// Serializes `problem` in .paws syntax. parseProblem(writeProblem(p))
/// reconstructs an equivalent problem (same tasks, resources, constraints
/// and power limits), and re-serializing that reconstruction yields the
/// same text (the writer output is a parse/print fixed point).
void writeProblem(std::ostream& os, const Problem& problem);
std::string problemToText(const Problem& problem);

/// CSV: task,resource,start,end,power_mw,energy_mwticks — one row per task
/// in start order. Names are quoted per RFC 4180 where they need it.
void writeScheduleCsv(std::ostream& os, const Schedule& schedule);

/// Chrome-tracing JSON (chrome://tracing, Perfetto): one complete event
/// ("ph":"X") per task, one row per resource, power in the event args —
/// the schedule opens in any trace viewer. Names are JSON-escaped.
void writeChromeTrace(std::ostream& os, const Schedule& schedule);

}  // namespace paws::io
