// Slack analysis (Section 4.1).
//
// Given a time-valid assignment sigma over a constraint graph G, the slack
// Delta_sigma(v) is the largest delay of v's start alone that keeps sigma
// time-valid. Every constraint that upper-bounds sigma(v) relative to
// another task appears in G as an *out*-edge of v (min separations into
// successors, serialization before later same-resource tasks, max
// separations encoded as back edges out of v), so
//
//   Delta_sigma(v) = min over out-edges (v -> u, w) of (sigma(u) - w) - sigma(v)
//
// and Duration::max() when v has no out-edges (delay bounded only by the
// scheduler's own heuristics).
//
// The graph must also carry sigma's resource order — slacks on the bare
// user graph would ignore resource exclusivity; scheduleGraph() adds it.
#pragma once

#include <vector>

#include "base/ids.hpp"
#include "base/time.hpp"
#include "graph/constraint_graph.hpp"
#include "sched/schedule.hpp"

namespace paws {

/// Slack of a single vertex under assignment `sigma` (vertex-indexed).
Duration slackOf(const ConstraintGraph& graph, const std::vector<Time>& sigma,
                 TaskId v);

/// Slacks for all vertices (index-aligned with `sigma`).
std::vector<Duration> computeSlacks(const ConstraintGraph& graph,
                                    const std::vector<Time>& sigma);

/// The graph a schedule implies: the user graph, a kSerialization edge
/// (weight d(prev)) between consecutive same-resource tasks in start order
/// (ties by id) and a kDelay edge anchor->v at sigma(v) per task. Its ASAP
/// solution is exactly sigma iff the schedule is time-valid.
ConstraintGraph scheduleGraph(const Schedule& schedule);

}  // namespace paws
