#include "sched/slack.hpp"

#include <algorithm>
#include <optional>

#include "base/check.hpp"

namespace paws {

Duration slackOf(const ConstraintGraph& graph, const std::vector<Time>& sigma,
                 TaskId v) {
  PAWS_CHECK(v.index() < sigma.size());
  Duration slack = Duration::max();
  const Time sv = sigma[v.index()];
  for (const AdjEntry& ae : graph.outEdges(v)) {
    // sigma(u) - sigma(v) >= w must keep holding as sigma(v) grows:
    // sigma(v) may rise to sigma(u) - w.
    const Duration room = (sigma[ae.other.index()] - ae.weight) - sv;
    slack = std::min(slack, room);
  }
  return slack;
}

std::vector<Duration> computeSlacks(const ConstraintGraph& graph,
                                    const std::vector<Time>& sigma) {
  PAWS_CHECK(sigma.size() == graph.numVertices());
  std::vector<Duration> slacks(sigma.size(), Duration::max());
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    slacks[i] = slackOf(graph, sigma, TaskId(static_cast<std::uint32_t>(i)));
  }
  return slacks;
}

ConstraintGraph scheduleGraph(const Schedule& schedule) {
  const Problem& problem = schedule.problem();
  const std::vector<Time>& sigma = schedule.starts();
  ConstraintGraph graph = problem.buildGraph();
  // Tasks in start order; the stable sort keeps id order among ties.
  std::vector<TaskId> order = problem.taskIds();
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return sigma[a.index()] < sigma[b.index()];
  });
  std::vector<std::optional<TaskId>> last(problem.numResources());
  for (TaskId v : order) {
    std::optional<TaskId>& prev = last[problem.task(v).resource.index()];
    if (prev.has_value()) {
      graph.addEdge(*prev, v, problem.task(*prev).delay,
                    EdgeKind::kSerialization);
    }
    prev = v;
    graph.addEdge(kAnchorTask, v, sigma[v.index()] - Time::zero(),
                  EdgeKind::kDelay);
  }
  return graph;
}

}  // namespace paws
