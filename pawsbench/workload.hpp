// pawsbench workloads — the request streams the benchmark sends to pawsd.
//
// Every byte a workload produces is a pure function of (workload, seed,
// client, index): the socket run and the in-process replay draw the same
// requests from the same Workload object. pawsd only ever sees the
// generated `.paws` text.
//
//   cold-pipeline   distinct gen problems (12-48 tasks, 2-4 resources),
//                   scheduler pipeline. Nothing repeats, so the cache only
//                   writes.
//   hot-repeat      a fixed working set (examples/data, the paper example,
//                   rover 3 cases x 1-3 iterations, gen 8-24 tasks), warmed
//                   once, then re-requested with Zipf skew; a fifth of the
//                   draws are near-miss variants (perturbed pmin/pmax/task
//                   power). Each structural family is pinned to one client.
//   optimal-oracle  distinct `optimal` requests on the paper example,
//                   examples/data and gen problems of 4-6 tasks.
//
// cold-pipeline and optimal-oracle cost per request is heavy-tailed: a few
// requests carry most of the CPU time (budget-exhausting timing searches,
// deep exhaustive searches). A run that sampled fresh problems from the
// seed would measure which heavy requests it happened to draw. Their pool
// of problems is therefore fixed; the seed orders it and names every
// request (the name is part of the cache key, so every request is a
// distinct problem to pawsd), and the socket run covers the pool in whole
// passes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/problem.hpp"
#include "serve/protocol.hpp"

namespace pawsbench {

enum class Kind { kColdPipeline, kHotRepeat, kOptimalOracle };

/// Parses "cold-pipeline" | "hot-repeat" | "optimal-oracle"; false if
/// unknown.
bool kindFromName(const std::string& name, Kind& out);

/// One request as it travels to pawsd.
struct Request {
  /// Stable identity across runs of one seed: "p<pass>/<slot>" for the
  /// pass workloads, "c<client>/<index>" for hot-repeat, "w/<item>" for
  /// the warm-up.
  std::string id;
  std::string scheduler;
  /// The `.paws` problem text sent on the wire.
  std::string text;
  /// Working-set / pool item the request derives from.
  std::size_t item = 0;
  /// Requests with equal keys send identical text (base hot-repeat draws
  /// of one item); answer checks run once per (key, digest).
  std::string problemKey;
};

/// Every request asks for the protocol's largest budget, so outcomes are
/// set by the deterministic search budgets, never by the wall clock.
inline constexpr std::int64_t kRequestTimeoutMs = 60000;

/// The request as the wire protocol carries it (4 pipeline trials).
paws::serve::Request wireRequest(const Request& r);

class Workload {
 public:
  /// Builds the pool / working set. `root` is the repository checkout
  /// (examples/data is read from it). Throws std::runtime_error when an
  /// input cannot be built.
  Workload(Kind kind, std::uint64_t seed, const std::string& root);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] static constexpr std::size_t clients() { return 2; }
  /// True for the workloads that run whole passes over a fixed pool.
  [[nodiscard]] bool passes() const { return kind_ != Kind::kHotRepeat; }
  /// Requests per pass (pass workloads) or working-set size (hot-repeat).
  [[nodiscard]] std::size_t poolSize() const { return items_.size(); }
  /// The benchmark's own parse of pool / working-set item `i`.
  [[nodiscard]] const paws::Problem& itemProblem(std::size_t i) const {
    return items_[i].problem;
  }

  /// hot-repeat: every working-set item once (solved before timing).
  /// Empty for the pass workloads.
  [[nodiscard]] std::vector<Request> warmup() const;
  /// Pass workloads: the request at stream position `pos` (pass pos/P).
  [[nodiscard]] Request atPosition(std::size_t pos) const;
  /// hot-repeat: request `index` of `client`'s own stream.
  [[nodiscard]] Request forClient(std::size_t client, std::size_t index) const;
  /// The request mix, one line, for the report.
  [[nodiscard]] std::string describe() const;

 private:
  struct Item {
    std::string label;
    paws::Problem problem;
    std::string text;
  };

  void buildColdPool();
  void buildHotSet(const std::string& root);
  void buildOraclePool(const std::string& root);
  void addDataFiles(const std::string& root);
  void addItem(std::string label, paws::Problem problem);
  void pinFamilies();

  Kind kind_;
  std::uint64_t seed_;
  std::vector<Item> items_;
  /// hot-repeat: each client's items in Zipf rank order, and the rank CDF.
  std::vector<std::vector<std::size_t>> ranked_;
  std::vector<std::vector<double>> cdf_;
};

}  // namespace pawsbench
