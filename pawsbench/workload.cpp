#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "cache/canonical.hpp"
#include "fault/rng.hpp"
#include "gen/random_problem.hpp"
#include "io/parser.hpp"
#include "io/writer.hpp"
#include "model/paper_example.hpp"
#include "rover/rover_model.hpp"

namespace pawsbench {

namespace {

using paws::fault::SplitMix64;
using paws::fault::mixSeed;

// Salts keep the fixed pools independent of each other and of the seed.
constexpr std::uint64_t kColdSalt = 0x636f6c64ULL;     // "cold"
constexpr std::uint64_t kHotSalt = 0x686f74ULL;        // "hot"
constexpr std::uint64_t kOracleSalt = 0x6f7261636cULL;  // "oracl"
constexpr std::uint64_t kOrderSalt = 0x6f72646572ULL;  // "order"
constexpr std::uint64_t kDrawSalt = 0x64726177ULL;     // "draw"

/// Pool sizes: one cold-pipeline pass is ~9 s of solver time on one core,
/// one optimal-oracle pass ~7 s, so a 20 s run at two solver threads
/// covers four to six whole passes of either, and the replay of one pass
/// stays short.
constexpr std::size_t kColdPool = 100;
constexpr std::size_t kOracleGen = 56;
constexpr std::size_t kHotGen = 16;
/// hot-repeat: Zipf exponent over each client's families, and the share
/// of draws that are near-miss variants (per mille).
constexpr double kZipfExponent = 1.0;
constexpr std::uint32_t kVariantPermille = 200;

paws::Problem genProblem(std::uint64_t salt, std::size_t k,
                         std::size_t minTasks, std::size_t maxTasks) {
  SplitMix64 rng(mixSeed(salt, k, 1));
  paws::GeneratorConfig config;
  config.seed = static_cast<std::uint32_t>(rng.next() & 0xffffffffULL);
  config.numTasks =
      minTasks + static_cast<std::size_t>(rng.next() % (maxTasks - minTasks + 1));
  config.numResources = 2 + static_cast<std::size_t>(rng.next() % 3);
  return paws::generateRandomProblem(config).problem;
}

std::string genLabel(const paws::Problem& p, std::size_t k) {
  return "gen" + std::to_string(p.numTasks()) + "t" + std::to_string(k);
}

/// Near-miss variant: same structure (name, tasks, resources, constraints),
/// one numeric edit — Pmin, Pmax or one task's power, by at most ~10%.
paws::Problem perturb(const paws::Problem& base, SplitMix64& rng) {
  paws::Problem p = base;
  const auto scale = [&](std::int64_t mw, std::int64_t lo, std::int64_t hi) {
    return paws::Watts::fromMilliwatts(mw * rng.range(lo, hi) / 1000);
  };
  const bool hasPmax = p.maxPower() != paws::Watts::max();
  switch (rng.next() % 3) {
    case 0:
      if (p.minPower() > paws::Watts::zero()) {
        p.setMinPower(scale(p.minPower().milliwatts(), 850, 1150));
        break;
      }
      [[fallthrough]];
    case 1:
      if (hasPmax) {
        p.setMaxPower(scale(p.maxPower().milliwatts(), 1000, 1100));
        break;
      }
      [[fallthrough]];
    default: {
      const std::vector<paws::TaskId> ids = p.taskIds();
      const paws::TaskId v = ids[rng.next() % ids.size()];
      p.setTaskPower(v, scale(p.task(v).power.milliwatts(), 900, 1000));
      break;
    }
  }
  return p;
}

}  // namespace

bool kindFromName(const std::string& name, Kind& out) {
  if (name == "cold-pipeline") {
    out = Kind::kColdPipeline;
  } else if (name == "hot-repeat") {
    out = Kind::kHotRepeat;
  } else if (name == "optimal-oracle") {
    out = Kind::kOptimalOracle;
  } else {
    return false;
  }
  return true;
}

paws::serve::Request wireRequest(const Request& r) {
  paws::serve::Request req;
  req.scheduler = r.scheduler;
  req.trials = 4;
  req.timeoutMs = kRequestTimeoutMs;
  req.problemText = r.text;
  return req;
}

Workload::Workload(Kind kind, std::uint64_t seed, const std::string& root)
    : kind_(kind), seed_(seed) {
  switch (kind) {
    case Kind::kColdPipeline:
      buildColdPool();
      break;
    case Kind::kHotRepeat:
      buildHotSet(root);
      break;
    case Kind::kOptimalOracle:
      buildOraclePool(root);
      break;
  }
}

void Workload::addItem(std::string label, paws::Problem problem) {
  std::string text = paws::io::problemToText(problem);
  // The benchmark checks answers against its own parse of exactly the
  // text pawsd receives.
  paws::io::ParseResult parsed = paws::io::parseProblem(text);
  if (!parsed.ok()) {
    throw std::runtime_error("pawsbench: generated problem " + label +
                             " does not parse back");
  }
  items_.push_back(Item{std::move(label), std::move(*parsed.problem),
                        std::move(text)});
}

void Workload::addDataFiles(const std::string& root) {
  const std::filesystem::path dir =
      std::filesystem::path(root) / "examples" / "data";
  std::vector<std::filesystem::path> files;
  if (std::filesystem::is_directory(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".paws") files.push_back(entry.path());
    }
  }
  if (files.empty()) {
    throw std::runtime_error("pawsbench: no .paws files under " +
                             dir.string());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    paws::io::ParseResult parsed = paws::io::parseProblemFile(file.string());
    if (!parsed.ok()) {
      throw std::runtime_error("pawsbench: cannot parse " + file.string());
    }
    addItem(file.stem().string(), std::move(*parsed.problem));
  }
}

void Workload::buildColdPool() {
  for (std::size_t k = 0; k < kColdPool; ++k) {
    paws::Problem p = genProblem(kColdSalt, k, 12, 48);
    std::string label = genLabel(p, k);
    addItem(std::move(label), std::move(p));
  }
}

void Workload::buildOraclePool(const std::string& root) {
  addItem("paper", paws::makePaperExampleProblem());
  addDataFiles(root);
  for (std::size_t k = 0; k < kOracleGen; ++k) {
    paws::Problem p = genProblem(kOracleSalt, k, 4, 6);
    std::string label = genLabel(p, k);
    addItem(std::move(label), std::move(p));
  }
}

void Workload::buildHotSet(const std::string& root) {
  addDataFiles(root);
  addItem("paper", paws::makePaperExampleProblem());
  for (paws::rover::RoverCase c :
       {paws::rover::RoverCase::kBest, paws::rover::RoverCase::kTypical,
        paws::rover::RoverCase::kWorst}) {
    for (int iterations = 1; iterations <= 3; ++iterations) {
      addItem(std::string("rover-") + paws::rover::toString(c) + "-" +
                  std::to_string(iterations),
              paws::rover::makeRoverProblem(c, iterations));
    }
  }
  for (std::size_t k = 0; k < kHotGen; ++k) {
    paws::Problem p = genProblem(kHotSalt, k, 8, 24);
    std::string label = genLabel(p, k);
    addItem(std::move(label), std::move(p));
  }
  pinFamilies();
}

void Workload::pinFamilies() {
  // A structural family is every item whose near-miss probe can match
  // another's cache entry. Pinning a family to one client keeps the
  // cache's near-miss chain for it in that client's request order, so the
  // answers do not depend on how the two clients interleave.
  std::map<std::uint64_t, std::size_t> familyOf;
  ranked_.assign(clients(), {});
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const std::uint64_t h =
        paws::cache::canonicalize(items_[i].problem).structuralHash;
    const std::size_t family = familyOf.emplace(h, familyOf.size()).first->second;
    ranked_[family % clients()].push_back(i);
  }
  // Rank order is fixed (item order within each client), so the seed
  // moves the draws, not which item is the hottest.
  cdf_.assign(clients(), {});
  for (std::size_t c = 0; c < clients(); ++c) {
    double total = 0;
    for (std::size_t r = 0; r < ranked_[c].size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[c].push_back(total);
    }
    for (double& x : cdf_[c]) x /= total;
  }
}

std::vector<Request> Workload::warmup() const {
  std::vector<Request> out;
  if (kind_ != Kind::kHotRepeat) return out;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    out.push_back(Request{"w/" + std::to_string(i), "pipeline", items_[i].text,
                          i, items_[i].label});
  }
  return out;
}

Request Workload::atPosition(std::size_t pos) const {
  const std::size_t n = items_.size();
  const std::size_t pass = pos / n;
  const std::size_t slot = pos % n;
  // Fisher-Yates permutation of this pass, drawn from (seed, pass).
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  SplitMix64 rng(mixSeed(seed_, pass, kOrderSalt));
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.next() % (i + 1)]);
  }
  const Item& item = items_[perm[slot]];
  paws::Problem renamed = item.problem;
  renamed.setName(item.label + "_s" + std::to_string(seed_) + "_p" +
                  std::to_string(pass));
  Request r;
  r.id = "p" + std::to_string(pass) + "/" + std::to_string(slot);
  r.scheduler = kind_ == Kind::kOptimalOracle ? "optimal" : "pipeline";
  r.text = paws::io::problemToText(renamed);
  r.item = perm[slot];
  r.problemKey = r.id;
  return r;
}

Request Workload::forClient(std::size_t client, std::size_t index) const {
  SplitMix64 rng(mixSeed(seed_ * clients() + client, index, kDrawSalt));
  const double u =
      static_cast<double>(rng.next() >> 11) * 0x1.0p-53;  // [0, 1)
  const std::vector<double>& cdf = cdf_[client];
  const std::size_t rank = std::min<std::size_t>(
      static_cast<std::size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin()),
      cdf.size() - 1);
  const std::size_t i = ranked_[client][rank];
  Request r;
  r.id = "c" + std::to_string(client) + "/" + std::to_string(index);
  r.scheduler = "pipeline";
  r.item = i;
  if (rng.chance(kVariantPermille)) {
    r.text = paws::io::problemToText(perturb(items_[i].problem, rng));
    r.problemKey = r.id;
  } else {
    r.text = items_[i].text;
    r.problemKey = items_[i].label;
  }
  return r;
}

std::string Workload::describe() const {
  std::ostringstream os;
  switch (kind_) {
    case Kind::kColdPipeline:
      os << "pipeline on " << items_.size()
         << " gen problems (12-48 tasks, 2-4 resources), renamed per pass";
      break;
    case Kind::kOptimalOracle:
      os << "optimal on paper + examples/data + " << kOracleGen
         << " gen problems (4-6 tasks), renamed per pass";
      break;
    case Kind::kHotRepeat:
      os << "pipeline, Zipf s=" << kZipfExponent << " over " << items_.size()
         << " items (" << ranked_[0].size() << "/" << ranked_[1].size()
         << " per client), " << kVariantPermille / 10
         << "% near-miss variants";
      break;
  }
  return os.str();
}

}  // namespace pawsbench
