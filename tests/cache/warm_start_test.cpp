// Warm-start and cached-solve properties.
//
// The load-bearing claim: seeding the branch-and-bound search with a valid
// schedule's (cost, finish) is *invisible* in the result. The shared bound
// holds the cost (strictly-greater pruning never cuts a cost-tying leaf)
// and each worker's local incumbent starts as the phantom (cost, finish+1),
// which the lex-first optimum always strictly improves — so no node on the
// path to the optimum is ever cut, while the node count can only shrink.
// The tests pin byte-identity (starts, cost, finish) and demand a strict
// node reduction on the paper example and on at least 8 random instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "base/units.hpp"
#include "cache/cached_solve.hpp"
#include "cache/canonical.hpp"
#include "cache/schedule_cache.hpp"
#include "gen/random_problem.hpp"
#include "io/schedule_io.hpp"
#include "model/paper_example.hpp"
#include "sched/exhaustive_scheduler.hpp"
#include "sched/min_power_scheduler.hpp"
#include "sched/polish.hpp"
#include "sched/power_aware_scheduler.hpp"
#include "sched/serial_scheduler.hpp"
#include "support/temp_path.hpp"
#include "validate/validator.hpp"

namespace paws::cache {
namespace {

using namespace paws::literals;

struct SearchRun {
  std::vector<Time> starts;
  std::int64_t costMwt = 0;
  std::int64_t finishTicks = 0;
  bool provenOptimal = false;
  std::uint64_t nodes = 0;
};

struct Seed {
  Energy cost;
  Time finish;
};

SearchRun runExhaustive(const Problem& problem, std::optional<Seed> seed,
                        std::optional<Time> horizon = std::nullopt) {
  ExhaustiveOptions options;
  options.jobs = 1;  // deterministic node counts
  options.horizon = horizon;
  if (seed.has_value()) {
    options.initialIncumbent = seed->cost;
    options.initialIncumbentFinish = seed->finish;
  }
  ExhaustiveScheduler scheduler(problem, options);
  const ScheduleResult r = scheduler.schedule();
  SearchRun run;
  run.provenOptimal = scheduler.outcome().provenOptimal;
  run.nodes = scheduler.outcome().nodesExplored;
  if (r.ok()) {
    run.starts = r.schedule->starts();
    run.costMwt = r.schedule->energyCost(problem.minPower()).milliwattTicks();
    run.finishTicks = r.schedule->finish().ticks();
  }
  return run;
}

/// The exhaustive scheduler's default horizon, for instances that do not
/// pass one explicitly (mirrors ExhaustiveScheduler::schedule()).
Time defaultHorizon(const Problem& problem) {
  Duration total = Duration::zero();
  for (TaskId v : problem.taskIds()) total += problem.task(v).delay;
  Duration maxSep = Duration::zero();
  for (const TimingConstraint& c : problem.constraints()) {
    maxSep = std::max(maxSep, c.separation);
  }
  return Time::zero() + total + maxSep;
}

/// The warm-start seed solveThroughCache builds: the lex-best valid
/// in-horizon schedule of {pipeline, serial}, polished.
std::optional<Seed> warmSeed(const Problem& problem, Time horizon) {
  ScheduleValidator validator(problem);
  std::optional<Schedule> best;
  const auto offer = [&](ScheduleResult r) {
    if (!r.ok() || r.schedule->finish() > horizon) return;
    if (!validator.validate(*r.schedule).valid()) return;
    const Energy cost = r.schedule->energyCost(problem.minPower());
    if (!best.has_value() || cost < best->energyCost(problem.minPower()) ||
        (cost == best->energyCost(problem.minPower()) &&
         r.schedule->finish() < best->finish())) {
      best = *r.schedule;
    }
  };
  offer(PowerAwareScheduler(problem).schedule());
  offer(SerialScheduler(problem).schedule());
  if (!best.has_value()) return std::nullopt;
  PolishOptions options;
  options.horizon = horizon;
  Schedule polished = polishSchedule(problem, *best, options);
  EXPECT_TRUE(validator.validate(polished).valid());
  EXPECT_LE(polished.finish(), horizon);
  return Seed{polished.energyCost(problem.minPower()), polished.finish()};
}

GeneratorConfig smallConfig(std::uint32_t seed) {
  GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.numTasks = 5;
  cfg.numResources = 2;
  cfg.maxDelay = 3;
  cfg.witnessJitter = 2;
  cfg.pmaxHeadroomMw = 400;
  return cfg;
}

TEST(WarmStartTest, PaperExampleByteIdenticalAndStrictlyFewerNodes) {
  // Horizon 30 keeps the 9-task search tractable while containing the
  // optimum (same setting as the pruning-equivalence suite).
  const Problem problem = makePaperExampleProblem();
  const std::optional<Seed> seed = warmSeed(problem, Time(30));
  ASSERT_TRUE(seed.has_value());
  ASSERT_LE(seed->finish, Time(30));  // the seed must fit the horizon
  const SearchRun cold = runExhaustive(problem, std::nullopt, Time(30));
  const SearchRun warm = runExhaustive(problem, seed, Time(30));
  ASSERT_TRUE(cold.provenOptimal);
  ASSERT_TRUE(warm.provenOptimal);
  EXPECT_EQ(warm.starts, cold.starts);
  EXPECT_EQ(warm.costMwt, cold.costMwt);
  EXPECT_EQ(warm.finishTicks, cold.finishTicks);
  EXPECT_LT(warm.nodes, cold.nodes);
}

TEST(WarmStartTest, RandomInstancesByteIdenticalAndStrictlyFewerNodes) {
  int strictlyFewer = 0;
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const GeneratedProblem gp = generateRandomProblem(smallConfig(seed));
    const std::optional<Seed> incumbent =
        warmSeed(gp.problem, defaultHorizon(gp.problem));
    ASSERT_TRUE(incumbent.has_value()) << "seed " << seed;
    const SearchRun cold = runExhaustive(gp.problem, std::nullopt);
    const SearchRun warm = runExhaustive(gp.problem, incumbent);
    EXPECT_EQ(warm.starts, cold.starts) << "seed " << seed;
    EXPECT_EQ(warm.costMwt, cold.costMwt) << "seed " << seed;
    EXPECT_EQ(warm.finishTicks, cold.finishTicks) << "seed " << seed;
    EXPECT_LE(warm.nodes, cold.nodes) << "seed " << seed;
    if (warm.nodes < cold.nodes) ++strictlyFewer;
  }
  EXPECT_GE(strictlyFewer, 8)
      << "the warm start must actually prune on most instances";
}

TEST(WarmStartTest, MinPowerWarmStartUnderRaisedPminStaysValid) {
  // The near-miss path's polish: a pipeline schedule, still valid after
  // Pmin rises by 30%, goes to MinPowerScheduler::improve. Pmin is a soft
  // limit, so the plan stays valid and improve() must accept it; gap
  // filling must respect resource exclusivity, so every schedule it
  // returns passes the validator (two resources crowd the tasks onto
  // shared resources).
  int warmRuns = 0;
  for (const std::size_t numTasks : {6, 12, 20}) {
    for (std::uint32_t seed = 1; seed <= 40; ++seed) {
      GeneratorConfig cfg;
      cfg.seed = seed;
      cfg.numTasks = numTasks;
      cfg.numResources = 2;
      const GeneratedProblem gp = generateRandomProblem(cfg);
      const ScheduleResult base = PowerAwareScheduler(gp.problem).schedule();
      if (!base.ok()) continue;
      Problem raised(gp.problem);
      raised.setMinPower(Watts::fromMilliwatts(
          gp.problem.minPower().milliwatts() * 13 / 10));
      const ScheduleResult warm = MinPowerScheduler(raised).improve(
          Schedule(&raised, base.schedule->starts()));
      ++warmRuns;
      ASSERT_TRUE(warm.ok()) << numTasks << " tasks, seed " << seed << ": "
                             << warm.message;
      EXPECT_TRUE(ScheduleValidator(raised).validate(*warm.schedule).valid())
          << numTasks << " tasks, seed " << seed;
    }
  }
  EXPECT_GE(warmRuns, 100) << "the sweep must exercise the warm start";
}

TEST(CachedSolveTest, SecondSolveIsAnExactHitWithIdenticalBytes) {
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(3));
  SolveSpec spec;  // pipeline
  SolveInfo first, second;
  const ScheduleResult a =
      solveThroughCache(&cache, gp.problem, spec, &first);
  const ScheduleResult b =
      solveThroughCache(&cache, gp.problem, spec, &second);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(first.cacheHit);
  EXPECT_TRUE(second.cacheHit);
  EXPECT_EQ(io::scheduleToText(*a.schedule, "x"),
            io::scheduleToText(*b.schedule, "x"));
  // A hit reprints the producing solve's effort numbers.
  EXPECT_EQ(b.stats.longestPathRuns, a.stats.longestPathRuns);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CachedSolveTest, CacheOnAndOffAreByteIdenticalAcrossJobs) {
  const GeneratedProblem gp = generateRandomProblem(smallConfig(5));
  for (const char* scheduler : {"pipeline", "optimal"}) {
    for (const std::size_t jobs :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      SolveSpec spec;
      spec.scheduler = scheduler;
      spec.jobs = jobs;
      const ScheduleResult off =
          solveThroughCache(nullptr, gp.problem, spec);
      ScheduleCache cache;  // fresh: first solve may warm-start, never hit
      const ScheduleResult on =
          solveThroughCache(&cache, gp.problem, spec);
      ASSERT_TRUE(off.ok());
      ASSERT_TRUE(on.ok());
      EXPECT_EQ(io::scheduleToText(*on.schedule, "x"),
                io::scheduleToText(*off.schedule, "x"))
          << scheduler << " jobs=" << jobs;
    }
  }
}

TEST(CachedSolveTest, OptimalSolveWarmStartsThenHits) {
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(7));
  SolveSpec spec;
  spec.scheduler = "optimal";
  SolveInfo first, second;
  const ScheduleResult a =
      solveThroughCache(&cache, gp.problem, spec, &first);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(first.warmStarted);
  EXPECT_TRUE(first.provenOptimal);
  EXPECT_EQ(cache.stats().warmStarts, 1u);
  const ScheduleResult b =
      solveThroughCache(&cache, gp.problem, spec, &second);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(second.cacheHit);
  EXPECT_TRUE(second.provenOptimal);
  EXPECT_EQ(io::scheduleToText(*b.schedule, "x"),
            io::scheduleToText(*a.schedule, "x"));
}

TEST(CachedSolveTest, NearMissRevalidatesOnALimitsDelta) {
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(9));
  SolveSpec spec;  // pipeline
  ASSERT_TRUE(solveThroughCache(&cache, gp.problem, spec).ok());

  // Same skeleton, different Pmin: full canonical hash moves, structural
  // hash does not — the near-miss path must serve via revalidation.
  Problem delta = gp.problem;
  delta.setMinPower(delta.minPower() + Watts::fromWatts(0.5));
  ASSERT_NE(canonicalize(delta).hash, canonicalize(gp.problem).hash);
  ASSERT_EQ(canonicalize(delta).structuralHash,
            canonicalize(gp.problem).structuralHash);
  SolveInfo info;
  const ScheduleResult r = solveThroughCache(&cache, delta, spec, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(info.revalidated);
  EXPECT_TRUE(ScheduleValidator(delta).validate(*r.schedule).valid());
  EXPECT_EQ(cache.stats().revalidations, 1u);

  // The revalidated result is inserted under its own key: the same delta
  // problem now hits exactly.
  SolveInfo again;
  ASSERT_TRUE(solveThroughCache(&cache, delta, spec, &again).ok());
  EXPECT_TRUE(again.cacheHit);
}

TEST(CachedSolveTest, NearMissWithAnInvalidCachedPlanIsAMiss) {
  ScheduleCache cache;
  // Two tasks on one resource, serial by construction.
  Problem base("nm");
  const ResourceId r1 = base.addResource("r1");
  const TaskId a = base.addTask("a", 2_s, 2_W, r1);
  const TaskId b = base.addTask("b", 2_s, 2_W, r1);
  base.minSeparation(a, b, 2_s);
  base.setMaxPower(5_W);
  SolveSpec spec;
  const ScheduleResult cached = solveThroughCache(&cache, base, spec);
  ASSERT_TRUE(cached.ok());

  // Rebuild with a longer "a": delay is NOT structural, so this is a near
  // miss, but the cached starts now overlap on r1. A broken plan is not
  // reused: the request is a miss, solved cold and inserted.
  Problem longer("nm");
  const ResourceId r2 = longer.addResource("r1");
  const TaskId a2 = longer.addTask("a", 4_s, 2_W, r2);
  const TaskId b2 = longer.addTask("b", 2_s, 2_W, r2);
  longer.minSeparation(a2, b2, 2_s);
  longer.setMaxPower(5_W);
  ASSERT_EQ(canonicalize(longer).structuralHash,
            canonicalize(base).structuralHash);
  ASSERT_FALSE(ScheduleValidator(longer)
                   .validate(Schedule(&longer, cached.schedule->starts()))
                   .valid());
  SolveInfo info;
  const ScheduleResult r = solveThroughCache(&cache, longer, spec, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(info.revalidated);
  EXPECT_FALSE(info.servedFromCache());
  EXPECT_EQ(cache.stats().revalidations, 0u);
  EXPECT_EQ(cache.stats().insertions, 2u);

  // The cold rung's answer: byte-identical to a solve without a cache.
  const ScheduleResult uncached = solveThroughCache(nullptr, longer, spec);
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(io::scheduleToText(*r.schedule, "x"),
            io::scheduleToText(*uncached.schedule, "x"));
}

/// `p` re-declared back to front: resources, tasks and constraints in
/// reverse order. Same canonical form, different task ids.
Problem declaredInReverse(const Problem& p) {
  Problem q(p.name());
  const std::vector<ResourceId> resourceIds = p.resourceIds();
  std::vector<ResourceId> resources(resourceIds.size());
  for (auto it = resourceIds.rbegin(); it != resourceIds.rend(); ++it) {
    resources[it->index()] = q.addResource(p.resource(*it).name);
  }
  const std::vector<TaskId> taskIds = p.taskIds();
  std::vector<TaskId> tasks(p.numVertices(), kAnchorTask);
  for (auto it = taskIds.rbegin(); it != taskIds.rend(); ++it) {
    const Task& t = p.task(*it);
    tasks[it->index()] =
        q.addTask(t.name, t.delay, t.power, resources[t.resource.index()]);
    q.setCriticality(tasks[it->index()], t.criticality);
  }
  for (auto it = p.constraints().rbegin(); it != p.constraints().rend();
       ++it) {
    const TaskId from = tasks[it->from.index()];
    const TaskId to = tasks[it->to.index()];
    if (it->kind == TimingConstraint::Kind::kMinSeparation) {
      q.minSeparation(from, to, it->separation);
    } else {
      q.maxSeparation(from, to, it->separation);
    }
  }
  q.setMaxPower(p.maxPower());
  q.setMinPower(p.minPower());
  q.setBackgroundPower(p.backgroundPower());
  return q;
}

/// Start of every task by name — comparable across declaration orders.
std::map<std::string, std::int64_t> startsByName(const Schedule& s) {
  std::map<std::string, std::int64_t> out;
  for (TaskId v : s.problem().taskIds()) {
    out[s.problem().task(v).name] = s.start(v).ticks();
  }
  return out;
}

TEST(CachedSolveTest, PermutedDeclarationHitsThroughCanonicalOrder) {
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(13));
  const Problem permuted = declaredInReverse(gp.problem);
  const CanonicalForm form = canonicalize(gp.problem);
  ASSERT_EQ(canonicalize(permuted).hash, form.hash);
  ASSERT_NE(permuted.task(TaskId(1)).name, gp.problem.task(TaskId(1)).name);

  SolveSpec spec;  // pipeline
  const ScheduleResult a = solveThroughCache(&cache, gp.problem, spec);
  ASSERT_TRUE(a.ok());
  // The entry holds one start per task, in canonical task order — the
  // only form a hit can bind through.
  const CacheKey key{form.hash, optionsFingerprint("pipeline", spec.trials)};
  const std::optional<CacheEntry> entry = cache.peek(key);
  ASSERT_TRUE(entry.has_value());
  ASSERT_EQ(entry->starts.size(), gp.problem.numTasks());

  SolveInfo info;
  const ScheduleResult b = solveThroughCache(&cache, permuted, spec, &info);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(info.cacheHit);
  EXPECT_EQ(startsByName(*b.schedule), startsByName(*a.schedule));
  EXPECT_TRUE(ScheduleValidator(permuted).validate(*b.schedule).valid());
}

TEST(CachedSolveTest, NearMissBindsByCanonicalIndexInEveryDeclaration) {
  // A near miss binds the cached starts by canonical index, like an exact
  // hit: the reversed declaration of the delta problem must be served the
  // same by-name schedule as the original declaration.
  const GeneratedProblem gp = generateRandomProblem(smallConfig(13));
  Problem delta = gp.problem;
  delta.setMaxPower(delta.maxPower() + Watts::fromWatts(1));
  Problem reversed = declaredInReverse(delta);
  ASSERT_NE(reversed.task(TaskId(1)).name, delta.task(TaskId(1)).name);
  ASSERT_EQ(canonicalize(reversed).hash, canonicalize(delta).hash);
  ASSERT_NE(canonicalize(delta).hash, canonicalize(gp.problem).hash);

  SolveSpec spec;  // pipeline
  std::map<std::string, std::int64_t> served[2];
  int side = 0;
  for (const Problem* query : {&delta, &reversed}) {
    ScheduleCache cache;
    ASSERT_TRUE(solveThroughCache(&cache, gp.problem, spec).ok());
    SolveInfo info;
    const ScheduleResult r = solveThroughCache(&cache, *query, spec, &info);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(info.revalidated) << "side " << side;
    EXPECT_TRUE(ScheduleValidator(*query).validate(*r.schedule).valid());
    served[side++] = startsByName(*r.schedule);
  }
  EXPECT_EQ(served[1], served[0]);
}

TEST(CachedSolveTest, EntryLoadedFromDiskBindsThroughItsStarts) {
  const GeneratedProblem gp = generateRandomProblem(smallConfig(13));
  const Problem permuted = declaredInReverse(gp.problem);
  const std::string path = testutil::uniqueTempPath(".json").string();
  SolveSpec spec;  // pipeline
  const CacheKey key{canonicalize(gp.problem).hash,
                     optionsFingerprint("pipeline", spec.trials)};
  ScheduleResult a;
  std::vector<std::int64_t> savedStarts;
  {
    ScheduleCache cache;
    a = solveThroughCache(&cache, gp.problem, spec);
    ASSERT_TRUE(a.ok());
    savedStarts = cache.peek(key).value().starts;
    std::string error;
    ASSERT_TRUE(cache.save(path, &error)) << error;
  }
  ScheduleCache cache;
  std::string error;
  ASSERT_TRUE(cache.load(path, &error)) << error;
  std::remove(path.c_str());
  const std::optional<CacheEntry> entry = cache.peek(key);
  ASSERT_TRUE(entry.has_value());
  ASSERT_EQ(entry->starts.size(), gp.problem.numTasks());
  EXPECT_EQ(entry->starts, savedStarts) << "starts round-trip through disk";

  SolveInfo info;
  const ScheduleResult b = solveThroughCache(&cache, permuted, spec, &info);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(info.cacheHit);
  EXPECT_EQ(startsByName(*b.schedule), startsByName(*a.schedule));
}

TEST(CachedSolveTest, TamperedStartsReadAsAMissNotAWrongAnswer) {
  const GeneratedProblem gp = generateRandomProblem(smallConfig(13));
  const CanonicalForm form = canonicalize(gp.problem);
  SolveSpec spec;  // pipeline
  const CacheKey key{form.hash, optionsFingerprint("pipeline", spec.trials)};
  const ScheduleResult cold = solveThroughCache(nullptr, gp.problem, spec);
  ASSERT_TRUE(cold.ok());

  // Wrong length, then the right length with every task at 0 —
  // overlapping on a shared resource, so invalid.
  for (const bool wrongLength : {true, false}) {
    ScheduleCache cache;
    ASSERT_TRUE(solveThroughCache(&cache, gp.problem, spec).ok());
    std::optional<CacheEntry> entry = cache.peek(key);
    ASSERT_TRUE(entry.has_value());
    if (wrongLength) {
      entry->starts.pop_back();
    } else {
      std::fill(entry->starts.begin(), entry->starts.end(), 0);
    }
    cache.insert(key, *entry);
    SolveInfo info;
    const ScheduleResult r = solveThroughCache(&cache, gp.problem, spec, &info);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(info.cacheHit) << "wrong length: " << wrongLength;
    EXPECT_EQ(io::scheduleToText(*r.schedule, "x"),
              io::scheduleToText(*cold.schedule, "x"));
  }
}

TEST(CachedSolveTest, HashCollisionServesAMissNotAWrongAnswer) {
  // Force the pathological case by inserting, under the right key, the
  // starts of some other problem with one task more: they cannot bind to
  // the querying problem, exactly nor as a near miss, so the resolver must
  // fall through to a cold solve, never serve garbage.
  ScheduleCache cache;
  const GeneratedProblem gp = generateRandomProblem(smallConfig(11));
  SolveSpec spec;
  const CanonicalForm form = canonicalize(gp.problem);
  CacheEntry poisoned;
  poisoned.starts.assign(gp.problem.numTasks() + 1, 0);
  poisoned.structuralHash = form.structuralHash;
  cache.insert(CacheKey{form.hash, optionsFingerprint("pipeline", 4)},
               poisoned);
  SolveInfo info;
  const ScheduleResult r = solveThroughCache(&cache, gp.problem, spec, &info);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(info.cacheHit);
  EXPECT_FALSE(info.revalidated);
  EXPECT_TRUE(ScheduleValidator(gp.problem).validate(*r.schedule).valid());
}

}  // namespace
}  // namespace paws::cache
