// Property test for the incremental power::ProfileEngine — the power-side
// mirror of tests/graph/longest_path_restore_test.cpp: any sequence of
// {addTask, removeTask, moveTask, checkpoint, restore, release} must leave
// the engine byte-identical to a PowerProfileBuilder full rebuild over the
// same live contributions — the merged segment list AND every cached
// aggregate (finish, Ec(Pmin), capped energy, utilization, first-spike
// cursor, gap list, active-task index).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "base/interval.hpp"
#include "power/profile.hpp"
#include "power/profile_engine.hpp"

namespace paws {
namespace {

using power::ProfileEngine;

std::uint32_t nextRand(std::uint32_t& state) {
  std::uint32_t x = state;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return state = x;
}

struct Model {
  Watts background;
  Watts pmin;
  Watts pmax;
  // Live contributions, by task id.
  std::map<std::uint32_t, std::pair<Interval, Watts>> tasks;

  [[nodiscard]] PowerProfile rebuild() const {
    PowerProfileBuilder builder;
    for (const auto& [id, contribution] : tasks) {
      builder.add(contribution.first, contribution.second);
    }
    return builder.build(background);
  }
};

/// Every query the engine caches, checked against a full rebuild.
void expectMatchesRebuild(const Model& model, const ProfileEngine& engine,
                          std::uint32_t& rng) {
  const PowerProfile full = model.rebuild();

  ASSERT_EQ(engine.finish(), full.finish());
  ASSERT_EQ(engine.energyAbove(), full.energyAbove(model.pmin));
  ASSERT_EQ(engine.energyCapped(), full.energyCappedAt(model.pmin));
  ASSERT_EQ(engine.utilization(), full.utilization(model.pmin));

  // Exact merged segment list.
  const PowerProfile snap = engine.snapshot();
  ASSERT_EQ(snap.segments().size(), full.segments().size());
  for (std::size_t i = 0; i < full.segments().size(); ++i) {
    ASSERT_EQ(snap.segments()[i].interval, full.segments()[i].interval)
        << "segment " << i;
    ASSERT_EQ(snap.segments()[i].power, full.segments()[i].power)
        << "segment " << i;
  }

  // Spike cursor, probed from several origins, and the gap list.
  const std::vector<Time> froms = {
      Time::minusInfinity(), Time(0), Time(1),
      Time(static_cast<std::int64_t>(nextRand(rng) % 40)),
      engine.finish(),
  };
  for (const Time from : froms) {
    ASSERT_EQ(engine.firstSpike(from), full.firstSpike(model.pmax, from))
        << "firstSpike from " << from.ticks();
  }
  ASSERT_EQ(engine.gaps(), full.gaps(model.pmin));

  // Point probes: value and the active-interval index.
  for (int probe = 0; probe < 6; ++probe) {
    const Time t(static_cast<std::int64_t>(nextRand(rng) % 45) - 2);
    ASSERT_EQ(engine.valueAt(t), full.valueAt(t)) << "t=" << t.ticks();
    std::vector<TaskId> expected;
    for (const auto& [id, contribution] : model.tasks) {
      if (contribution.first.contains(t)) expected.emplace_back(id);
    }
    ASSERT_EQ(engine.activeAt(t), expected) << "t=" << t.ticks();
  }
}

struct Frame {
  ProfileEngine::Checkpoint cp;
  std::map<std::uint32_t, std::pair<Interval, Watts>> tasks;  // model state
};

TEST(ProfileEnginePropertiesTest, RandomOpSequencesMatchFullRebuild) {
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    std::uint32_t rng = seed;
    Model model;
    model.background = Watts::fromMilliwatts(nextRand(rng) % 3 * 500);
    model.pmin = Watts::fromMilliwatts(1000 + nextRand(rng) % 4000);
    model.pmax = model.pmin + Watts::fromMilliwatts(nextRand(rng) % 5000);
    ProfileEngine engine(model.background, model.pmin, model.pmax);

    const std::uint32_t numIds = 6 + nextRand(rng) % 6;
    std::uint32_t nextId = 1;

    const auto randomInterval = [&rng] {
      const Time begin(static_cast<std::int64_t>(nextRand(rng) % 30));
      const Duration len(static_cast<std::int64_t>(nextRand(rng) % 8));
      return Interval(begin, begin + len);  // occasionally empty (len 0)
    };
    const auto randomWatts = [&rng] {
      // Zero power now and then: must still extend the span.
      const std::uint32_t mw = nextRand(rng) % 5;
      return Watts::fromMilliwatts(static_cast<std::int64_t>(mw) * 900);
    };

    const auto doAdd = [&] {
      const std::uint32_t id = nextId++;
      const Interval iv = randomInterval();
      const Watts w = randomWatts();
      engine.addTask(TaskId(id), iv, w);
      model.tasks.emplace(id, std::make_pair(iv, w));
    };
    const auto doRemove = [&] {
      if (model.tasks.empty()) return;
      auto it = model.tasks.begin();
      std::advance(it, nextRand(rng) % model.tasks.size());
      engine.removeTask(TaskId(it->first));
      model.tasks.erase(it);
    };
    const auto doMove = [&] {
      if (model.tasks.empty()) return;
      auto it = model.tasks.begin();
      std::advance(it, nextRand(rng) % model.tasks.size());
      const Time newStart(static_cast<std::int64_t>(nextRand(rng) % 30));
      engine.moveTask(TaskId(it->first), newStart);
      it->second.first =
          Interval(newStart, newStart + it->second.first.length());
    };

    for (std::uint32_t i = 0; i < numIds / 2; ++i) doAdd();
    expectMatchesRebuild(model, engine, rng);

    std::vector<Frame> stack;
    for (int op = 0; op < 80; ++op) {
      const std::uint32_t pick = nextRand(rng) % 12;
      if (pick < 3 && stack.size() < 5) {
        // Open a frame, then mutate inside it.
        stack.push_back(Frame{engine.checkpoint(), model.tasks});
        const std::uint32_t ops = 1 + nextRand(rng) % 3;
        for (std::uint32_t j = 0; j < ops; ++j) {
          const std::uint32_t inner = nextRand(rng) % 3;
          if (inner == 0) {
            doAdd();
          } else if (inner == 1) {
            doRemove();
          } else {
            doMove();
          }
        }
      } else if (pick < 5 && !stack.empty()) {
        // Undo the innermost frame exactly.
        engine.restore(stack.back().cp);
        model.tasks = std::move(stack.back().tasks);
        stack.pop_back();
      } else if (pick == 5 && !stack.empty()) {
        // Keep the innermost frame's mutations.
        engine.release(stack.back().cp);
        stack.pop_back();
      } else if (pick < 8) {
        doAdd();
      } else if (pick < 10) {
        doRemove();
      } else {
        doMove();
      }
      expectMatchesRebuild(model, engine, rng);
    }

    // Unwind the remaining frames, checking at every level.
    while (!stack.empty()) {
      engine.restore(stack.back().cp);
      model.tasks = std::move(stack.back().tasks);
      stack.pop_back();
      expectMatchesRebuild(model, engine, rng);
    }
  }
}

TEST(ProfileEnginePropertiesTest, MetricsCountersTrackOps) {
  ProfileEngine engine(Watts::zero(), Watts::fromWatts(1.0),
                       Watts::fromWatts(10.0));
  engine.addTask(TaskId(1), Interval(Time(0), Time(5)),
                 Watts::fromWatts(2.0));
  engine.addTask(TaskId(2), Interval(Time(3), Time(8)),
                 Watts::fromWatts(3.0));
  EXPECT_EQ(engine.incrementalUpdates(), 2u);
  const auto cp = engine.checkpoint();
  engine.moveTask(TaskId(1), Time(6));
  EXPECT_EQ(engine.incrementalUpdates(), 3u);
  engine.restore(cp);
  EXPECT_EQ(engine.restores(), 1u);
  EXPECT_EQ(engine.taskInterval(TaskId(1)), Interval(Time(0), Time(5)));
  EXPECT_EQ(engine.rebuilds(), 0u);
}

}  // namespace
}  // namespace paws
