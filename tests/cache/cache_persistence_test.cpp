// Persistence hardening for ScheduleCache: truncated, corrupt, and
// newer-schema cache files must produce a *structured* skip — a false
// return with a descriptive error and a cache.load_* count — never an
// abort, a throw, or a poisoned cache. The byte-chopping loop is the
// regression net: every prefix of a valid file must be survivable.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cache/schedule_cache.hpp"
#include "io/parser.hpp"
#include "support/temp_path.hpp"

namespace paws::cache {
namespace {

class PersistenceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::uniqueTempPath("");
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / ScheduleCache::kFileName()).string();
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  void writeFile(const std::string& body) {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out);
    out << body;
  }

  /// A valid two-entry schema-2 file produced by save() itself.
  std::string goldenFile() {
    ScheduleCache cache(8, 1);
    CacheEntry a;
    a.starts = {0, 7, 42};
    a.structuralHash = 0xfeed;
    cache.insert(CacheKey{0xabc, 0x1}, a);
    CacheEntry b;
    b.starts = {3};
    cache.insert(CacheKey{0xdef, 0x1}, b);
    std::string error;
    EXPECT_TRUE(cache.save(path_, &error)) << error;
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(PersistenceFixture, EveryByteChoppedPrefixIsAStructuredSkip) {
  const std::string golden = goldenFile();
  ASSERT_GT(golden.size(), 100u);
  // Chop at every prefix length: each truncation either parses to a
  // (possibly partial) load or is rejected with an error — no aborts, no
  // stale entries surviving into the next attempt's count.
  for (std::size_t cut = 0; cut < golden.size(); ++cut) {
    writeFile(golden.substr(0, cut));
    ScheduleCache cache;
    std::string error = "sentinel";
    const bool ok = cache.load(path_, &error);
    const CacheStats s = cache.stats();
    if (ok) {
      EXPECT_LE(cache.size(), 2u) << "cut=" << cut;
    } else {
      EXPECT_FALSE(error.empty()) << "cut=" << cut;
      EXPECT_EQ(s.loadRejectedFiles, 1u) << "cut=" << cut;
      EXPECT_EQ(cache.size(), 0u) << "cut=" << cut;
    }
  }
}

TEST_F(PersistenceFixture, NewerSchemaIsRejectedNotGuessedAt) {
  writeFile("{\"schema\": 3, \"entries\": [{\"problem_hash\": \"1\","
            " \"options_fp\": \"1\", \"starts\": [0]}]}\n");
  ScheduleCache cache;
  std::string error;
  EXPECT_FALSE(cache.load(path_, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  EXPECT_EQ(cache.stats().loadRejectedFiles, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PersistenceFixture, SchemaOneFileIsRefusedWhole) {
  // Schema 1 stored `.paws` schedule text; nothing in it binds by index.
  writeFile(R"({"schema": 1, "entries": [
    {"problem_hash": "abc", "options_fp": "1",
     "schedule": "schedule \"x\" of \"p\" {\n}\n"}
  ]})");
  ScheduleCache cache;
  std::string error;
  EXPECT_FALSE(cache.load(path_, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);
  EXPECT_EQ(cache.stats().loadRejectedFiles, 1u);
  EXPECT_EQ(cache.stats().loadSkippedEntries, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PersistenceFixture, MalformedEntriesSkipWhileHealthyOnesLoad) {
  writeFile(R"({"schema": 2, "entries": [
    {"problem_hash": "abc", "options_fp": "1", "starts": [0, 4]},
    {"problem_hash": "xyzzy!", "options_fp": "1", "starts": [0]},
    {"problem_hash": "abc"},
    "not even an object",
    {"problem_hash": 123, "options_fp": "1", "starts": [0]},
    {"problem_hash": "def", "options_fp": "1", "starts": [2, 0]}
  ]})");
  ScheduleCache cache;
  std::string error;
  EXPECT_TRUE(cache.load(path_, &error)) << error;
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().loadSkippedEntries, 4u);
  EXPECT_EQ(cache.stats().loadRejectedFiles, 0u);
  EXPECT_TRUE(cache.lookup(CacheKey{0xabc, 0x1}).has_value());
  EXPECT_TRUE(cache.lookup(CacheKey{0xdef, 0x1}).has_value());
}

TEST_F(PersistenceFixture, StartsOutsideTheParserBoundsAreSkipped) {
  // `starts` become start times of the querying problem, so the loader
  // holds them to the parser's own bounds: at most io::kMaxTasks integers
  // in [0, io::kMaxAbsTicks]. Only the entries at the bounds load.
  const auto entry = [](const std::string& key, const std::string& starts) {
    return "{\"problem_hash\": \"" + key +
           "\", \"options_fp\": \"1\", \"starts\": " + starts + "}";
  };
  const auto zeros = [](std::size_t n) {
    std::string out = "[";
    for (std::size_t i = 0; i < n; ++i) out += i == 0 ? "0" : ", 0";
    return out + "]";
  };
  const std::string maxTicks = std::to_string(io::kMaxAbsTicks);
  writeFile("{\"schema\": 2, \"entries\": [" +
            entry("1", "[0, " + maxTicks + "]") + ", " +
            entry("2", zeros(io::kMaxTasks)) + ", " +
            entry("3", "\"0 1\"") + ", " +
            entry("4", "[0, 1.5]") + ", " +
            entry("5", "[-1]") + ", " +
            entry("6", "[" + std::to_string(io::kMaxAbsTicks + 1) + "]") +
            ", " + entry("7", "[99999999999999999999]") + ", " +
            entry("8", "[\"3\"]") + ", " +
            entry("9", "[null]") + ", " +
            entry("a", zeros(io::kMaxTasks + 1)) + "]}");
  ScheduleCache cache;
  std::string error;
  EXPECT_TRUE(cache.load(path_, &error)) << error;
  EXPECT_EQ(cache.stats().loadSkippedEntries, 8u);
  EXPECT_EQ(cache.size(), 2u);
  const std::optional<CacheEntry> atMax = cache.peek(CacheKey{0x1, 0x1});
  ASSERT_TRUE(atMax.has_value());
  EXPECT_EQ(atMax->starts,
            (std::vector<std::int64_t>{0, io::kMaxAbsTicks}));
  const std::optional<CacheEntry> longest = cache.peek(CacheKey{0x2, 0x1});
  ASSERT_TRUE(longest.has_value());
  EXPECT_EQ(longest->starts.size(), io::kMaxTasks);
}

TEST_F(PersistenceFixture, OverlongHexKeyIsSkippedNotTruncated) {
  writeFile(R"({"schema": 2, "entries": [
    {"problem_hash": "00000000000000000a", "options_fp": "1",
     "starts": [0]}
  ]})");
  ScheduleCache cache;
  EXPECT_TRUE(cache.load(path_));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().loadSkippedEntries, 1u);
}

TEST_F(PersistenceFixture, DamagedStructuralHashDegradesToNoNearMissIndex) {
  writeFile(R"({"schema": 2, "entries": [
    {"problem_hash": "abc", "options_fp": "1", "starts": [0],
     "structural_hash": "zz-not-hex"}
  ]})");
  ScheduleCache cache;
  EXPECT_TRUE(cache.load(path_));
  // Entry still serves by exact key; only the near-miss index is lost.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().loadSkippedEntries, 0u);
  EXPECT_TRUE(cache.lookup(CacheKey{0xabc, 0x1}).has_value());
}

TEST_F(PersistenceFixture, LoadCountersReachTheMetricsRegistry) {
  writeFile("][");
  ScheduleCache cache;
  EXPECT_FALSE(cache.load(path_));
  obs::MetricsRegistry registry;
  cache.exportMetrics(registry);
  EXPECT_EQ(registry.counter("cache.load_rejected_files"), 1u);
  EXPECT_EQ(registry.counter("cache.load_skipped_entries"), 0u);
}

TEST_F(PersistenceFixture, BinaryGarbageNeverAborts) {
  std::string noise;
  noise.reserve(4096);
  // Deterministic pseudo-noise covering all byte values incl. NULs.
  std::uint32_t x = 0x9e3779b9u;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    noise.push_back(static_cast<char>(x & 0xff));
  }
  writeFile(noise);
  ScheduleCache cache;
  std::string error;
  EXPECT_FALSE(cache.load(path_, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(cache.stats().loadRejectedFiles, 1u);
}

}  // namespace
}  // namespace paws::cache
