#include "core/dedup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "log/generator.h"
#include "util/random.h"

namespace sqlog::core {
namespace {

log::LogRecord Make(int64_t t, const char* user, const char* sql) {
  log::LogRecord record;
  record.timestamp_ms = t;
  record.user = user;
  record.statement = sql;
  return record;
}

TEST(DedupTest, RemovesRepeatWithinThreshold) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(1400, "u", "SELECT 1"));
  DedupStats stats;
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, &stats);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.removed_count, 1u);
  EXPECT_EQ(stats.input_count, 2u);
  EXPECT_EQ(stats.output_count, 1u);
}

TEST(DedupTest, KeepsRepeatBeyondThreshold) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(3000, "u", "SELECT 1"));
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, nullptr);
  EXPECT_EQ(out.size(), 2u);
}

TEST(DedupTest, DifferentUsersAreNotDuplicates) {
  log::QueryLog log;
  log.Append(Make(1000, "a", "SELECT 1"));
  log.Append(Make(1100, "b", "SELECT 1"));
  EXPECT_EQ(RemoveDuplicates(log, DedupOptions{}, nullptr).size(), 2u);
}

TEST(DedupTest, DifferentStatementsAreNotDuplicates) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(1100, "u", "SELECT 2"));
  EXPECT_EQ(RemoveDuplicates(log, DedupOptions{}, nullptr).size(), 2u);
}

TEST(DedupTest, BurstCollapsesByChaining) {
  // 5 reloads 800ms apart: each is within the window of its predecessor,
  // so all but the first disappear even though the last is 3.2s after
  // the first.
  log::QueryLog log;
  for (int i = 0; i < 5; ++i) log.Append(Make(1000 + i * 800, "u", "SELECT 1"));
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, nullptr);
  EXPECT_EQ(out.size(), 1u);
}

TEST(DedupTest, UnrestrictedRemovesAllRepeats) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(9000000, "u", "SELECT 1"));
  DedupOptions options;
  options.unrestricted = true;
  EXPECT_EQ(RemoveDuplicates(log, options, nullptr).size(), 1u);
}

TEST(DedupTest, ThresholdSweepIsMonotone) {
  // Larger thresholds can only remove more (Table 4's shape).
  log::QueryLog log;
  const char* sqls[] = {"SELECT 1", "SELECT 2"};
  int64_t t = 0;
  for (int round = 0; round < 50; ++round) {
    for (const char* sql : sqls) {
      log.Append(Make(t, "u", sql));
      t += 700 * (1 + round % 7);
    }
  }
  size_t prev = log.size();
  size_t previous_out = prev + 1;
  for (int64_t threshold : {1000, 2000, 5000, 10000}) {
    DedupOptions options;
    options.threshold_ms = threshold;
    size_t out = RemoveDuplicates(log, options, nullptr).size();
    EXPECT_LE(out, previous_out) << threshold;
    previous_out = out;
  }
  DedupOptions unrestricted;
  unrestricted.unrestricted = true;
  EXPECT_LE(RemoveDuplicates(log, unrestricted, nullptr).size(), previous_out);
}

TEST(DedupTest, SortsUnorderedInput) {
  log::QueryLog log;
  log.Append(Make(5000, "u", "SELECT 1"));
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(1300, "u", "SELECT 1"));
  // Sorted order: 1000, 1300 (dup), 5000 (kept, gap 3.7s).
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.records()[0].timestamp_ms, 1000);
  EXPECT_EQ(out.records()[1].timestamp_ms, 5000);
}

TEST(DedupTest, OutputIsRenumbered) {
  log::QueryLog log;
  log.Append(Make(1000, "u", "SELECT 1"));
  log.Append(Make(1100, "u", "SELECT 1"));
  log.Append(Make(9000, "u", "SELECT 2"));
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.records()[0].seq, 0u);
  EXPECT_EQ(out.records()[1].seq, 1u);
}

TEST(DedupTest, EmptyLog) {
  log::QueryLog log;
  DedupStats stats;
  EXPECT_EQ(RemoveDuplicates(log, DedupOptions{}, &stats).size(), 0u);
  EXPECT_EQ(stats.removed_count, 0u);
}

TEST(DedupTest, AnonymousUsersShareOneIdentity) {
  // Without user metadata, identical queries from "different people"
  // within the window collapse — the Sec. 6.8 degradation.
  log::QueryLog log;
  log.Append(Make(1000, "", "SELECT 1"));
  log.Append(Make(1200, "", "SELECT 1"));
  EXPECT_EQ(RemoveDuplicates(log, DedupOptions{}, nullptr).size(), 1u);
}

TEST(DedupTest, HashCollisionBetweenDistinctKeysIsNotADuplicate) {
  // Regression: two different (user, statement) pairs whose 64-bit keys
  // collide used to be chained as one key, silently deleting the second
  // query. Real FNV collisions are infeasible to craft, so the test seam
  // forces *every* key onto one hash — full-string verification must
  // still keep distinct pairs apart.
  log::QueryLog log;
  log.Append(Make(1000, "alice", "SELECT 1"));
  log.Append(Make(1100, "bob", "SELECT 2"));    // collides with alice's key
  log.Append(Make(1200, "alice", "SELECT 1"));  // true duplicate of record 0
  log.Append(Make(1300, "bob", "SELECT 2"));    // true duplicate of record 1
  DedupOptions options;
  options.key_hash_for_test = [](std::string_view, std::string_view) {
    return uint64_t{42};
  };
  DedupStats stats;
  log::QueryLog out = RemoveDuplicates(log, options, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.records()[0].user, "alice");
  EXPECT_EQ(out.records()[1].user, "bob");
  EXPECT_EQ(stats.removed_count, 2u);
}

TEST(DedupTest, CollisionVerificationPreservesChaining) {
  // Under a colliding hash, interleaved bursts of two distinct keys must
  // still chain per key: every repeat is within its own key's window.
  log::QueryLog log;
  for (int i = 0; i < 4; ++i) {
    log.Append(Make(1000 + i * 800, "u", "SELECT 1"));
    log.Append(Make(1400 + i * 800, "v", "SELECT 2"));
  }
  DedupOptions options;
  options.key_hash_for_test = [](std::string_view, std::string_view) {
    return uint64_t{7};
  };
  log::QueryLog out = RemoveDuplicates(log, options, nullptr);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.records()[0].statement, "SELECT 1");
  EXPECT_EQ(out.records()[1].statement, "SELECT 2");
}

TEST(StreamingDeduperTest, MatchesRemoveDuplicatesOnSortedInput) {
  // A mixed workload: bursts, repeats beyond the window, several users,
  // a hash-collision override — fed in time order, the streaming deduper
  // must flag exactly the records RemoveDuplicates drops.
  log::QueryLog log;
  int64_t t = 0;
  const char* users[] = {"a", "b", ""};
  const char* sqls[] = {"SELECT 1", "SELECT 2", "SELECT 3 FROM t"};
  for (int i = 0; i < 120; ++i) {
    t += (i % 5) * 400;  // gaps 0..1600ms: some inside the window, some out
    log.Append(Make(t, users[i % 3], sqls[(i / 2) % 3]));
  }
  log.SortByTime();
  log.Renumber();

  for (bool collide : {false, true}) {
    DedupOptions options;
    if (collide) {
      options.key_hash_for_test = [](std::string_view, std::string_view) {
        return uint64_t{3};
      };
    }
    DedupStats stats;
    log::QueryLog batch_out = RemoveDuplicates(log, options, &stats);

    StreamingDeduper deduper(options);
    log::QueryLog stream_out;
    for (const auto& record : log.records()) {
      if (!deduper.IsDuplicate(record)) stream_out.Append(record);
    }
    stream_out.Renumber();

    ASSERT_EQ(stream_out.size(), batch_out.size()) << "collide=" << collide;
    for (size_t i = 0; i < batch_out.size(); ++i) {
      EXPECT_EQ(stream_out.records()[i].statement, batch_out.records()[i].statement);
      EXPECT_EQ(stream_out.records()[i].timestamp_ms,
                batch_out.records()[i].timestamp_ms);
      EXPECT_EQ(stream_out.records()[i].user, batch_out.records()[i].user);
    }
    EXPECT_EQ(deduper.duplicates_seen(), stats.removed_count);
    EXPECT_EQ(deduper.records_seen(), log.size());
  }
}

TEST(StreamingDeduperTest, CountsLiveKeys) {
  StreamingDeduper deduper(DedupOptions{});
  EXPECT_FALSE(deduper.IsDuplicate(Make(1000, "u", "SELECT 1")));
  EXPECT_TRUE(deduper.IsDuplicate(Make(1100, "u", "SELECT 1")));
  EXPECT_FALSE(deduper.IsDuplicate(Make(1200, "v", "SELECT 1")));
  EXPECT_EQ(deduper.live_keys(), 2u);
  EXPECT_EQ(deduper.records_seen(), 3u);
  EXPECT_EQ(deduper.duplicates_seen(), 1u);
  // 2101 is more than 1000 ms past u's last occurrence (1100) but not
  // past v's (1200): u's key is evicted, v's stays.
  EXPECT_FALSE(deduper.IsDuplicate(Make(2101, "w", "SELECT 1")));
  EXPECT_EQ(deduper.live_keys(), 2u);
  EXPECT_FALSE(deduper.IsDuplicate(Make(5000, "u", "SELECT 1")));
  EXPECT_EQ(deduper.live_keys(), 1u);
}

TEST(StreamingDeduperTest, UnrestrictedKeepsEveryKey) {
  DedupOptions options;
  options.unrestricted = true;
  StreamingDeduper deduper(options);
  EXPECT_FALSE(deduper.IsDuplicate(Make(0, "u", "SELECT 1")));
  EXPECT_FALSE(deduper.IsDuplicate(Make(1000000, "u", "SELECT 2")));
  EXPECT_TRUE(deduper.IsDuplicate(Make(9000000, "u", "SELECT 1")));
  EXPECT_EQ(deduper.live_keys(), 2u);
}

// Regression: the gap `later - earlier` was computed in int64, so the
// same statement at INT64_MIN and INT64_MAX wrapped to a gap of -1 and
// the second record was silently dropped as a duplicate.
constexpr int64_t kMinTs = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxTs = std::numeric_limits<int64_t>::max();

TEST(DedupTest, ExtremeTimestampsDoNotOverflowTheGap) {
  log::QueryLog log;
  log.Append(Make(kMaxTs, "u", "SELECT 1"));
  log.Append(Make(kMinTs, "u", "SELECT 1"));
  DedupStats stats;
  log::QueryLog out = RemoveDuplicates(log, DedupOptions{}, &stats);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.records()[0].timestamp_ms, kMinTs);
  EXPECT_EQ(out.records()[1].timestamp_ms, kMaxTs);
  EXPECT_EQ(stats.removed_count, 0u);
}

TEST(StreamingDeduperTest, ExtremeTimestampsDoNotOverflowTheGap) {
  StreamingDeduper deduper(DedupOptions{});
  EXPECT_FALSE(deduper.IsDuplicate(Make(kMinTs, "u", "SELECT 1")));
  EXPECT_FALSE(deduper.IsDuplicate(Make(kMaxTs, "u", "SELECT 1")));
  EXPECT_EQ(deduper.duplicates_seen(), 0u);

  // At threshold INT64_MAX a gap of exactly INT64_MAX is a duplicate and
  // one of INT64_MAX + 1 is not.
  DedupOptions widest;
  widest.threshold_ms = kMaxTs;
  StreamingDeduper exact(widest);
  EXPECT_FALSE(exact.IsDuplicate(Make(-1, "u", "SELECT 1")));
  EXPECT_TRUE(exact.IsDuplicate(Make(kMaxTs - 1, "u", "SELECT 1")));
  StreamingDeduper beyond(widest);
  EXPECT_FALSE(beyond.IsDuplicate(Make(-1, "u", "SELECT 1")));
  EXPECT_FALSE(beyond.IsDuplicate(Make(kMaxTs, "u", "SELECT 1")));
}

/// The unbounded last-seen rule the deduper must reproduce: every
/// (user, statement) key kept for the whole run, gaps compared exactly
/// in 128-bit arithmetic.
std::vector<bool> ReferenceDuplicates(const std::vector<log::LogRecord>& records,
                                      const DedupOptions& options) {
  std::map<std::pair<std::string, std::string>, int64_t> last_seen;
  std::vector<bool> duplicate;
  for (const log::LogRecord& record : records) {
    auto [it, inserted] =
        last_seen.try_emplace({record.user, record.statement}, record.timestamp_ms);
    bool is_duplicate = false;
    if (!inserted) {
      const __int128 gap = static_cast<__int128>(record.timestamp_ms) - it->second;
      is_duplicate = options.unrestricted || gap <= options.threshold_ms;
      it->second = record.timestamp_ms;
    }
    duplicate.push_back(is_duplicate);
  }
  return duplicate;
}

/// `base + step` when it fits in int64, otherwise `base`.
int64_t AddOrStay(int64_t base, int64_t step) {
  int64_t sum = 0;
  return __builtin_add_overflow(base, step, &sum) ? base : sum;
}

/// A time-ordered log over a few keys. Steps mix equal timestamps, short
/// gaps, gaps of exactly `threshold` and `threshold + 1` after the
/// previous record (often the same key), and jumps towards INT64_MAX.
std::vector<log::LogRecord> RandomOrderedLog(Rng& rng, int64_t threshold, size_t n) {
  static const char* kUsers[] = {"a", "b", ""};
  static const char* kSqls[] = {"SELECT 1", "SELECT 2", "SELECT 3 FROM t"};
  const int64_t starts[] = {kMinTs, -5000, 0};
  int64_t t = starts[rng.Uniform(3)];
  std::vector<log::LogRecord> records;
  size_t user = 0, sql = 0;
  for (size_t i = 0; i < n; ++i) {
    switch (rng.Uniform(8)) {
      case 0: break;  // equal timestamp
      case 1: t = AddOrStay(t, threshold); break;
      case 2: t = AddOrStay(AddOrStay(t, threshold), 1); break;
      case 3: t = AddOrStay(t, rng.UniformRange(1, 3000)); break;
      case 4: t = AddOrStay(t, kMaxTs / 4); break;
      default: t = AddOrStay(t, rng.UniformRange(0, 600)); break;
    }
    if (rng.Chance(0.4)) {  // otherwise repeat the previous key
      user = rng.Uniform(3);
      sql = rng.Uniform(3);
    }
    log::LogRecord record = Make(t, kUsers[user], kSqls[sql]);
    record.seq = i;
    records.push_back(std::move(record));
  }
  return records;
}

TEST(StreamingDeduperTest, EvictionMatchesUnboundedReference) {
  Rng rng(15);
  struct Mode {
    int64_t threshold;
    bool unrestricted;
  };
  const Mode modes[] = {{0, false},          {1, false},         {1000, false},
                        {kMaxTs - 1, false}, {kMaxTs, false},    {1000, true}};
  for (const Mode& mode : modes) {
    for (bool collide : {false, true}) {
      DedupOptions options;
      options.threshold_ms = mode.threshold;
      options.unrestricted = mode.unrestricted;
      if (collide) {
        options.key_hash_for_test = [](std::string_view, std::string_view) {
          return uint64_t{9};
        };
      }
      for (int round = 0; round < 20; ++round) {
        std::vector<log::LogRecord> records = RandomOrderedLog(rng, mode.threshold, 300);
        const std::vector<bool> want = ReferenceDuplicates(records, options);
        SCOPED_TRACE(testing::Message() << "threshold=" << mode.threshold << " unrestricted="
                                        << mode.unrestricted << " collide=" << collide
                                        << " round=" << round);

        StreamingDeduper deduper(options);
        for (size_t i = 0; i < records.size(); ++i) {
          ASSERT_EQ(deduper.IsDuplicate(records[i]), want[i]) << "record " << i;
          ASSERT_LE(deduper.live_keys(), 9u);
        }

        // RemoveDuplicates sorts a shuffled copy back to the same order
        // and must keep exactly the reference's survivors.
        log::QueryLog shuffled(records);
        for (size_t i = records.size(); i > 1; --i) {
          std::swap(shuffled.records()[i - 1], shuffled.records()[rng.Uniform(i)]);
        }
        DedupStats stats;
        log::QueryLog out = RemoveDuplicates(shuffled, options, &stats);
        std::vector<int64_t> want_times;
        for (size_t i = 0; i < records.size(); ++i) {
          if (!want[i]) want_times.push_back(records[i].timestamp_ms);
        }
        ASSERT_EQ(out.size(), want_times.size());
        for (size_t i = 0; i < out.size(); ++i) {
          EXPECT_EQ(out.records()[i].timestamp_ms, want_times[i]) << i;
        }
        EXPECT_EQ(stats.removed_count, records.size() - want_times.size());
      }
    }
  }
}

TEST(StreamingDeduperTest, LiveKeysStayBoundedOnAGeneratorLog) {
  // Counter gate for the window bound: on a realistic log the deduper
  // holds only the keys seen within the last threshold window, not every
  // distinct statement of the log.
  log::GeneratorConfig config;
  config.seed = 1;
  config.target_statements = 100000;
  log::QueryLog log = log::GenerateLog(config);
  log.SortByTime();
  ASSERT_GE(log.size(), 100000u);
  const DedupOptions options;
  const std::vector<bool> want = ReferenceDuplicates(log.records(), options);
  StreamingDeduper deduper(options);
  size_t peak = 0;
  size_t mismatches = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    if (deduper.IsDuplicate(log.records()[i]) != want[i]) ++mismatches;
    peak = std::max(peak, deduper.live_keys());
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(deduper.duplicates_seen(), 0u);
  EXPECT_LE(peak, 64u);
  std::printf("dedup: %zu records, %llu duplicates, peak live keys %zu\n", log.size(),
              (unsigned long long)deduper.duplicates_seen(), peak);
}

}  // namespace
}  // namespace sqlog::core
