#include "core/parse_cache.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/template_store.h"
#include "log/record.h"
#include "sql/fingerprint.h"
#include "util/thread_pool.h"

namespace sqlog::core {
namespace {

log::QueryLog MakeLog(const std::vector<std::string>& statements) {
  log::QueryLog log;
  int64_t clock_ms = 1000000;
  for (size_t i = 0; i < statements.size(); ++i) {
    log::LogRecord record;
    record.seq = i;
    record.user = (i % 2 == 0) ? "alice" : "bob";
    record.timestamp_ms = (clock_ms += 2000);
    record.statement = statements[i];
    log.Append(std::move(record));
  }
  return log;
}

struct ParseRun {
  TemplateStore store;
  ParsedLog parsed;
};

ParseRun Parse(const log::QueryLog& log, const ParseCacheOptions& options,
          size_t max_diagnostics = 8, util::ThreadPool* pool = nullptr) {
  ParseRun run;
  run.parsed = ParseLog(log, run.store, pool, max_diagnostics, options);
  return run;
}

ParseCacheOptions CacheOff() {
  ParseCacheOptions options;
  options.enabled = false;
  return options;
}

/// Asserts the cached run observable-for-observable equal to the
/// uncached reference (everything but facts.ast, which hits drop by
/// design).
void ExpectSameOutput(const ParseRun& want, const ParseRun& got) {
  ASSERT_EQ(want.parsed.queries.size(), got.parsed.queries.size());
  for (size_t i = 0; i < want.parsed.queries.size(); ++i) {
    const ParsedQuery& a = want.parsed.queries[i];
    const ParsedQuery& b = got.parsed.queries[i];
    EXPECT_EQ(a.record_index, b.record_index) << i;
    EXPECT_EQ(a.template_id, b.template_id) << i;
    EXPECT_EQ(a.user_id, b.user_id) << i;
    EXPECT_TRUE(a.facts.tmpl == b.facts.tmpl) << i;
    EXPECT_EQ(a.facts.sc, b.facts.sc) << i;
    EXPECT_EQ(a.facts.fc, b.facts.fc) << i;
    EXPECT_EQ(a.facts.wc, b.facts.wc) << i;
    EXPECT_EQ(a.facts.selects_star, b.facts.selects_star) << i;
    EXPECT_EQ(a.facts.selected_columns, b.facts.selected_columns) << i;
    EXPECT_EQ(a.facts.tables, b.facts.tables) << i;
    EXPECT_EQ(a.facts.table_functions, b.facts.table_functions) << i;
    EXPECT_EQ(a.facts.where_conjunctive, b.facts.where_conjunctive) << i;
    ASSERT_EQ(a.facts.predicates.size(), b.facts.predicates.size()) << i;
    for (size_t p = 0; p < a.facts.predicates.size(); ++p) {
      const sql::Predicate& x = a.facts.predicates[p];
      const sql::Predicate& y = b.facts.predicates[p];
      EXPECT_EQ(x.op, y.op) << i << "/" << p;
      EXPECT_EQ(x.qualifier, y.qualifier) << i << "/" << p;
      EXPECT_EQ(x.column, y.column) << i << "/" << p;
      EXPECT_EQ(x.values, y.values) << i << "/" << p;
      EXPECT_EQ(x.constant_comparison, y.constant_comparison) << i << "/" << p;
      EXPECT_EQ(x.compares_to_null_literal, y.compares_to_null_literal) << i << "/" << p;
    }
  }
  EXPECT_EQ(want.parsed.non_select_count, got.parsed.non_select_count);
  EXPECT_EQ(want.parsed.syntax_error_count, got.parsed.syntax_error_count);
  ASSERT_EQ(want.parsed.diagnostics.size(), got.parsed.diagnostics.size());
  for (size_t i = 0; i < want.parsed.diagnostics.size(); ++i) {
    EXPECT_EQ(want.parsed.diagnostics[i].record_index,
              got.parsed.diagnostics[i].record_index);
    EXPECT_EQ(want.parsed.diagnostics[i].message, got.parsed.diagnostics[i].message);
  }
  EXPECT_EQ(want.parsed.user_streams, got.parsed.user_streams);
  EXPECT_EQ(want.parsed.user_names, got.parsed.user_names);
  ASSERT_EQ(want.store.size(), got.store.size());
  for (size_t id = 0; id < want.store.size(); ++id) {
    const TemplateInfo& a = want.store.Get(id);
    const TemplateInfo& b = got.store.Get(id);
    EXPECT_TRUE(a.tmpl == b.tmpl) << id;
    EXPECT_EQ(a.frequency, b.frequency) << id;
    EXPECT_EQ(a.users, b.users) << id;
    EXPECT_EQ(a.first_query, b.first_query) << id;
  }
}

TEST(ParseCacheTest, RepeatedTemplateHitsAndRendersIdenticalFacts) {
  auto log = MakeLog({
      "SELECT a FROM t WHERE x = 1",
      "select A from T where x = 2",  // same key: identifiers case-fold
      "SELECT a FROM t WHERE x = 3",
  });
  ParseRun reference = Parse(log, CacheOff());
  ParseRun cached = Parse(log, ParseCacheOptions{});
  ExpectSameOutput(reference, cached);

  EXPECT_EQ(cached.parsed.parse_stats.cache_misses, 1u);
  EXPECT_EQ(cached.parsed.parse_stats.cache_hits, 2u);
  EXPECT_EQ(cached.parsed.parse_stats.full_parses, 1u);
  EXPECT_EQ(cached.parsed.parse_stats.parses_avoided(), 2u);
  EXPECT_EQ(cached.parsed.parse_stats.templates_cached, 1u);
  EXPECT_GT(cached.parsed.parse_stats.cache_bytes, 0u);
  // The uncached run parses everything and touches no cache.
  EXPECT_EQ(reference.parsed.parse_stats.full_parses, 3u);
  EXPECT_EQ(reference.parsed.parse_stats.cache_hits, 0u);

  // Hits drop the AST by design; the miss that built the entry keeps it.
  EXPECT_NE(cached.parsed.queries[0].facts.ast, nullptr);
  EXPECT_EQ(cached.parsed.queries[1].facts.ast, nullptr);
  // The rendered facts carry the statement's own literals.
  EXPECT_EQ(cached.parsed.queries[1].facts.wc, "where x = 2");
  ASSERT_EQ(cached.parsed.queries[1].facts.predicates.size(), 1u);
  EXPECT_EQ(cached.parsed.queries[1].facts.predicates[0].values,
            std::vector<std::string>{"2"});
}

TEST(ParseCacheTest, StreamingParserKeepsMissAstsAcrossBatchesUntilReleased) {
  auto log = MakeLog({
      "SELECT a FROM t WHERE x = 1",
      "SELECT a FROM t WHERE x = 2",  // hit on the entry batch 1 built
      "SELECT b FROM u",
  });
  const std::vector<log::LogRecord>& records = log.records();
  TemplateStore store;
  StreamingParser parser(store);
  parser.FeedBatch(std::span(records).first(1));
  parser.FeedBatch(std::span(records).subspan(1));
  ParsedLog parsed = parser.Finish();
  ASSERT_EQ(parsed.queries.size(), 3u);
  EXPECT_NE(parsed.queries[0].facts.ast, nullptr);  // miss, fed a batch earlier
  EXPECT_EQ(parsed.queries[1].facts.ast, nullptr);  // hit
  EXPECT_NE(parsed.queries[2].facts.ast, nullptr);  // miss

  TemplateStore released_store;
  StreamingParser released(released_store);
  released.FeedBatch(records);
  released.ReleaseAsts();
  for (const ParsedQuery& query : released.Finish().queries) {
    EXPECT_EQ(query.facts.ast, nullptr) << "record " << query.record_index;
  }
}

TEST(ParseCacheTest, StringEscapesNegativeNumbersAndVariablesRenderExactly) {
  auto log = MakeLog({
      "SELECT a FROM t WHERE s = 'it''s' AND n = -5 AND v = @x",
      "SELECT a FROM t WHERE s = 'plain' AND n = -7.5 AND v = @x",
      "SELECT a FROM t WHERE s = '' AND n = -12 AND v = @x",
  });
  ParseRun reference = Parse(log, CacheOff());
  ParseRun cached = Parse(log, ParseCacheOptions{});
  ExpectSameOutput(reference, cached);
  EXPECT_EQ(cached.parsed.parse_stats.cache_hits, 2u);
  // Quote doubling must survive the round trip through the recipe.
  EXPECT_NE(cached.parsed.queries[0].facts.wc.find("'it''s'"), std::string::npos);
}

TEST(ParseCacheTest, TopCountIsStructuralAndSplitsTemplates) {
  auto log = MakeLog({
      "SELECT TOP 5 a FROM t WHERE x = 1",
      "SELECT TOP 7 a FROM t WHERE x = 1",  // different TOP ⇒ different key
      "SELECT TOP 5 a FROM t WHERE x = 9",  // same TOP ⇒ hit
  });
  ParseRun reference = Parse(log, CacheOff());
  ParseRun cached = Parse(log, ParseCacheOptions{});
  ExpectSameOutput(reference, cached);
  EXPECT_EQ(cached.parsed.parse_stats.cache_misses, 2u);
  EXPECT_EQ(cached.parsed.parse_stats.cache_hits, 1u);
  EXPECT_NE(cached.parsed.queries[0].template_id, cached.parsed.queries[1].template_id);
  EXPECT_EQ(cached.parsed.queries[0].template_id, cached.parsed.queries[2].template_id);
}

TEST(ParseCacheTest, ForcedCollisionFallsBackToFullKeyComparison) {
  // Distinct templates that all hash to the same constant fingerprint
  // must still be told apart — Find compares the full normalized key.
  auto log = MakeLog({
      "SELECT a FROM t WHERE x = 1",
      "SELECT b FROM u WHERE y = 2",
      "SELECT a FROM t WHERE x = 3",
      "SELECT b FROM u WHERE y = 4",
      "SELECT c, d FROM v",
  });
  ParseRun reference = Parse(log, CacheOff());
  ParseCacheOptions collide;
  collide.fingerprint_for_test = [](std::string_view) {
    return sql::TokenFingerprint{0x1234, 0x5678};
  };
  ParseRun collided = Parse(log, collide);
  ExpectSameOutput(reference, collided);
  // Three distinct keys live side by side in the one bucket; the two
  // repeats still hit their own entries.
  EXPECT_EQ(collided.parsed.parse_stats.templates_cached, 3u);
  EXPECT_EQ(collided.parsed.parse_stats.cache_misses, 3u);
  EXPECT_EQ(collided.parsed.parse_stats.cache_hits, 2u);
}

TEST(ParseCacheTest, LiteralSubjectCaseIsUncacheableButCorrect) {
  // Simple-form CASE with a literal subject: normalization to searched
  // form clones the subject into every branch, so the printed clause has
  // more literal slots than the source has literal tokens — recipe
  // validation rejects the entry and every repeat takes the full parser.
  const std::string simple_case =
      "SELECT CASE 3 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END FROM t";
  auto log = MakeLog({simple_case, simple_case, simple_case});
  ParseRun reference = Parse(log, CacheOff());
  ASSERT_EQ(reference.parsed.queries.size(), 3u) << "simple CASE must parse";
  ParseRun cached = Parse(log, ParseCacheOptions{});
  ExpectSameOutput(reference, cached);
  EXPECT_EQ(cached.parsed.parse_stats.uncacheable_hits, 2u);
  EXPECT_EQ(cached.parsed.parse_stats.cache_hits, 0u);
  EXPECT_EQ(cached.parsed.parse_stats.full_parses, 3u);
}

TEST(ParseCacheTest, ParseFailuresAreCachedWithoutLosingDiagnostics) {
  auto log = MakeLog({
      "SELECT FROM WHERE",
      "SELECT FROM WHERE",
      "SELECT FROM WHERE",
  });
  // Diagnostics requested: every failure hit re-parses for its message,
  // so the messages are byte-identical to the uncached run.
  ParseRun reference = Parse(log, CacheOff(), /*max_diagnostics=*/8);
  ParseRun cached = Parse(log, ParseCacheOptions{}, /*max_diagnostics=*/8);
  ExpectSameOutput(reference, cached);
  EXPECT_EQ(cached.parsed.syntax_error_count, 3u);
  EXPECT_EQ(cached.parsed.diagnostics.size(), 3u);

  // No diagnostics requested: repeats short-circuit on the cached
  // failure entry and skip the parser entirely.
  ParseRun quiet = Parse(log, ParseCacheOptions{}, /*max_diagnostics=*/0);
  EXPECT_EQ(quiet.parsed.syntax_error_count, 3u);
  EXPECT_EQ(quiet.parsed.parse_stats.failure_hits, 2u);
  EXPECT_EQ(quiet.parsed.parse_stats.full_parses, 1u);
}

TEST(ParseCacheTest, ShardedParseMatchesSerialWithCacheOn) {
  std::vector<std::string> statements;
  for (int i = 0; i < 200; ++i) {
    statements.push_back("SELECT a FROM t WHERE x = " + std::to_string(i % 7));
    statements.push_back("SELECT b, c FROM u WHERE y LIKE 'p" + std::to_string(i % 3) +
                         "%'");
  }
  auto log = MakeLog(statements);
  ParseRun reference = Parse(log, CacheOff());
  util::ThreadPool pool(8);
  ParseRun sharded = Parse(log, ParseCacheOptions{}, /*max_diagnostics=*/8, &pool);
  ExpectSameOutput(reference, sharded);
  EXPECT_GT(sharded.parsed.parse_stats.cache_hits, 0u);
}

TEST(ParseCacheTest, StreamingParserKeepsItsCacheAcrossBatches) {
  std::vector<std::string> statements;
  for (int i = 0; i < 40; ++i) {
    statements.push_back("SELECT a FROM t WHERE x = " + std::to_string(i));
  }
  auto log = MakeLog(statements);

  ParseRun reference = Parse(log, CacheOff());

  TemplateStore store;
  StreamingParser parser(store, /*max_diagnostics=*/8, nullptr, ParseCacheOptions{});
  std::vector<log::LogRecord> batch;
  for (size_t i = 0; i < log.size(); ++i) {
    batch.push_back(log.records()[i]);
    if (batch.size() == 10) {
      parser.FeedBatch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) parser.FeedBatch(batch);
  ParseRun streamed;
  streamed.parsed = parser.Finish();

  // One miss in the first batch; every later batch hits the persistent
  // cache (the template survives batch boundaries).
  EXPECT_EQ(streamed.parsed.parse_stats.cache_misses, 1u);
  EXPECT_EQ(streamed.parsed.parse_stats.cache_hits, 39u);
  EXPECT_EQ(streamed.parsed.parse_stats.templates_cached, 1u);

  // The streaming path drops ASTs wholesale, so compare the rest against
  // the in-memory reference through the store.
  ASSERT_EQ(streamed.parsed.queries.size(), reference.parsed.queries.size());
  for (size_t i = 0; i < reference.parsed.queries.size(); ++i) {
    EXPECT_EQ(streamed.parsed.queries[i].template_id,
              reference.parsed.queries[i].template_id);
    EXPECT_EQ(streamed.parsed.queries[i].facts.wc, reference.parsed.queries[i].facts.wc);
  }
  ASSERT_EQ(store.size(), reference.store.size());
  for (size_t id = 0; id < store.size(); ++id) {
    EXPECT_TRUE(store.Get(id).tmpl == reference.store.Get(id).tmpl);
    EXPECT_EQ(store.Get(id).frequency, reference.store.Get(id).frequency);
  }
}

TEST(ParseCacheEntryTest, BytesAccountsForKeyAndRecipes) {
  ParseCacheEntry entry;
  size_t empty_bytes = entry.bytes();
  entry.key = std::string(100, 'k');
  entry.sc.pieces.push_back(std::string(50, 'p'));
  EXPECT_GE(entry.bytes(), empty_bytes + 150);
}

}  // namespace
}  // namespace sqlog::core
