#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "catalog/schema.h"
#include "core/rules.h"
#include "log/generator.h"
#include "log/log_io.h"
#include "log/log_stream.h"
#include "util/string_util.h"

namespace sqlog::core {
namespace {

log::LogRecord Make(int64_t t, const char* user, const std::string& sql) {
  log::LogRecord record;
  record.timestamp_ms = t;
  record.user = user;
  record.statement = sql;
  return record;
}

/// A compact hand-crafted log exercising every pipeline stage.
log::QueryLog CraftedLog() {
  log::QueryLog raw;
  // A DW run from one user, tightly spaced (no interleaving even when
  // user metadata is stripped).
  for (int i = 0; i < 4; ++i) {
    raw.Append(Make(1000 + i * 200, "10.0.0.1",
                    StrFormat("SELECT rowc_g, colc_g FROM photoPrimary WHERE objid = %d",
                              100 + i)));
  }
  // A duplicate reload 300 ms after the last run member.
  raw.Append(Make(1900, "10.0.0.1",
                  "SELECT rowc_g, colc_g FROM photoPrimary WHERE objid = 103"));
  // A DS pair from another user.
  raw.Append(Make(50000, "10.0.0.2", "SELECT name FROM Employee WHERE empId = 8"));
  raw.Append(Make(51000, "10.0.0.2", "SELECT address, phone FROM Employee WHERE empId = 8"));
  // Noise.
  raw.Append(Make(60000, "10.0.0.3", "INSERT INTO t VALUES (1)"));
  raw.Append(Make(61000, "10.0.0.3", "SELECT broken FROM"));
  // Ordinary queries.
  raw.Append(Make(70000, "10.0.0.4",
                  "SELECT objid, ra, dec FROM photoPrimary WHERE ra > 10 and ra < 20"));
  raw.Append(Make(90000000, "10.0.0.4",
                  "SELECT objid, ra, dec FROM photoPrimary WHERE ra > 20 and ra < 30"));
  raw.Renumber();
  return raw;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

PipelineResult RunCrafted(PipelineOptions options = {}) {
  static catalog::Schema schema = catalog::MakeSkyServerSchema();
  options.miner.min_support = 1;
  options.detector.cth_min_support = 1;
  Pipeline pipeline(options);
  pipeline.SetSchema(&schema);
  Result<PipelineResult> result = pipeline.Run(CraftedLog());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(PipelineTest, StatsReflectEveryStage) {
  PipelineResult result = RunCrafted();
  EXPECT_EQ(result.stats.original_size, 11u);
  EXPECT_EQ(result.stats.duplicates_removed, 1u);
  EXPECT_EQ(result.stats.after_dedup_size, 10u);
  EXPECT_EQ(result.stats.non_select_count, 1u);
  EXPECT_EQ(result.stats.syntax_error_count, 1u);
  EXPECT_EQ(result.stats.select_count, 8u);
  EXPECT_EQ(result.stats.distinct_dw, 1u);
  EXPECT_EQ(result.stats.queries_dw, 4u);
  EXPECT_EQ(result.stats.distinct_ds, 1u);
  EXPECT_EQ(result.stats.queries_ds, 2u);
  // Clean: DW run (4→1) + DS pair (2→1) + 2 ordinary = 4.
  EXPECT_EQ(result.stats.final_size, 4u);
  // Removal: only the 2 ordinary queries remain.
  EXPECT_EQ(result.stats.removal_size, 2u);
}

TEST(PipelineTest, CleanLogContents) {
  PipelineResult result = RunCrafted();
  std::vector<std::string> statements;
  for (const auto& record : result.clean_log.records()) {
    statements.push_back(record.statement);
  }
  ASSERT_EQ(statements.size(), 4u);
  EXPECT_EQ(statements[0],
            "select objid, rowc_g, colc_g from photoprimary "
            "where objid in (100, 101, 102, 103)");
  EXPECT_EQ(statements[1],
            "select name, address, phone from employee where empid = 8");
}

TEST(PipelineTest, StatsTableRenders) {
  PipelineResult result = RunCrafted();
  std::string table = result.stats.ToTable();
  EXPECT_NE(table.find("Size of original query log"), std::string::npos);
  EXPECT_NE(table.find("11"), std::string::npos);
  EXPECT_NE(table.find("Count of distinct DW-Stifle"), std::string::npos);
}

TEST(PipelineTest, WithoutUserMetadataStillFindsStifles) {
  // Sec. 6.8: strip users; runs still line up by time.
  PipelineOptions options;
  options.use_user_metadata = false;
  PipelineResult result = RunCrafted(options);
  EXPECT_GE(result.stats.queries_dw, 4u);
  // All queries collapse onto the anonymous stream.
  EXPECT_EQ(result.parsed.user_streams.size(), 1u);
}

TEST(PipelineTest, MiningCanBeDisabled) {
  PipelineOptions options;
  options.mine_patterns = false;
  PipelineResult result = RunCrafted(options);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.stats.pattern_count, 0u);
  // Cleaning still works.
  EXPECT_EQ(result.stats.final_size, 4u);
}

TEST(PipelineTest, PatternFlaggingUsesExactSignature) {
  PipelineResult result = RunCrafted();
  bool found_flagged = false;
  bool found_clean = false;
  for (size_t i = 0; i < result.patterns.size(); ++i) {
    if (result.PatternIsAntipattern(i)) {
      found_flagged = true;
    } else {
      found_clean = true;
    }
  }
  EXPECT_TRUE(found_flagged);
  EXPECT_TRUE(found_clean);
}

TEST(PipelineTest, InputLogIsNotModified) {
  log::QueryLog raw = CraftedLog();
  size_t before = raw.size();
  std::string first = raw.records()[0].statement;
  catalog::Schema schema = catalog::MakeSkyServerSchema();
  Pipeline pipeline;
  pipeline.SetSchema(&schema);
  (void)pipeline.Run(raw);
  EXPECT_EQ(raw.size(), before);
  EXPECT_EQ(raw.records()[0].statement, first);
}

TEST(PipelineTest, EmptyLog) {
  Pipeline pipeline;
  PipelineResult result = pipeline.Run(log::QueryLog{}).value();
  EXPECT_EQ(result.stats.original_size, 0u);
  EXPECT_EQ(result.stats.final_size, 0u);
  EXPECT_TRUE(result.patterns.empty());
}

TEST(PipelineTest, ExtraCleanPassesReachFixpoint) {
  // A DS session whose merged outputs line up into a fresh DW run; one
  // extra pass absorbs it.
  log::QueryLog raw;
  int64_t t = 0;
  for (int obj = 0; obj < 3; ++obj) {
    raw.Append(Make(t += 1000, "u",
                    StrFormat("SELECT rowc_r, colc_r FROM photoPrimary WHERE objid = %d",
                              500 + obj)));
    raw.Append(Make(t += 1000, "u",
                    StrFormat("SELECT rowc_g, colc_g FROM photoPrimary WHERE objid = %d",
                              500 + obj)));
  }
  static catalog::Schema schema = catalog::MakeSkyServerSchema();

  PipelineOptions single;
  single.miner.min_support = 1;
  Pipeline pipeline_single(single);
  pipeline_single.SetSchema(&schema);
  PipelineResult one_pass = pipeline_single.Run(raw).value();
  EXPECT_EQ(one_pass.stats.final_size, 3u);  // three merged DS statements

  PipelineOptions multi = single;
  multi.extra_clean_passes = 3;
  Pipeline pipeline_multi(multi);
  pipeline_multi.SetSchema(&schema);
  PipelineResult fixpoint = pipeline_multi.Run(raw).value();
  // The three merged statements share SELECT/FROM and differ in WHERE —
  // a DW run the second pass merges into one IN query.
  EXPECT_EQ(fixpoint.stats.final_size, 1u);
  EXPECT_NE(fixpoint.clean_log.records()[0].statement.find("in ("), std::string::npos);
}

TEST(PipelineTest, WithoutSchemaKeyAxiomIsSkipped) {
  // No schema ⇒ non-key equality filters become Stifle-eligible.
  log::QueryLog raw;
  raw.Append(Make(0, "u", "SELECT a FROM sometable WHERE somecol = 1"));
  raw.Append(Make(1000, "u", "SELECT a FROM sometable WHERE somecol = 2"));
  PipelineOptions options;
  options.miner.min_support = 1;
  Pipeline pipeline(options);
  PipelineResult result = pipeline.Run(raw).value();
  EXPECT_EQ(result.stats.queries_dw, 2u);
}

TEST(PipelineTest, RunRejectsInvalidOptions) {
  PipelineOptions options;
  options.miner.max_length = 0;
  Pipeline pipeline(options);
  Result<PipelineResult> result = pipeline.Run(CraftedLog());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, ParseFailuresBecomeCountedDiagnostics) {
  PipelineResult result = RunCrafted();
  // CraftedLog carries exactly one broken statement.
  EXPECT_EQ(result.stats.syntax_error_count, 1u);
  ASSERT_EQ(result.stats.parse_diagnostics.size(), 1u);
  const ParseDiagnostic& diagnostic = result.stats.parse_diagnostics[0];
  EXPECT_EQ(result.pre_clean.records()[diagnostic.record_index].statement,
            "SELECT broken FROM");
  EXPECT_FALSE(diagnostic.message.empty());
}

TEST(PipelineTest, DiagnosticCapBoundsSamplesNotCounts) {
  log::QueryLog raw;
  for (int i = 0; i < 8; ++i) {
    raw.Append(Make(1000 + i * 100000, "u", StrFormat("SELECT broken%d FROM", i)));
  }
  raw.Renumber();
  PipelineOptions options;
  options.max_parse_diagnostics = 3;
  Pipeline pipeline(options);
  PipelineResult result = pipeline.Run(raw).value();
  EXPECT_EQ(result.stats.syntax_error_count, 8u);
  ASSERT_EQ(result.stats.parse_diagnostics.size(), 3u);
  // Samples are the *first* failures in record order.
  EXPECT_EQ(result.stats.parse_diagnostics[0].record_index, 0u);
  EXPECT_EQ(result.stats.parse_diagnostics[2].record_index, 2u);
}

TEST(PipelineBuilderTest, BuildsConfiguredPipeline) {
  static catalog::Schema schema = catalog::MakeSkyServerSchema();
  MinerOptions miner;
  miner.min_support = 1;
  DetectorOptions detector;
  detector.cth_min_support = 1;
  auto pipeline = PipelineBuilder()
                      .WithSchema(&schema)
                      .WithMiner(miner)
                      .WithDetector(std::move(detector))
                      .NumThreads(2)
                      .ExtraCleanPasses(1)
                      .Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_EQ(pipeline->options().num_threads, 2u);
  EXPECT_EQ(pipeline->options().extra_clean_passes, 1u);
  PipelineResult result = pipeline->Run(CraftedLog()).value();
  EXPECT_EQ(result.stats.final_size, 4u);
  // The schema made it through the builder: Def. 11's key axiom held, so
  // the DW run over objid was detected.
  EXPECT_EQ(result.stats.queries_dw, 4u);
}

TEST(PipelineBuilderTest, RejectsNegativeDedupThreshold) {
  DedupOptions dedup;
  dedup.threshold_ms = -5;
  auto pipeline = PipelineBuilder().WithDedup(dedup).Build();
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pipeline.status().message().find("threshold_ms"), std::string::npos);
}

TEST(PipelineBuilderTest, RejectsZeroLengthMinerNGram) {
  MinerOptions miner;
  miner.max_length = 0;
  auto pipeline = PipelineBuilder().WithMiner(miner).Build();
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pipeline.status().message().find("max_length"), std::string::npos);
}

TEST(PipelineBuilderTest, RejectsOutOfRangeSwsFraction) {
  SwsOptions sws;
  sws.frequency_fraction = 1.5;
  auto pipeline = PipelineBuilder().WithSws(sws).Build();
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineBuilderTest, RejectsDetectHookLessCustomRule) {
  DetectorOptions detector;
  detector.custom_rules.push_back(CustomRule{});  // no detect hook
  auto pipeline = PipelineBuilder().WithDetector(std::move(detector)).Build();
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, ParseCacheOffKeepsEveryAstThroughSolving) {
  PipelineOptions options;
  options.parse_cache = false;
  PipelineResult result = RunCrafted(options);
  EXPECT_GT(result.stats.solve.instances_solved, 0u);
  ASSERT_FALSE(result.parsed.queries.empty());
  for (const auto& query : result.parsed.queries) {
    EXPECT_NE(query.facts.ast, nullptr) << "record " << query.record_index;
  }
}

TEST(PipelineTest, StreamingDropsEveryAstEvenWithTheParseCacheOff) {
  // The streaming adapter bounds memory by dropping each batch's ASTs;
  // the solver re-parses what it rewrites, so solving still happens.
  const std::string input = ::testing::TempDir() + "/ast_policy_input.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(CraftedLog(), input).ok());
  PipelineOptions options;
  options.parse_cache = false;
  options.miner.min_support = 1;
  log::DiscardingWriter clean, removal;
  auto run = Pipeline(options).RunStreaming(input, clean, removal);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->stats.solve.instances_solved, 0u);
  EXPECT_EQ(clean.records_written(), run->stats.final_size);
  ASSERT_FALSE(run->parsed.queries.empty());
  for (const auto& query : run->parsed.queries) {
    EXPECT_EQ(query.facts.ast, nullptr) << "record " << query.record_index;
  }
  std::remove(input.c_str());
}

TEST(PipelineTest, RunAndRunStreamingReportTheSameCounters) {
  // Both entry points run one parse → analyze → solve core over the same
  // pre-clean batches, so even the batching-dependent parse-cache
  // counters agree — at every thread count and batch size.
  log::GeneratorConfig config;
  config.seed = 20181029;
  config.target_statements = 3000;
  const log::QueryLog raw = log::GenerateLog(config);
  const std::string input = ::testing::TempDir() + "/twin_counters_input.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(raw, input).ok());
  static const catalog::Schema schema = catalog::MakeSkyServerSchema();

  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{4096}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch_size));
      auto pipeline = PipelineBuilder()
                          .WithSchema(&schema)
                          .NumThreads(threads)
                          .BatchSize(batch_size)
                          .Build();
      ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
      auto in_memory = pipeline->Run(raw);
      ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
      log::DiscardingWriter clean, removal;
      auto streamed = pipeline->RunStreaming(input, clean, removal);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

      EXPECT_EQ(in_memory->stats.ToTable(), streamed->stats.ToTable());
      const ParseStats& a = in_memory->parsed.parse_stats;
      const ParseStats& b = streamed->parsed.parse_stats;
      EXPECT_GT(a.cache_hits, 0u);
      EXPECT_EQ(a.full_parses, b.full_parses);
      EXPECT_EQ(a.cache_hits, b.cache_hits);
      EXPECT_EQ(a.cache_misses, b.cache_misses);
      EXPECT_EQ(a.templates_cached, b.templates_cached);
    }
  }
  std::remove(input.c_str());
}

TEST(PipelineTest, PaperRowsCountByIdAndExtraRowsSkipPaperIdsAndAdapters) {
  // A selection without ds-stifle plus a catalog addition and a custom
  // rule: the absent paper id counts 0, the present ones count as in the
  // default run, and only the catalog addition gets an extra row.
  PipelineOptions options;
  options.detector.detector_ids = {"dw-stifle", "select-star", "snc"};
  options.detector.custom_rules = {MakeMissingWhereRule()};
  PipelineResult result = RunCrafted(options);
  PipelineResult defaults = RunCrafted();

  const DetectorSet& set = *result.antipatterns.detectors;
  ASSERT_EQ(set.size(), 4u);
  EXPECT_EQ(set.info(3).id, "custom-rule-0");
  const int dw = set.IndexOf("dw-stifle");
  ASSERT_GE(dw, 0);
  EXPECT_GT(result.stats.distinct_dw, 0u);
  EXPECT_EQ(result.stats.distinct_dw, result.antipatterns.DistinctOf(dw));
  EXPECT_EQ(result.stats.queries_dw, result.antipatterns.QueriesOf(dw));
  EXPECT_EQ(result.stats.distinct_dw, defaults.stats.distinct_dw);
  EXPECT_EQ(result.stats.queries_dw, defaults.stats.queries_dw);
  EXPECT_GT(defaults.stats.distinct_ds, 0u);
  EXPECT_EQ(result.stats.distinct_ds, 0u);
  EXPECT_EQ(result.stats.queries_ds, 0u);
  EXPECT_EQ(result.stats.distinct_cth, 0u);

  ASSERT_EQ(result.stats.extra_detectors.size(), 1u);
  EXPECT_EQ(result.stats.extra_detectors[0].label, "Implicit Columns");
  EXPECT_TRUE(defaults.stats.extra_detectors.empty());
}

TEST(PipelineTest, StreamingWithAHugeBatchSizeMatchesTheDefault) {
  // batch_size is caller-controlled: SIZE_MAX must mean "one batch", not
  // an up-front allocation of SIZE_MAX records.
  log::GeneratorConfig config;
  config.seed = 31;
  config.target_statements = 2000;
  const std::string dir = ::testing::TempDir();
  const std::string input = dir + "/huge_batch_input.csv";
  ASSERT_TRUE(log::LogIo::WriteFile(log::GenerateLog(config), input).ok());
  static const catalog::Schema schema = catalog::MakeSkyServerSchema();

  auto run = [&](PipelineBuilder builder, const std::string& prefix) {
    auto pipeline = builder.WithSchema(&schema).Build();
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    auto result = pipeline->RunStreaming(input, prefix + ".clean.csv", prefix + ".removal.csv");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->stats.ToTable() : std::string();
  };
  const std::string base = dir + "/huge_batch_default";
  const std::string huge = dir + "/huge_batch_max";
  const std::string table = run(PipelineBuilder(), base);
  EXPECT_EQ(run(PipelineBuilder().BatchSize(SIZE_MAX), huge), table);
  for (const char* suffix : {".clean.csv", ".removal.csv"}) {
    auto want = ReadBytes(base + suffix);
    auto got = ReadBytes(huge + suffix);
    EXPECT_FALSE(want.empty()) << suffix;
    EXPECT_EQ(got, want) << suffix;
    std::remove((base + suffix).c_str());
    std::remove((huge + suffix).c_str());
  }
  std::remove(input.c_str());
}

// --- RunStreaming's up-front rejections -------------------------------------

Status RunStreaming(PipelineOptions options, const log::QueryLog& input) {
  const std::string dir = ::testing::TempDir();
  EXPECT_TRUE(log::LogIo::WriteFile(input, dir + "/validation_input.csv").ok());
  return Pipeline(std::move(options))
      .RunStreaming(dir + "/validation_input.csv", dir + "/validation_clean.csv",
                    dir + "/validation_removal.csv")
      .status();
}

TEST(StreamingValidationTest, OutOfOrderInputNamesTheRecord) {
  log::QueryLog raw;
  raw.Append(Make(2000, "u", "SELECT name FROM Employee WHERE empId = 8"));
  raw.Append(Make(1000, "u", "SELECT name FROM Employee WHERE empId = 1"));
  raw.Renumber();
  Status status = RunStreaming({}, raw);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("record 2 (seq 1) is out of order"), std::string::npos)
      << status.ToString();
}

TEST(StreamingValidationTest, ExtraCleanPassesAreRejected) {
  PipelineOptions options;
  options.extra_clean_passes = 1;
  Status status = RunStreaming(options, CraftedLog());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("extra_clean_passes"), std::string::npos);
}

TEST(StreamingValidationTest, CustomRulesAreRejected) {
  PipelineOptions options;
  options.detector.custom_rules = {MakeSncRule()};
  Status status = RunStreaming(options, CraftedLog());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("custom rules"), std::string::npos) << status.ToString();
}

}  // namespace
}  // namespace sqlog::core
