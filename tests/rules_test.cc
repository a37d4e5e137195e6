#include "core/rules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "catalog/schema.h"
#include "core/pipeline.h"
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

ParsedQuery ParseOne(const std::string& sql) {
  ParsedQuery query;
  auto facts = sql::ParseAndAnalyze(sql);
  EXPECT_TRUE(facts.ok()) << sql;
  query.facts = std::move(facts.value());
  return query;
}

TEST(RulesTest, SelectStarRuleDetects) {
  CustomRule rule = MakeSelectStarRule();
  EXPECT_TRUE(rule.detect(ParseOne("SELECT * FROM t WHERE id = 1")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT a, b FROM t WHERE id = 1")));
  EXPECT_FALSE(rule.solvable());
}

TEST(RulesTest, MissingWhereRuleDetects) {
  CustomRule rule = MakeMissingWhereRule();
  EXPECT_TRUE(rule.detect(ParseOne("SELECT a FROM t")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT a FROM t WHERE id = 1")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT TOP 10 a FROM t")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT count(*) FROM t")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT a, count(*) FROM t GROUP BY a")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT objid FROM fGetNearbyObjEq(1,2,3) n")));
  EXPECT_FALSE(rule.detect(ParseOne("SELECT 1")));
}

TEST(RulesTest, SncRuleMatchesBuiltInBehaviour) {
  CustomRule rule = MakeSncRule();
  ParsedQuery bad = ParseOne("SELECT * FROM Bugs WHERE assigned_to = NULL");
  ParsedQuery good = ParseOne("SELECT * FROM Bugs WHERE assigned_to IS NULL");
  EXPECT_TRUE(rule.detect(bad));
  EXPECT_FALSE(rule.detect(good));
  ASSERT_TRUE(rule.solvable());
  auto rewritten = rule.rewrite(bad);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select * from bugs where assigned_to is null");
}

class RulePipelineTest : public ::testing::Test {
 protected:
  PipelineResult Run(std::vector<CustomRule> rules) {
    log::QueryLog raw;
    raw.Append(Make(1000, "u", "SELECT * FROM photoPrimary WHERE objid = 1"));
    raw.Append(Make(100000000, "u", "SELECT ra FROM photoPrimary"));
    raw.Append(Make(200000000, "u", "SELECT ra, dec FROM photoPrimary WHERE ra > 1"));
    raw.Renumber();
    PipelineOptions options;
    options.miner.min_support = 1;
    options.detector.custom_rules = std::move(rules);
    static catalog::Schema schema = catalog::MakeSkyServerSchema();
    Pipeline pipeline(options);
    pipeline.SetSchema(&schema);
    return pipeline.Run(raw).value();
  }
};

/// Set index of the adapter detector of custom rule `r`, or -1.
int RuleIndex(const PipelineResult& result, size_t r) {
  return result.antipatterns.detectors->IndexOf("custom-rule-" + std::to_string(r));
}

TEST_F(RulePipelineTest, DetectOnlyRuleAnnotatesAndRemoves) {
  PipelineResult result = Run({MakeSelectStarRule(), MakeMissingWhereRule()});
  const AntipatternReport& report = result.antipatterns;
  uint64_t instances = 0;
  uint64_t distinct = 0;
  for (size_t r = 0; r < 2; ++r) {
    ASSERT_GE(RuleIndex(result, r), 0) << r;
    instances += report.InstancesOf(static_cast<uint32_t>(RuleIndex(result, r)));
    distinct += report.DistinctOf(static_cast<uint32_t>(RuleIndex(result, r)));
  }
  EXPECT_EQ(instances, 2u);
  EXPECT_EQ(distinct, 2u);
  // Detect-only hits stay in the clean log but leave the removal log.
  EXPECT_EQ(result.clean_log.size(), 3u);
  EXPECT_EQ(result.removal_log.size(), 1u);
}

TEST_F(RulePipelineTest, DistinctCustomRulesKeepSeparateIdentities) {
  PipelineResult result = Run({MakeSelectStarRule(), MakeMissingWhereRule()});
  const DetectorSet& set = *result.antipatterns.detectors;
  const int star_rule = RuleIndex(result, 0);
  const int where_rule = RuleIndex(result, 1);
  ASSERT_GE(star_rule, 0);
  ASSERT_GE(where_rule, 0);
  EXPECT_EQ(set.info(star_rule).display_name, "select-star");
  EXPECT_EQ(set.info(where_rule).display_name, "missing-where");
  bool star_hit = false;
  bool where_hit = false;
  for (const auto& d : result.antipatterns.distinct) {
    if (static_cast<int>(d.detector) == star_rule) star_hit = true;
    if (static_cast<int>(d.detector) == where_rule) where_hit = true;
  }
  EXPECT_TRUE(star_hit);
  EXPECT_TRUE(where_hit);
}

TEST_F(RulePipelineTest, SolvableCustomRuleRewritesInPlace) {
  log::QueryLog raw;
  raw.Append(Make(1000, "u", "SELECT * FROM Bugs WHERE assigned_to = NULL"));
  PipelineOptions options;
  options.miner.min_support = 1;
  // Disable the built-in SNC path by using only the custom rule on a
  // fresh pipeline: the built-in SNC will also fire, but the custom
  // rule's rewrite must win or be identical — verify final text.
  options.detector.custom_rules = {MakeSncRule()};
  Pipeline pipeline(options);
  PipelineResult result = pipeline.Run(raw).value();
  ASSERT_EQ(result.clean_log.size(), 1u);
  EXPECT_EQ(result.clean_log.records()[0].statement,
            "select * from bugs where assigned_to is null");
}

TEST_F(RulePipelineTest, NoRulesMeansNoCustomInstances) {
  PipelineResult result = Run({});
  EXPECT_EQ(RuleIndex(result, 0), -1);
  // Every instance comes from one of the paper's default detectors.
  const DetectorSet& set = *result.antipatterns.detectors;
  const std::vector<std::string>& paper_ids = DefaultDetectorIds();
  for (const auto& instance : result.antipatterns.instances) {
    const std::string& id = set.info(instance.detector).id;
    EXPECT_NE(std::find(paper_ids.begin(), paper_ids.end(), id), paper_ids.end()) << id;
  }
}

}  // namespace
}  // namespace sqlog::core
