#include "core/solver.h"

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "core/antipattern.h"
#include "util/string_util.h"

namespace sqlog::core {
namespace {

std::vector<ParsedQuery> ParseAll(const std::vector<std::string>& sqls) {
  std::vector<ParsedQuery> parsed(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto facts = sql::ParseAndAnalyze(sqls[i]);
    EXPECT_TRUE(facts.ok()) << sqls[i];
    parsed[i].facts = std::move(facts.value());
  }
  return parsed;
}

std::vector<const ParsedQuery*> Pointers(const std::vector<ParsedQuery>& parsed) {
  std::vector<const ParsedQuery*> out;
  for (const auto& query : parsed) out.push_back(&query);
  return out;
}

TEST(SolverTest, DwRewriteMatchesExample10) {
  auto parsed = ParseAll({
      "SELECT name FROM Employee WHERE empId = 8",
      "SELECT name FROM Employee WHERE empId = 1",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(rewritten.value(), "select empid, name from employee where empid in (8, 1)");
}

TEST(SolverTest, DwRewriteDoesNotDuplicateExposedColumn) {
  auto parsed = ParseAll({
      "SELECT empId, name FROM Employee WHERE empId = 8",
      "SELECT empId, name FROM Employee WHERE empId = 1",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select empid, name from employee where empid in (8, 1)");
}

TEST(SolverTest, DwRewriteDeduplicatesValues) {
  auto parsed = ParseAll({
      "SELECT name FROM Employee WHERE empId = 8",
      "SELECT name FROM Employee WHERE empId = 1",
      "SELECT name FROM Employee WHERE empId = 8",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select empid, name from employee where empid in (8, 1)");
}

TEST(SolverTest, DwRewriteWithStringConstants) {
  auto parsed = ParseAll({
      "SELECT rank FROM DBObjects WHERE name = 'Galaxy'",
      "SELECT rank FROM DBObjects WHERE name = 'Star'",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select name, rank from dbobjects where name in ('Galaxy', 'Star')");
}

TEST(SolverTest, DwRewritePreservesQualifier) {
  auto parsed = ParseAll({
      "SELECT E.name FROM Employee E WHERE E.empId = 8",
      "SELECT E.name FROM Employee E WHERE E.empId = 1",
  });
  auto rewritten = RewriteDwStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select e.empid, e.name from employee as e where e.empid in (8, 1)");
}

TEST(SolverTest, DwRewriteNeedsTwoQueries) {
  auto parsed = ParseAll({"SELECT name FROM Employee WHERE empId = 8"});
  EXPECT_FALSE(RewriteDwStifle(Pointers(parsed)).ok());
}

TEST(SolverTest, DsRewriteMatchesExample12) {
  auto parsed = ParseAll({
      "SELECT name FROM Employee WHERE empId = 8",
      "SELECT address, phone FROM Employee WHERE empId = 8",
  });
  auto rewritten = RewriteDsStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select name, address, phone from employee where empid = 8");
}

TEST(SolverTest, DsRewriteDeduplicatesSelectItems) {
  auto parsed = ParseAll({
      "SELECT name, phone FROM Employee WHERE empId = 8",
      "SELECT phone, address FROM Employee WHERE empId = 8",
  });
  auto rewritten = RewriteDsStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select name, phone, address from employee where empid = 8");
}

TEST(SolverTest, DfRewriteMatchesExample14) {
  auto parsed = ParseAll({
      "SELECT name FROM Employee WHERE empId = 8",
      "SELECT address FROM EmployeeInfo WHERE empId = 8",
  });
  auto rewritten = RewriteDfStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_EQ(rewritten.value(),
            "select employee.name, employeeinfo.address from employee as employee "
            "inner join employeeinfo as employeeinfo "
            "on employee.empid = employeeinfo.empid where employee.empid = 8");
}

TEST(SolverTest, DfRewriteKeepsExistingAliases) {
  auto parsed = ParseAll({
      "SELECT E.name FROM Employee E WHERE E.empId = 8",
      "SELECT EI.address FROM EmployeeInfo EI WHERE EI.empId = 8",
  });
  auto rewritten = RewriteDfStifle(Pointers(parsed));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select e.name, ei.address from employee as e inner join employeeinfo as ei "
            "on e.empid = ei.empid where e.empid = 8");
}

TEST(SolverTest, DfRewriteRejectsJoinMembers) {
  auto parsed = ParseAll({
      "SELECT a.name FROM Employee a JOIN EmployeeInfo b ON a.empId = b.empId "
      "WHERE a.empId = 8",
      "SELECT address FROM EmployeeInfo WHERE empId = 8",
  });
  auto rewritten = RewriteDfStifle(Pointers(parsed));
  EXPECT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.status().code(), StatusCode::kUnsupported);
}

TEST(SolverTest, SncRewriteEquality) {
  auto parsed = ParseAll({"SELECT * FROM Bugs WHERE assigned_to = NULL"});
  auto rewritten = RewriteSnc(parsed[0]);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select * from bugs where assigned_to is null");
}

TEST(SolverTest, SncRewriteInequality) {
  auto parsed = ParseAll({"SELECT * FROM Bugs WHERE assigned_to <> NULL"});
  auto rewritten = RewriteSnc(parsed[0]);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select * from bugs where assigned_to is not null");
}

TEST(SolverTest, SncRewriteInsideConjunction) {
  auto parsed = ParseAll({
      "SELECT * FROM Bugs WHERE status = 'open' AND assigned_to = NULL"});
  auto rewritten = RewriteSnc(parsed[0]);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(),
            "select * from bugs where status = 'open' and assigned_to is null");
}

TEST(SolverTest, SncRewriteNullOnLeft) {
  auto parsed = ParseAll({"SELECT * FROM Bugs WHERE NULL = assigned_to"});
  auto rewritten = RewriteSnc(parsed[0]);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(rewritten.value(), "select * from bugs where assigned_to is null");
}

// --- end-to-end solving over a small log -----------------------------------

class SolveLogTest : public ::testing::Test {
 protected:
  SolveOutcome Solve(const std::vector<std::pair<int64_t, std::string>>& statements) {
    log_ = log::QueryLog();
    for (const auto& [t, sql] : statements) {
      log::LogRecord record;
      record.user = "u";
      record.timestamp_ms = t;
      record.statement = sql;
      log_.Append(record);
    }
    log_.Renumber();
    store_ = TemplateStore();
    parsed_ = ParseLog(log_, store_);
    schema_ = catalog::MakeSkyServerSchema();
    DetectorOptions options;
    options.cth_min_support = 1;
    auto detectors = DetectorSet::Resolve(options);
    EXPECT_TRUE(detectors.ok()) << detectors.status().ToString();
    report_ = DetectAntipatterns(parsed_, store_, &schema_, options,
                                 std::move(detectors.value()));
    return SolveAntipatterns(log_, parsed_, report_);
  }

  log::QueryLog log_;
  TemplateStore store_;
  ParsedLog parsed_;
  catalog::Schema schema_;
  AntipatternReport report_;
};

TEST_F(SolveLogTest, MergesDwRunAtFirstPosition) {
  SolveOutcome outcome = Solve({
      {0, "SELECT count(*) FROM photoPrimary WHERE htmid >= 1 and htmid <= 2"},
      {1000, "SELECT name FROM Employee WHERE empId = 8"},
      {2000, "SELECT name FROM Employee WHERE empId = 1"},
      {3000, "SELECT count(*) FROM photoPrimary WHERE htmid >= 3 and htmid <= 4"},
  });
  ASSERT_EQ(outcome.clean_log.size(), 3u);
  EXPECT_EQ(outcome.clean_log.records()[1].statement,
            "select empid, name from employee where empid in (8, 1)");
  // Timestamp and user of the first member are kept.
  EXPECT_EQ(outcome.clean_log.records()[1].timestamp_ms, 1000);
  EXPECT_EQ(outcome.stats.instances_solved, 1u);
  EXPECT_EQ(outcome.stats.queries_merged, 1u);
  // Removal log drops both members.
  EXPECT_EQ(outcome.removal_log.size(), 2u);
}

TEST_F(SolveLogTest, SncRewrittenInPlace) {
  SolveOutcome outcome = Solve({
      {0, "SELECT * FROM Bugs WHERE assigned_to = NULL"},
  });
  ASSERT_EQ(outcome.clean_log.size(), 1u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement,
            "select * from bugs where assigned_to is null");
  EXPECT_EQ(outcome.stats.queries_rewritten_in_place, 1u);
}

TEST_F(SolveLogTest, CthKeptInCleanDroppedFromRemoval) {
  SolveOutcome outcome = Solve({
      {0, "SELECT * FROM dbo.fGetNearestObjEq(1.0, 2.0, 0.1)"},
      {100, "SELECT plate FROM SpecObjAll WHERE SpecObjID = 123"},
  });
  EXPECT_EQ(outcome.clean_log.size(), 2u);   // unsolvable, kept verbatim
  EXPECT_EQ(outcome.removal_log.size(), 0u);  // antipattern members dropped
  EXPECT_EQ(outcome.stats.instances_unsolvable, 1u);
}

TEST_F(SolveLogTest, NonSelectAndBrokenStatementsAreDropped) {
  SolveOutcome outcome = Solve({
      {0, "INSERT INTO t VALUES (1)"},
      {1000, "SELECT broken FROM"},
      {2000, "SELECT name FROM Employee WHERE empId = 8"},
  });
  ASSERT_EQ(outcome.clean_log.size(), 1u);
  EXPECT_EQ(outcome.clean_log.records()[0].timestamp_ms, 2000);
}

TEST_F(SolveLogTest, PassThroughLogIsUntouched) {
  SolveOutcome outcome = Solve({
      {0, "SELECT count(*) FROM photoPrimary WHERE htmid >= 1 and htmid <= 2"},
      {100000000, "SELECT count(*) FROM photoPrimary WHERE htmid >= 9 and htmid <= 10"},
  });
  EXPECT_EQ(outcome.clean_log.size(), 2u);
  EXPECT_EQ(outcome.removal_log.size(), 2u);
  EXPECT_EQ(outcome.stats.instances_solved, 0u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement,
            "SELECT count(*) FROM photoPrimary WHERE htmid >= 1 and htmid <= 2");
}

TEST_F(SolveLogTest, Table3ReproducesPaperExample16) {
  // Table 2 → Table 3: the DW run inside a CTH collapses to an IN query;
  // the head stays.
  SolveOutcome outcome = Solve({
      {0, "SELECT E.Id FROM Employees E WHERE E.department = 'sales'"},
      {1000, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12"},
      {2000, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 15"},
      {3000, "SELECT E.name, E.surname FROM Employees E WHERE E.id = 16"},
  });
  ASSERT_EQ(outcome.clean_log.size(), 2u);
  EXPECT_EQ(outcome.clean_log.records()[0].statement,
            "SELECT E.Id FROM Employees E WHERE E.department = 'sales'");
  EXPECT_EQ(outcome.clean_log.records()[1].statement,
            "select e.id, e.name, e.surname from employees as e where e.id in (12, 15, 16)");
}

// --- failure paths: every one is a Status, never a crash or a silent drop --

/// Collects the records a StreamingSolver emits.
class VectorWriter : public log::RecordWriter {
 public:
  Status Open(const std::string& /*path*/) override { return Status::OK(); }
  Status Append(const log::LogRecord& record) override {
    records.push_back(record);
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  uint64_t records_written() const override { return records.size(); }

  std::vector<log::LogRecord> records;
};

const std::vector<std::pair<int64_t, std::string>> kDwRun = {
    {0, "SELECT name FROM Employee WHERE empId = 8"},
    {1000, "SELECT name FROM Employee WHERE empId = 1"},
    {2000, "SELECT name FROM Employee WHERE empId = 5"},
};

TEST_F(SolveLogTest, MemberThatNoLongerParsesIsInternal) {
  ASSERT_TRUE(Solve(kDwRun).status.ok());
  ASSERT_EQ(report_.instances.size(), 1u);
  // Without ASTs the solver must re-parse the member text it is fed.
  for (auto& query : parsed_.queries) query.facts.ast.reset();
  log::QueryLog changed = log_;
  changed.records()[1].statement = "SELECT broken FROM";
  SolveOutcome outcome = SolveAntipatterns(changed, parsed_, report_);
  EXPECT_EQ(outcome.status.code(), StatusCode::kInternal);
  EXPECT_NE(outcome.status.message().find("no longer parses"), std::string::npos)
      << outcome.status.ToString();
}

TEST_F(SolveLogTest, MembersWithAstsAreNotReparsed) {
  SolveOutcome expected = Solve(kDwRun);
  ASSERT_TRUE(expected.status.ok());
  for (auto& query : parsed_.queries) {
    auto facts = sql::ParseAndAnalyze(log_.records()[query.record_index].statement);
    ASSERT_TRUE(facts.ok());
    query.facts = std::move(facts.value());
  }
  // The solver rewrites from the ASTs it is given, so it never sees
  // the changed text.
  log::QueryLog changed = log_;
  changed.records()[1].statement = "SELECT broken FROM";
  SolveOutcome outcome = SolveAntipatterns(changed, parsed_, report_);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(outcome.clean_log.records()[0].statement,
            expected.clean_log.records()[0].statement);
}

TEST_F(SolveLogTest, FinishWithPendingMembersIsInternal) {
  ASSERT_TRUE(Solve(kDwRun).status.ok());
  VectorWriter clean;
  VectorWriter removal;
  StreamingSolver solver(parsed_, report_, clean, removal);
  ASSERT_TRUE(solver.Feed(log_.records()[0]).ok());
  ASSERT_TRUE(solver.Feed(log_.records()[1]).ok());
  Status finish = solver.Finish();
  EXPECT_EQ(finish.code(), StatusCode::kInternal);
  EXPECT_NE(finish.message().find("missing members"), std::string::npos) << finish.ToString();
  EXPECT_TRUE(clean.records.empty());  // the pending instance held both slots
}

TEST_F(SolveLogTest, MalformedReportIsInvalidArgument) {
  ASSERT_TRUE(Solve(kDwRun).status.ok());
  AntipatternReport without_set = report_;
  without_set.detectors = nullptr;
  SolveOutcome outcome = SolveAntipatterns(log_, parsed_, without_set);
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(outcome.clean_log.empty());

  AntipatternReport short_map = report_;
  short_map.instance_of_query.pop_back();
  EXPECT_EQ(SolveAntipatterns(log_, parsed_, short_map).status.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SolveLogTest, QueriesPastTheFedLogAreInternal) {
  ASSERT_TRUE(Solve({{0, "SELECT name FROM Employee WHERE empId = 8"},
                     {100000000, "SELECT name FROM Employee WHERE empId = 1"}})
                  .status.ok());
  ASSERT_TRUE(report_.instances.empty());
  log::QueryLog truncated;
  truncated.Append(log_.records()[0]);
  SolveOutcome outcome = SolveAntipatterns(truncated, parsed_, report_);
  EXPECT_EQ(outcome.status.code(), StatusCode::kInternal);
}

TEST_F(SolveLogTest, UnorderedParsedLogIsInvalidArgument) {
  ASSERT_TRUE(Solve(kDwRun).status.ok());
  std::swap(parsed_.queries[0].record_index, parsed_.queries[1].record_index);
  SolveOutcome outcome = SolveAntipatterns(log_, parsed_, report_);
  EXPECT_EQ(outcome.status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sqlog::core
