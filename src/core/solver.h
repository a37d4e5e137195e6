#ifndef SQLOG_CORE_SOLVER_H_
#define SQLOG_CORE_SOLVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/antipattern.h"
#include "core/template_store.h"
#include "log/log_stream.h"
#include "log/record.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace sqlog::core {

/// Counters for the solving step.
struct SolveStats {
  uint64_t instances_solved = 0;
  uint64_t instances_unsolvable = 0;   // detect-only hits (CTH, ...; annotated only)
  uint64_t queries_merged = 0;         // statements removed by rewriting
  uint64_t queries_rewritten_in_place = 0;  // single-query fixes (SNC, ...)
  uint64_t rewrite_failures = 0;       // instances kept verbatim on error
};

/// Solving output: the clean log (antipatterns rewritten) and the
/// removal log (antipattern member queries dropped entirely) that
/// Sec. 6.9 compares against.
struct SolveOutcome {
  log::QueryLog clean_log;
  log::QueryLog removal_log;
  SolveStats stats;
  /// Not OK when solving failed (a report without a DetectorSet, a
  /// ParsedLog out of record order, a member that no longer parses);
  /// the logs are then incomplete.
  Status status;
};

/// Rewrites one DW-Stifle instance (Example 10): one statement whose
/// WHERE is an IN-list over the member constants; the filter column is
/// added to the select list so results stay interpretable.
Result<std::string> RewriteDwStifle(const std::vector<const ParsedQuery*>& members);

/// Rewrites one DS-Stifle instance (Example 12): the union of the
/// member select lists over the shared FROM/WHERE.
Result<std::string> RewriteDsStifle(const std::vector<const ParsedQuery*>& members);

/// Rewrites one DF-Stifle instance (Example 14): an INNER JOIN of the
/// member tables on the shared filter column.
Result<std::string> RewriteDfStifle(const std::vector<const ParsedQuery*>& members);

/// Rewrites one SNC statement (Sec. 5.4): `= NULL` → `IS NULL`,
/// `<> NULL` → `IS NOT NULL`.
Result<std::string> RewriteSnc(const ParsedQuery& query);

/// Applies all solving rules over the pre-clean log: member queries of
/// each solvable instance collapse into one rewritten statement at the
/// position of the instance's first query; SNC statements (and solvable
/// custom-rule hits) are fixed in place; everything else passes through.
/// Also produces the removal variant. Rewritten/removed records keep
/// their original metadata; both logs are renumbered.
///
/// A thin front over StreamingSolver that feeds the whole log and
/// collects the output in memory. Rewrites dispatch through the report's
/// detector set (AntipatternReport::detectors); `custom_rules` is
/// ignored and stays only for source compatibility.
SolveOutcome SolveAntipatterns(const log::QueryLog& pre_clean, const ParsedLog& parsed,
                               const AntipatternReport& report,
                               const std::vector<CustomRule>& custom_rules = {});

/// The Sec. 5.5 solver, fed one pre-clean record at a time in pre-clean
/// order: the clean/removal rows are emitted straight to the two
/// RecordWriters (either format).
///
/// Rewriting needs member ASTs. Members whose AST is null (parse-cache
/// hits, or ASTs the streaming pipeline dropped) are re-parsed as they
/// stream past into solver-owned copies; the parser is deterministic, so
/// the rewrites match an uncached parse. Copies are dropped once every
/// instance listing the member resolves; `parsed` is never modified.
/// Records are buffered only while an instance that contains them is
/// still unresolved (the detector's gap-bounded segment span).
///
/// Errors are Statuses: a report without a DetectorSet or not matching
/// `parsed`, `parsed.queries` not in strictly ascending record order, a
/// member that no longer parses, or queries still unfed at Finish().
class StreamingSolver {
 public:
  /// Both writers must be open and renumbering (seq = output position).
  StreamingSolver(const ParsedLog& parsed, const AntipatternReport& report,
                  log::RecordWriter& clean_writer, log::RecordWriter& removal_writer);

  /// Feeds the next pre-clean record (call in pre-clean order, starting
  /// at position 0).
  Status Feed(const log::LogRecord& record);

  /// Flushes remaining output. Every instance must have resolved (all
  /// members fed); call after the last record.
  Status Finish();

  const SolveStats& stats() const { return stats_; }

 private:
  /// One output slot, queued until every earlier slot is resolved.
  struct Slot {
    log::LogRecord record;
    uint32_t instance_id = 0;  // pending claiming instance; 0 once resolved
    bool is_first = false;     // first member of the claiming instance
    bool resolved = false;
    bool to_clean = false;
    bool to_removal = false;
  };

  /// AST bookkeeping for one query listed by ≥1 solvable instance.
  /// Instances overlap (claiming is first-wins), so a re-parsed copy
  /// stays alive until every instance listing the query has resolved.
  struct AstNeed {
    std::vector<uint32_t> instances;  // solvable instances listing the query
    uint32_t unresolved = 0;
    std::unique_ptr<ParsedQuery> restored;  // set when the query had no AST
  };

  void ResolveInstance(uint32_t instance_id);
  Status Drain();

  const ParsedLog& parsed_ SQLOG_CONST_AFTER_INIT;
  const AntipatternReport& report_ SQLOG_CONST_AFTER_INIT;
  log::RecordWriter& clean_writer_ SQLOG_SHARD_LOCAL;
  log::RecordWriter& removal_writer_ SQLOG_SHARD_LOCAL;
  SolveStats stats_ SQLOG_SHARD_LOCAL;

  /// Construction-time validation failure, returned by Feed/Finish.
  Status status_ SQLOG_CONST_AFTER_INIT;
  /// query index → AST bookkeeping (solvable-instance members only).
  std::unordered_map<size_t, AstNeed> ast_needs_ SQLOG_SHARD_LOCAL;
  /// instance id (1-based, solvable only) → members not yet fed.
  std::unordered_map<uint32_t, size_t> members_pending_ SQLOG_SHARD_LOCAL;
  std::deque<Slot> slots_ SQLOG_SHARD_LOCAL;
  size_t next_record_ SQLOG_SHARD_LOCAL = 0;  // position assigned to the next Feed
  size_t next_query_ SQLOG_SHARD_LOCAL = 0;   // first query not yet fed
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_SOLVER_H_
