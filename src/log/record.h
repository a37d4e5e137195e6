#ifndef SQLOG_LOG_RECORD_H_
#define SQLOG_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sqlog::log {

/// Ground-truth labels attached by the synthetic workload generator.
/// Real logs carry kUnlabeled everywhere. The labels substitute for the
/// paper's domain experts (Sec. 6.6/6.7): the generator knows by
/// construction whether a follow-up query was program-driven.
enum class TruthLabel {
  kUnlabeled,
  kOrganic,     // genuine ad-hoc user interest
  kDwStifle,
  kDsStifle,
  kDfStifle,
  kCthReal,     // dependent follow-up issued by software
  kCthFalse,    // looks like a CTH candidate but is human browsing
  kSws,         // sliding-window-search robot
  kSnc,         // searching-nullable-columns mistake
  kDuplicate,   // unintended duplicate (web reload)
  kNoise,       // DML/DDL/broken statements
  kSelectStar,  // implicit-columns hit (SELECT *)
  kNullFear,    // <> filter on a nullable column
  kSpaghettiJoin,  // comma join without a join predicate
  kNonSargable,    // computed comparison on a key column
};

/// Returns a stable name for a truth label.
const char* TruthLabelName(TruthLabel label);

/// Parses a truth-label name; unknown names map to kUnlabeled.
TruthLabel ParseTruthLabel(const std::string& name);

/// How a `.sqb` record was encoded on disk: the dictionary ordinal of
/// its template plus the byte range of each constant inside the decoded
/// statement text, in dictionary-span order. Verbatim records (and every
/// record of a non-`.sqb` source) carry `kVerbatim` and no spans.
/// BinLogReader surfaces one shape per record so ingestion can derive
/// literal slot texts straight from the spans and skip lexing entirely
/// (core::StreamingParser's seeded fast path). Declared here rather than
/// in binlog.h so core can name the type without pulling in the format.
struct RecordShape {
  static constexpr uint32_t kVerbatim = ~uint32_t{0};
  uint32_t template_ordinal = kVerbatim;
  std::vector<std::pair<uint32_t, uint32_t>> constants;  // (offset, size)

  /// Overwrites this shape with `other` (verbatim when null), reusing the
  /// span vector's capacity. Batch loops that collect one shape per record
  /// use this against a pooled element instead of copy-constructing, so
  /// steady state costs no allocation per record.
  void CopyFrom(const RecordShape* other) {
    if (other == nullptr) {
      template_ordinal = kVerbatim;
      constants.clear();
    } else {
      template_ordinal = other->template_ordinal;
      constants.assign(other->constants.begin(), other->constants.end());
    }
  }
};

/// One raw query-log row. Mirrors the SkyServer SQL-log columns the
/// paper relies on: statement text, timestamp, requesting IP ("user"),
/// session label, and result row count. `user` and `session` may be
/// empty — the pipeline then degrades exactly as Sec. 6.8 describes.
struct LogRecord {
  uint64_t seq = 0;          // position in the raw log
  int64_t timestamp_ms = 0;  // milliseconds since epoch
  std::string user;          // requesting IP or user id
  std::string session;       // session label
  std::string statement;     // raw SQL text
  int64_t row_count = -1;    // rows returned; -1 when unknown
  TruthLabel truth = TruthLabel::kUnlabeled;
};

/// (timestamp, seq) order — log order with a stable tie-break.
bool TimeOrderLess(const LogRecord& a, const LogRecord& b);

/// A query log: records plus bookkeeping helpers.
class QueryLog {
 public:
  QueryLog() = default;
  explicit QueryLog(std::vector<LogRecord> records) : records_(std::move(records)) {}

  const std::vector<LogRecord>& records() const { return records_; }
  std::vector<LogRecord>& records() { return records_; }

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  void Append(LogRecord record) { records_.push_back(std::move(record)); }

  /// Stable sort by TimeOrderLess.
  void SortByTime();

  /// Re-assigns seq = position after sorting or filtering.
  void Renumber();

  /// Number of distinct non-empty users.
  size_t DistinctUserCount() const;

 private:
  std::vector<LogRecord> records_;
};

}  // namespace sqlog::log

#endif  // SQLOG_LOG_RECORD_H_
