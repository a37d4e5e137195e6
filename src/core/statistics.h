#ifndef SQLOG_CORE_STATISTICS_H_
#define SQLOG_CORE_STATISTICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/antipattern.h"
#include "core/dedup.h"
#include "core/solver.h"

namespace sqlog::core {

/// The pipeline's results-overview statistics — the direct analogue of
/// the paper's Table 5.
struct PipelineStats {
  uint64_t original_size = 0;        // raw statements in
  uint64_t select_count = 0;         // SELECTs surviving classification+parse
  uint64_t non_select_count = 0;
  uint64_t syntax_error_count = 0;
  uint64_t after_dedup_size = 0;     // statements after duplicate removal
  uint64_t duplicates_removed = 0;
  uint64_t final_size = 0;           // clean-log size
  uint64_t removal_size = 0;         // removal-log size

  uint64_t pattern_count = 0;        // distinct mined patterns
  uint64_t max_pattern_frequency = 0;

  /// The paper's Table 5 rows, counted per registry id ("dw-stifle",
  /// "ds-stifle", "df-stifle", "cth", "snc"); an id outside the selected
  /// detector set counts 0.
  uint64_t distinct_dw = 0;
  uint64_t queries_dw = 0;
  uint64_t distinct_ds = 0;
  uint64_t queries_ds = 0;
  uint64_t distinct_df = 0;
  uint64_t queries_df = 0;
  uint64_t distinct_cth = 0;
  uint64_t queries_cth = 0;
  uint64_t distinct_snc = 0;
  uint64_t queries_snc = 0;

  /// One row pair per enabled detector beyond the paper's set (registry
  /// additions like select-star; custom-rule adapters get none). Empty
  /// for the default detector set, so the golden-compared table is
  /// unchanged there.
  struct DetectorStatsRow {
    std::string label;  // the detector's display name
    uint64_t distinct_count = 0;
    uint64_t query_count = 0;
  };
  std::vector<DetectorStatsRow> extra_detectors;

  SolveStats solve;

  /// The first PipelineOptions::max_parse_diagnostics per-record parse
  /// failures, in record order — dropped statements are counted above
  /// (syntax_error_count) and sampled here instead of vanishing
  /// silently.
  std::vector<ParseDiagnostic> parse_diagnostics;

  /// Renders the Table 5-style overview.
  std::string ToTable() const;
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_STATISTICS_H_
