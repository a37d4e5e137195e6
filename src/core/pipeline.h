#ifndef SQLOG_CORE_PIPELINE_H_
#define SQLOG_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "core/antipattern.h"
#include "core/dedup.h"
#include "core/pattern_miner.h"
#include "core/solver.h"
#include "core/statistics.h"
#include "core/sws.h"
#include "core/template_store.h"
#include "log/log_io.h"
#include "log/log_stream.h"
#include "log/record.h"
#include "util/status.h"

namespace sqlog::core {

/// End-to-end configuration for the Fig. 1 workflow.
struct PipelineOptions {
  DedupOptions dedup;
  MinerOptions miner;
  DetectorOptions detector;
  SwsOptions sws;
  /// When false, the user/session columns are ignored (all queries are
  /// attributed to one anonymous user) — the Sec. 6.8 reduced-input
  /// mode.
  bool use_user_metadata = true;
  /// When false, pattern mining and SWS detection are skipped (cheaper
  /// when only cleaning is needed).
  bool mine_patterns = true;
  /// Additional clean→re-detect→re-solve passes after the first one
  /// (Sec. 5.5: one cleaning step can leave further solvable
  /// antipatterns, e.g. merged DS pairs lining up into fresh DW runs).
  /// 0 reproduces the paper's single-pass setting.
  size_t extra_clean_passes = 0;
  /// Worker threads for the parallel stages (parse+skeletonize, pattern
  /// mining, antipattern detection; dedup is one serial scan). 1 = the
  /// serial path; 0 = one thread per hardware thread. Results are
  /// byte-identical across every value — sharding keys (record ranges,
  /// user streams) and merge orders are deterministic, never wall-clock
  /// dependent.
  size_t num_threads = 1;
  /// Cap on per-record parse failures kept as diagnostics in
  /// PipelineStats (the failures are always *counted* in full).
  size_t max_parse_diagnostics = 32;
  /// Template fingerprint cache (parse avoidance): repeated statements
  /// skip the parser and have their facts rendered from cached template
  /// recipes. Outputs are byte-identical with the cache on or off — this
  /// is purely a performance escape hatch (`sqlog --no-parse-cache`).
  /// Its counters (ParseStats) depend on batch_size and num_threads, not
  /// on Run vs RunStreaming. Ignored (treated as false) when the resolved
  /// detector set needs per-query ASTs (DetectorSet::AnyNeedsAst —
  /// legacy custom rules), because cache hits never build them.
  bool parse_cache = true;
  /// Streaming ingestion (Pipeline::RunStreaming): the raw log is never
  /// held in memory — records are read, deduplicated, and parsed in
  /// batches of `batch_size`, and the clean/removal logs are written
  /// incrementally. Dedup state is bounded by the records inside one
  /// duplicate window (not in unrestricted dedup mode, which keeps every
  /// key), but memory still grows with the log: the ParsedLog keeps one
  /// entry per surviving record, ~1.5 KB each (DESIGN.md § "Streaming &
  /// memory model"). Output is byte-identical to the in-memory path at
  /// any batch size and thread count, but the input must already be
  /// (timestamp, seq)-ordered and the mode supports neither
  /// extra_clean_passes nor custom rules (their detect hooks read ASTs,
  /// which streaming drops).
  bool streaming = false;
  /// Records per parse batch, in Run and RunStreaming alike; larger
  /// batches parallelize better, smaller ones hold fewer records in
  /// flight.
  size_t batch_size = 4096;
  /// Format of RunStreaming's input (kAuto probes the file magic, so a
  /// renamed file still opens correctly). A binary `.sqb` input seeds
  /// the parse cache from its template dictionary before the first
  /// record: with stored recipes, ingestion runs with zero full parses.
  log::LogFormat input_format = log::LogFormat::kAuto;
  /// Format of RunStreaming's clean/removal outputs, resolved per path
  /// (kAuto: a ".sqb" extension means binary, anything else CSV).
  log::LogFormat output_format = log::LogFormat::kAuto;
};

/// Validates a PipelineOptions bundle; returns the first violation.
Status ValidatePipelineOptions(const PipelineOptions& options);

/// What Pipeline::RunStreaming returns: the analysis state (templates,
/// parsed log with ASTs dropped, patterns, reports) plus the overview
/// statistics. The clean and removal logs live on disk — the streaming
/// path never materializes them; stats.final_size / stats.removal_size
/// carry their record counts.
struct StreamingRunResult {
  TemplateStore templates;
  ParsedLog parsed;
  std::vector<Pattern> patterns;  // sorted by frequency
  AntipatternReport antipatterns;
  SwsReport sws;
  PipelineStats stats;
};

/// Everything the Fig. 1 workflow produces: the same analysis state as
/// RunStreaming, plus the logs Run keeps in memory.
struct PipelineResult : StreamingRunResult {
  log::QueryLog pre_clean;  // after duplicate removal
  log::QueryLog clean_log;
  log::QueryLog removal_log;

  /// True when the mined pattern at `pattern_index` is (part of) a
  /// detected antipattern — drives the before/after views of Fig. 2(a).
  /// With `solvable_only`, unsolvable CTH candidates do not count.
  bool PatternIsAntipattern(size_t pattern_index, bool solvable_only = false) const;
};

/// Runs the full workflow of Fig. 1 over a raw log: delete duplicates →
/// parse statements → templates → patterns → detect antipatterns →
/// solve → clean log + statistics. Prefer constructing through
/// PipelineBuilder, which validates options up front.
///
/// Run and RunStreaming are two input adapters over one parse → analyze
/// → solve core; they differ only in how records are deduplicated,
/// read and written.
class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {}) : options_(std::move(options)) {}

  /// Attaches the schema catalog consulted by Def. 11's key-attribute
  /// axiom. Without one, the axiom is skipped.
  void SetSchema(const catalog::Schema* schema) { schema_ = schema; }

  const PipelineOptions& options() const { return options_; }

  /// Executes the workflow over an in-memory log in any order (it is
  /// not modified); extra clean passes re-run the core over the clean
  /// log. Fails (never throws — the repo's Status/Result design rule) on
  /// invalid options; per-record parse failures do not fail the run,
  /// they are counted and sampled into PipelineStats::parse_diagnostics.
  Result<PipelineResult> Run(const log::QueryLog& raw_log) const;

  /// Executes the workflow without holding the raw or clean log in
  /// memory (its footprint still grows with the log): reads the raw log
  /// from `input_path` twice (pass 1 dedups + parses in batches of
  /// options().batch_size and drops each batch's ASTs; pass 2 re-reads
  /// to solve) and emits the clean and removal logs straight to
  /// `clean_path`/`removal_path`, whose formats resolve per path. The
  /// output files and the returned statistics are byte-identical to
  /// Run() + LogIo::WriteFile of the same input at any batch size and
  /// thread count. The input file must be (timestamp, seq)-ordered and
  /// must not change between the passes. Streaming-mode restrictions
  /// (no extra_clean_passes, no custom rules) are validated up front,
  /// before the outputs are created.
  Result<StreamingRunResult> RunStreaming(const std::string& input_path,
                                          const std::string& clean_path,
                                          const std::string& removal_path) const;

  /// RunStreaming into caller-owned writers, which must be open and
  /// renumbering (seq = output position); the caller closes them. A
  /// log::DiscardingWriter keeps the statistics without any output.
  Result<StreamingRunResult> RunStreaming(const std::string& input_path,
                                          log::RecordWriter& clean_writer,
                                          log::RecordWriter& removal_writer) const;

 private:
  PipelineOptions options_;
  const catalog::Schema* schema_ = nullptr;
};

/// Fluent, validating construction of a Pipeline:
///
///   auto pipeline = core::PipelineBuilder()
///                       .WithSchema(&schema)
///                       .NumThreads(0)          // all hardware threads
///                       .ExtraCleanPasses(1)
///                       .Build();               // Result<Pipeline>
///   if (!pipeline.ok()) { ... }
///   auto result = pipeline->Run(raw);
class PipelineBuilder {
 public:
  PipelineBuilder() = default;

  PipelineBuilder& WithSchema(const catalog::Schema* schema) {
    schema_ = schema;
    return *this;
  }
  PipelineBuilder& WithDedup(DedupOptions dedup) {
    options_.dedup = dedup;
    return *this;
  }
  PipelineBuilder& WithMiner(MinerOptions miner) {
    options_.miner = miner;
    return *this;
  }
  PipelineBuilder& WithDetector(DetectorOptions detector) {
    options_.detector = std::move(detector);
    return *this;
  }
  /// Selects the detectors to run by registry id, in evaluation order
  /// (empty = the paper's default set). Ids are validated by Build().
  PipelineBuilder& Detectors(std::vector<std::string> ids) {
    options_.detector.detector_ids = std::move(ids);
    return *this;
  }
  PipelineBuilder& WithSws(SwsOptions sws) {
    options_.sws = sws;
    return *this;
  }
  PipelineBuilder& NumThreads(size_t num_threads) {
    options_.num_threads = num_threads;
    return *this;
  }
  PipelineBuilder& ExtraCleanPasses(size_t passes) {
    options_.extra_clean_passes = passes;
    return *this;
  }
  PipelineBuilder& UseUserMetadata(bool use) {
    options_.use_user_metadata = use;
    return *this;
  }
  PipelineBuilder& MinePatterns(bool mine) {
    options_.mine_patterns = mine;
    return *this;
  }
  PipelineBuilder& MaxParseDiagnostics(size_t max) {
    options_.max_parse_diagnostics = max;
    return *this;
  }
  PipelineBuilder& ParseCache(bool enabled) {
    options_.parse_cache = enabled;
    return *this;
  }
  PipelineBuilder& Streaming(bool streaming) {
    options_.streaming = streaming;
    return *this;
  }
  PipelineBuilder& BatchSize(size_t batch_size) {
    options_.batch_size = batch_size;
    return *this;
  }
  PipelineBuilder& InputFormat(log::LogFormat format) {
    options_.input_format = format;
    return *this;
  }
  PipelineBuilder& OutputFormat(log::LogFormat format) {
    options_.output_format = format;
    return *this;
  }

  /// Validates the accumulated options and returns the configured
  /// Pipeline, or the first validation error.
  Result<Pipeline> Build() const;

 private:
  PipelineOptions options_;
  const catalog::Schema* schema_ = nullptr;
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_PIPELINE_H_
