#include "core/pipeline.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <utility>

#include "core/parse_cache.h"
#include "log/binlog.h"
#include "log/log_io.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace sqlog::core {

bool PipelineResult::PatternIsAntipattern(size_t pattern_index, bool solvable_only) const {
  const Pattern& pattern = patterns[pattern_index];
  // A mined pattern is flagged when its template sequence equals the
  // signature of some distinct antipattern. Mere membership of one
  // template in a longer signature does not flag the pattern: a CTH
  // head also used organically stays a pattern.
  for (const auto& d : antipatterns.distinct) {
    if (solvable_only && !antipatterns.detectors->info(d.detector).solvable) continue;
    if (pattern.template_ids == d.template_ids) return true;
  }
  return false;
}

Status ValidatePipelineOptions(const PipelineOptions& options) {
  if (options.dedup.threshold_ms < 0 && !options.dedup.unrestricted) {
    return Status::InvalidArgument("dedup threshold_ms must be >= 0");
  }
  if (options.miner.max_length == 0) {
    return Status::InvalidArgument("miner max_length must be >= 1 (n-gram length)");
  }
  if (options.miner.max_gap_ms < 0) {
    return Status::InvalidArgument("miner max_gap_ms must be >= 0");
  }
  if (options.detector.max_gap_ms < 0) {
    return Status::InvalidArgument("detector max_gap_ms must be >= 0");
  }
  if (options.detector.cth_min_support == 0) {
    return Status::InvalidArgument("detector cth_min_support must be >= 1");
  }
  if (options.sws.frequency_fraction < 0.0 || options.sws.frequency_fraction > 1.0) {
    return Status::InvalidArgument("sws frequency_fraction must be within [0, 1]");
  }
  if (options.sws.max_user_popularity == 0) {
    return Status::InvalidArgument("sws max_user_popularity must be >= 1");
  }
  for (size_t r = 0; r < options.detector.custom_rules.size(); ++r) {
    if (!options.detector.custom_rules[r].detect) {
      return Status::InvalidArgument(
          StrFormat("custom rule #%zu has no detect hook", r));
    }
  }
  // Resolve the detector selection so unknown/duplicate ids surface at
  // validation time rather than mid-run.
  Result<std::shared_ptr<const DetectorSet>> detectors = DetectorSet::Resolve(options.detector);
  if (!detectors.ok()) return detectors.status();
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options.streaming) {
    if (options.extra_clean_passes > 0) {
      return Status::InvalidArgument(
          "streaming mode does not support extra_clean_passes (re-cleaning "
          "needs the clean log in memory)");
    }
    // Covers every custom-rule adapter: their detect hooks read ASTs.
    if (detectors.value()->AnyNeedsAst()) {
      return Status::InvalidArgument(
          "streaming mode does not support detectors that read per-query "
          "ASTs, such as custom rules (streaming drops them after each batch)");
    }
  }
  return Status::OK();
}

Result<Pipeline> PipelineBuilder::Build() const {
  SQLOG_RETURN_IF_ERROR_R(ValidatePipelineOptions(options_));
  Pipeline pipeline(options_);
  pipeline.SetSchema(schema_);
  return pipeline;
}

namespace {

/// Builds the thread pool for `num_threads` (see PipelineOptions): with
/// one thread no pool exists and every stage takes its serial path;
/// otherwise the pool holds one worker less than the requested count
/// because ParallelFor callers execute chunks themselves.
std::unique_ptr<util::ThreadPool> MakePool(size_t num_threads) {
  size_t threads = util::ResolveThreadCount(num_threads);
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads - 1);
}

/// The Sec. 6.8 reduced-input mode: every query is attributed to one
/// anonymous user.
void StripUserMetadata(log::LogRecord& record) {
  record.user.clear();
  record.session.clear();
}

/// The pre-clean log (deduplicated, seq = pre-clean position) as the
/// pipeline core reads it: once to parse, once to solve. Run reads it
/// from memory; RunStreaming re-reads and re-filters the input file.
struct PreCleanSource {
  /// Pass 1: hands every pre-clean record to the parser in batches
  /// (with `.sqb` seeds and shapes when the input has them).
  std::function<Status(StreamingParser&)> parse;
  /// Pass 2: feeds every pre-clean record to the solver, in order.
  std::function<Status(StreamingSolver&)> solve;
};

/// A pre-clean log held in memory, parsed in slices of `batch_size`
/// records without copying them.
PreCleanSource InMemorySource(const log::QueryLog& pre_clean, size_t batch_size) {
  const std::span<const log::LogRecord> records(pre_clean.records());
  return {[records, batch_size](StreamingParser& parser) -> Status {
            parser.ReserveQueries(records.size());
            for (size_t begin = 0; begin < records.size(); begin += batch_size) {
              parser.FeedBatch(
                  records.subspan(begin, std::min(batch_size, records.size() - begin)));
            }
            return Status::OK();
          },
          [records](StreamingSolver& solver) -> Status {
            for (const log::LogRecord& record : records) {
              SQLOG_RETURN_IF_ERROR(solver.Feed(record));
            }
            return Status::OK();
          }};
}

/// The analyze half of the pipeline core, steps 2-4 + SWS: parse pass 1
/// of `source`, then mine patterns, detect antipatterns and SWS, and
/// fill the overview statistics (the dedup counts are the adapter's).
Status AnalyzePreClean(const PipelineOptions& options, const catalog::Schema* schema,
                       util::ThreadPool* pool, const PreCleanSource& source,
                       StreamingRunResult& result) {
  Result<std::shared_ptr<const DetectorSet>> detectors =
      DetectorSet::Resolve(options.detector);
  SQLOG_RETURN_IF_ERROR(detectors.status());
  // Step 2 (Sec. 5.3): parse statements, build templates. AST-reading
  // detectors (legacy custom rules, which only Run accepts) force the
  // cache off: their hooks read per-query ASTs, which hits never build.
  ParseCacheOptions cache_options;
  cache_options.enabled = options.parse_cache && !(*detectors)->AnyNeedsAst();
  StreamingParser parser(result.templates, options.max_parse_diagnostics, pool,
                         cache_options);
  SQLOG_RETURN_IF_ERROR(source.parse(parser));
  result.parsed = parser.Finish();
  PipelineStats& stats = result.stats;
  stats.select_count = result.parsed.queries.size();
  stats.non_select_count = result.parsed.non_select_count;
  stats.syntax_error_count = result.parsed.syntax_error_count;
  stats.parse_diagnostics = result.parsed.diagnostics;

  // Step 3 (Sec. 5.4): mine patterns.
  if (options.mine_patterns) {
    result.patterns = MinePatterns(result.parsed, options.miner, pool);
    SortByFrequency(result.patterns);
    stats.pattern_count = result.patterns.size();
    if (!result.patterns.empty()) {
      stats.max_pattern_frequency = result.patterns.front().frequency;
    }
  }

  // Step 4: detect antipatterns.
  result.antipatterns = DetectAntipatterns(result.parsed, result.templates, schema,
                                           options.detector, detectors.value(), pool);
  const AntipatternReport& report = result.antipatterns;
  const DetectorSet& set = *report.detectors;
  // The paper's rows (Table 5) count by registry id; an id missing from
  // the selected set counts 0.
  auto paper_row = [&](const char* id, uint64_t& distinct, uint64_t& queries) {
    const int d = set.IndexOf(id);
    distinct = d < 0 ? 0 : report.DistinctOf(static_cast<uint32_t>(d));
    queries = d < 0 ? 0 : report.QueriesOf(static_cast<uint32_t>(d));
  };
  paper_row("dw-stifle", stats.distinct_dw, stats.queries_dw);
  paper_row("ds-stifle", stats.distinct_ds, stats.queries_ds);
  paper_row("df-stifle", stats.distinct_df, stats.queries_df);
  paper_row("cth", stats.distinct_cth, stats.queries_cth);
  paper_row("snc", stats.distinct_snc, stats.queries_snc);

  // Registry additions (neither a paper id nor an AST-reading custom-rule
  // adapter) get their own row pair; empty for the default set, so the
  // golden-compared table is unchanged there.
  const std::vector<std::string>& paper_ids = DefaultDetectorIds();
  for (uint32_t d = 0; d < set.size(); ++d) {
    const DetectorInfo& info = set.info(d);
    if (info.needs_ast ||
        std::find(paper_ids.begin(), paper_ids.end(), info.id) != paper_ids.end()) {
      continue;
    }
    PipelineStats::DetectorStatsRow row;
    row.label = info.display_name;
    row.distinct_count = report.DistinctOf(d);
    row.query_count = report.QueriesOf(d);
    stats.extra_detectors.push_back(std::move(row));
  }

  // SWS detection (Sec. 6.5) over the mined patterns.
  if (options.mine_patterns) {
    result.sws = DetectSws(result.patterns, result.parsed.queries.size(), options.sws);
  }
  return Status::OK();
}

/// The solve half of the pipeline core, step 5 (Sec. 5.5): pass 2 of
/// `source` through the StreamingSolver into the two writers (open and
/// renumbering), plus the solve statistics and output sizes.
Status SolvePreClean(const PreCleanSource& source, StreamingRunResult& result,
                     log::RecordWriter& clean_writer, log::RecordWriter& removal_writer) {
  StreamingSolver solver(result.parsed, result.antipatterns, clean_writer, removal_writer);
  SQLOG_RETURN_IF_ERROR(source.solve(solver));
  SQLOG_RETURN_IF_ERROR(solver.Finish());
  result.stats.solve = solver.stats();
  result.stats.final_size = clean_writer.records_written();
  result.stats.removal_size = removal_writer.records_written();
  return Status::OK();
}

}  // namespace

Result<PipelineResult> Pipeline::Run(const log::QueryLog& raw_log) const {
  SQLOG_RETURN_IF_ERROR_R(ValidatePipelineOptions(options_));

  std::unique_ptr<util::ThreadPool> owned_pool = MakePool(options_.num_threads);
  util::ThreadPool* pool = owned_pool.get();

  PipelineResult result;

  // Step 1 (Sec. 5.2): delete duplicates. RemoveDuplicates visits the
  // records in time order without copying them, so the raw log is read
  // in place; an anonymized copy lives only until dedup is done.
  DedupStats dedup_stats;
  if (options_.use_user_metadata) {
    result.pre_clean = RemoveDuplicates(raw_log, options_.dedup, &dedup_stats);
  } else {
    log::QueryLog anonymous = raw_log;
    for (log::LogRecord& record : anonymous.records()) StripUserMetadata(record);
    result.pre_clean = RemoveDuplicates(anonymous, options_.dedup, &dedup_stats);
  }
  result.stats.original_size = raw_log.size();
  result.stats.after_dedup_size = dedup_stats.output_count;
  result.stats.duplicates_removed = dedup_stats.removed_count;

  // Steps 2-5 through the core, writing the clean/removal logs in memory.
  const PreCleanSource source = InMemorySource(result.pre_clean, options_.batch_size);
  SQLOG_RETURN_IF_ERROR_R(AnalyzePreClean(options_, schema_, pool, source, result));
  log::QueryLogWriter clean_writer(result.clean_log);
  log::QueryLogWriter removal_writer(result.removal_log);
  SQLOG_RETURN_IF_ERROR_R(SolvePreClean(source, result, clean_writer, removal_writer));

  // Optional re-clean passes (Sec. 5.5): the core again over the clean
  // log, stopping before the solve when nothing solvable is left.
  // Statistics keep describing the first pass — only the clean log is
  // refined further.
  PipelineOptions pass_options = options_;
  pass_options.mine_patterns = false;
  pass_options.max_parse_diagnostics = 0;
  for (size_t pass = 0; pass < options_.extra_clean_passes; ++pass) {
    StreamingRunResult pass_analysis;
    const PreCleanSource pass_source = InMemorySource(result.clean_log, options_.batch_size);
    SQLOG_RETURN_IF_ERROR_R(
        AnalyzePreClean(pass_options, schema_, pool, pass_source, pass_analysis));
    const AntipatternReport& report = pass_analysis.antipatterns;
    auto solvable = [&](const AntipatternInstance& i) { return report.detectors->Solvable(i); };
    if (std::ranges::none_of(report.instances, solvable)) break;
    log::QueryLog pass_clean;
    log::QueryLogWriter pass_clean_writer(pass_clean);
    log::DiscardingWriter pass_removal_writer;
    SQLOG_RETURN_IF_ERROR_R(
        SolvePreClean(pass_source, pass_analysis, pass_clean_writer, pass_removal_writer));
    result.clean_log = std::move(pass_clean);
  }

  result.stats.final_size = result.clean_log.size();
  return result;
}

Result<StreamingRunResult> Pipeline::RunStreaming(const std::string& input_path,
                                                  const std::string& clean_path,
                                                  const std::string& removal_path) const {
  // Invalid options fail before the outputs are created (truncated).
  PipelineOptions options = options_;
  options.streaming = true;
  SQLOG_RETURN_IF_ERROR_R(ValidatePipelineOptions(options));

  // Output format resolves per path (kAuto: by extension), so
  // `clean.sqb` + `removal.csv` is a valid combination; `.sqb` outputs
  // store recipes so they re-ingest parse-free. Both writers renumber:
  // the solver needs seq = output position.
  std::unique_ptr<log::RecordWriter> clean_writer = log::LogIo::MakeLogWriter(
      log::ResolveWriteFormat(options.output_format, clean_path),
      /*renumber=*/true, BuildStatementRecipe);
  std::unique_ptr<log::RecordWriter> removal_writer = log::LogIo::MakeLogWriter(
      log::ResolveWriteFormat(options.output_format, removal_path),
      /*renumber=*/true, BuildStatementRecipe);
  SQLOG_RETURN_IF_ERROR_R(clean_writer->Open(clean_path));
  SQLOG_RETURN_IF_ERROR_R(removal_writer->Open(removal_path));
  Result<StreamingRunResult> result = RunStreaming(input_path, *clean_writer, *removal_writer);
  SQLOG_RETURN_IF_ERROR_R(result.status());
  SQLOG_RETURN_IF_ERROR_R(clean_writer->Close());
  SQLOG_RETURN_IF_ERROR_R(removal_writer->Close());
  return result;
}

Result<StreamingRunResult> Pipeline::RunStreaming(const std::string& input_path,
                                                  log::RecordWriter& clean_writer,
                                                  log::RecordWriter& removal_writer) const {
  PipelineOptions options = options_;
  options.streaming = true;  // enforce the streaming-mode restrictions
  SQLOG_RETURN_IF_ERROR_R(ValidatePipelineOptions(options));

  std::unique_ptr<util::ThreadPool> owned_pool = MakePool(options.num_threads);
  util::ThreadPool* pool = owned_pool.get();

  auto input_format = log::ResolveReadFormat(options.input_format, input_path);
  SQLOG_RETURN_IF_ERROR_R(input_format.status());

  // Pass 1 state that pass 2 replays: which raw records dedup kept.
  StreamingDeduper deduper(options.dedup);
  std::vector<uint8_t> kept;  // per raw record

  PreCleanSource source;
  // Pass 1: read + dedup, one parse batch at a time. Run sorts by
  // (timestamp, seq) before dedup; streaming replays that scan in file
  // order, so the file must already be sorted — generated and exported
  // logs are, arbitrary inputs are checked.
  source.parse = [&](StreamingParser& parser) -> Status {
    std::unique_ptr<log::RecordReader> reader;
    log::BinLogReader* bin_reader = nullptr;  // non-null: shaped fast ingest
    if (*input_format == log::LogFormat::kSqb) {
      // A binary input carries its template dictionary up front: seed the
      // parser's persistent cache from the stored recipes, so every
      // record whose template validated ingests without a full parse.
      // Record shapes then let the parser skip lexing too (zero-lex path).
      auto bin = std::make_unique<log::BinLogReader>();
      SQLOG_RETURN_IF_ERROR(bin->Open(input_path));
      std::vector<std::unique_ptr<ParseCacheEntry>> seeds;
      seeds.reserve(bin->dictionary().size());
      for (const auto& entry : bin->dictionary()) {
        seeds.push_back(DeserializeStatementRecipe(entry.text, entry.recipe));
      }
      parser.SeedCache(std::move(seeds));
      // Upper bound (dedup may drop records), so the query vector never
      // realloc-moves during ingest.
      parser.ReserveQueries(bin->record_count());
      bin_reader = bin.get();
      reader = std::move(bin);
    } else {
      reader = std::make_unique<log::LogReader>();
      SQLOG_RETURN_IF_ERROR(reader->Open(input_path));
    }
    // No reserve(batch_size): batch_size is caller-controlled and may be
    // huge; clear() keeps the grown capacity across batches.
    std::vector<log::LogRecord> batch;
    // Shape pool parallel to batch (`.sqb` only): the live prefix is
    // overwritten in place so span vectors keep capacity across batches.
    std::vector<log::RecordShape> shapes;
    auto feed = [&] {
      parser.FeedBatch(batch, bin_reader != nullptr ? &shapes : nullptr);
      // The memory bound: no AST outlives its batch (the solver
      // re-parses the statements it rewrites).
      parser.ReleaseAsts();
      batch.clear();
    };
    log::LogRecord record;
    bool eof = false;
    std::pair<int64_t, uint64_t> previous;  // (timestamp, seq) of the last record
    while (true) {
      SQLOG_RETURN_IF_ERROR(reader->ReadRecord(&record, &eof));
      if (eof) break;
      if (!options.use_user_metadata) StripUserMetadata(record);
      const std::pair<int64_t, uint64_t> order{record.timestamp_ms, record.seq};
      if (!kept.empty() && order < previous) {
        return Status::InvalidArgument(StrFormat(
            "streaming mode requires a (timestamp, seq)-ordered input; record "
            "%llu (seq %llu) is out of order — run the in-memory pipeline instead",
            (unsigned long long)kept.size() + 1, (unsigned long long)record.seq));
      }
      previous = order;
      const bool duplicate = deduper.IsDuplicate(record);
      kept.push_back(duplicate ? 0 : 1);
      if (duplicate) continue;
      // Replicate RemoveDuplicates's Renumber(): pre-clean seqs are
      // positional (parse diagnostics echo them).
      record.seq = parser.records_fed() + batch.size();
      if (bin_reader != nullptr) {
        if (batch.size() == shapes.size()) shapes.emplace_back();
        shapes[batch.size()].CopyFrom(bin_reader->last_shape());
      }
      batch.push_back(std::move(record));
      if (batch.size() >= options.batch_size) feed();
    }
    feed();
    return Status::OK();
  };
  // Pass 2: re-read the input and feed the records pass 1 kept.
  source.solve = [&](StreamingSolver& solver) -> Status {
    auto reader = log::LogIo::OpenLogReader(input_path, *input_format);
    SQLOG_RETURN_IF_ERROR(reader.status());
    log::LogRecord record;
    bool eof = false;
    uint64_t count = 0;
    while (true) {
      SQLOG_RETURN_IF_ERROR((*reader)->ReadRecord(&record, &eof));
      if (eof) break;
      if (count >= kept.size()) {
        return Status::Internal("input grew between streaming passes");
      }
      if (!options.use_user_metadata) StripUserMetadata(record);
      if (kept[count++] != 0) SQLOG_RETURN_IF_ERROR(solver.Feed(record));
    }
    if (count != kept.size()) {
      return Status::Internal("input shrank between streaming passes");
    }
    return Status::OK();
  };

  StreamingRunResult result;
  SQLOG_RETURN_IF_ERROR_R(AnalyzePreClean(options, schema_, pool, source, result));
  result.stats.original_size = kept.size();
  result.stats.after_dedup_size = kept.size() - deduper.duplicates_seen();
  result.stats.duplicates_removed = deduper.duplicates_seen();
  SQLOG_RETURN_IF_ERROR_R(SolvePreClean(source, result, clean_writer, removal_writer));
  return result;
}

}  // namespace sqlog::core
