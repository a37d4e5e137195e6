// perfbench_tool — the in-process half of the repository benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
//   perfbench_tool info
//       build + dispatch provenance as one JSON object
//   perfbench_tool gen <seed> <records> <out.csv>
//       writes the seeded, paper-calibrated generator log
//   perfbench_tool stifles <clean.csv> <out.csv>
//       copies a cleaned log's DW-Stifle rewrites into a log of their own
//   perfbench_tool trace-clean <csv|sqb-stream> <input> <out-prefix> <summary.json> <spans.tsv>
//                              <iteration>
//       one traced cleaning run: calls each layer's public functions in
//       the order Pipeline::Run (csv) or Pipeline::RunStreaming
//       (sqb-stream) does, with a span around every call
//   perfbench_tool replay <stifles.csv> <summary.json> <spans.tsv> <trace 0|1>
//       the Sec. 6.3 closed-loop replay of a log's DW-Stifle rewrites
//       against an out-of-core photoprimary; page files go to $TMPDIR
//
// Spans live in memory (name, start, end, parent, iteration) and are
// written out when the run ends; a span's self time is its duration
// minus the time its child spans cover.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "core/antipattern.h"
#include "core/dedup.h"
#include "core/detector.h"
#include "core/parse_cache.h"
#include "core/pattern_miner.h"
#include "core/pipeline.h"
#include "core/solver.h"
#include "core/sws.h"
#include "core/template_store.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "log/binlog.h"
#include "log/generator.h"
#include "log/log_io.h"
#include "sql/parser.h"
#include "sql/skeleton.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

using namespace sqlog;

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every pool worker included).
double ProcessCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Current resident set size in bytes (/proc/self/statm).
double VmRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return got == 2 ? static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE))
                  : 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// In-memory span recorder. One thread records; spans nest strictly.
class Tracer {
 public:
  struct Span {
    int name = 0;
    int parent = -1;
    int iteration = 0;
    double start = 0;
    double end = 0;
    double cpu_start = 0;
    double cpu_end = 0;
    double child_seconds = 0;  // time covered by direct children
    double child_cpu = 0;
  };

  /// RAII span around one call.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer), id_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  void set_iteration(int iteration) { iteration_ = iteration; }

  int Begin(const char* name) {
    Span span;
    span.name = Intern(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.iteration = iteration_;
    span.cpu_start = ProcessCpuNow();
    span.start = WallNow();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void End(int id) {
    Span& span = spans_[id];
    span.end = WallNow();
    span.cpu_end = ProcessCpuNow();
    open_.pop_back();
    Credit(span.parent, span.end - span.start, span.cpu_end - span.cpu_start);
  }

  /// Records a child of the innermost open span whose time was summed
  /// by a decorator rather than bracketed directly (e.g. every Append of
  /// a RecordWriter inside one solve batch). Its interval is placed at
  /// the end of the parent so far; only its duration matters for self
  /// time.
  void AddAggregate(const char* name, double seconds, double cpu) {
    Span span;
    span.name = Intern(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.iteration = iteration_;
    span.end = WallNow();
    span.start = span.end - seconds;
    span.cpu_end = ProcessCpuNow();
    span.cpu_start = span.cpu_end - cpu;
    spans_.push_back(span);
    Credit(span.parent, seconds, cpu);
  }

  struct LayerTotals {
    double self_seconds = 0;
    double self_cpu = 0;
    uint64_t spans = 0;
    std::vector<double> self_samples;
  };

  /// Self time and CPU per span name, plus every span's self time.
  std::map<std::string, LayerTotals> Totals() const {
    std::map<std::string, LayerTotals> out;
    for (const Span& span : spans_) {
      LayerTotals& t = out[names_[span.name]];
      const double self = (span.end - span.start) - span.child_seconds;
      t.self_seconds += self;
      t.self_cpu += (span.cpu_end - span.cpu_start) - span.child_cpu;
      ++t.spans;
      t.self_samples.push_back(self);
    }
    return out;
  }

  /// One line per span: name, parent index, iteration, start/end
  /// (seconds, steady clock), process CPU seconds.
  bool WriteSpans(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "id\tname\tparent\titeration\tstart_s\tend_s\tcpu_s\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu\t%s\t%d\t%d\t%.9f\t%.9f\t%.9f\n", i,
                   names_[s.name].c_str(), s.parent, s.iteration, s.start, s.end,
                   s.cpu_end - s.cpu_start);
    }
    return std::fclose(out) == 0;
  }

  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  int Intern(const char* name) {
    for (size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return static_cast<int>(i);
    names_.emplace_back(name);
    return static_cast<int>(names_.size() - 1);
  }

  void Credit(int parent, double seconds, double cpu) {
    if (parent < 0) return;
    spans_[parent].child_seconds += seconds;
    spans_[parent].child_cpu += cpu;
  }

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int iteration_ = 0;
};

/// Minimal JSON object writer for flat string -> number/string maps.
class JsonOut {
 public:
  void Num(const std::string& key, double value) {
    Sep();
    body_ += StrFormat("\"%s\": %.9g", key.c_str(), value);
  }
  void Str(const std::string& key, const std::string& value) {
    Sep();
    body_ += "\"" + key + "\": \"";
    for (char c : value) {
      if (c == '"' || c == '\\') body_ += '\\';
      body_ += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    body_ += "\"";
  }
  std::string Finish() const { return "{" + body_ + "}\n"; }
  bool WriteTo(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::string text = Finish();
    std::fwrite(text.data(), 1, text.size(), out);
    return std::fclose(out) == 0;
  }

 private:
  void Sep() {
    if (!body_.empty()) body_ += ", ";
  }
  std::string body_;
};

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench_tool: %s: %s\n", what.c_str(), status.ToString().c_str());
  return 1;
}

// ---------------------------------------------------------------- info

int CmdInfo() {
  JsonOut json;
  json.Str("compiler", PERFBENCH_COMPILER);
  json.Str("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  json.Num("ndebug", 1);
#else
  json.Num("ndebug", 0);
#endif
#ifdef __OPTIMIZE__
  json.Num("optimized", 1);
#else
  json.Num("optimized", 0);
#endif
  json.Str("simd_level", simd::LevelName(simd::ActiveLevel()));
  json.Str("simd_best_level", simd::LevelName(simd::BestSupportedLevel()));
  json.Num("hardware_threads", static_cast<double>(util::ResolveThreadCount(0)));
  std::fputs(json.Finish().c_str(), stdout);
  return 0;
}

// ----------------------------------------------------------------- gen

int CmdGen(int argc, char** argv) {
  if (argc != 3) return 2;
  log::GeneratorConfig config;
  config.seed = std::strtoull(argv[0], nullptr, 10);
  config.target_statements = std::strtoull(argv[1], nullptr, 10);
  log::QueryLog generated = log::GenerateLog(config);
  Status written = log::LogIo::WriteFile(generated, argv[2]);
  if (!written.ok()) return Fail("write", written);
  std::printf("{\"records\": %zu}\n", generated.size());
  return 0;
}

// ------------------------------------------------------------- stifles

/// Copies the DW-Stifle rewrites of a cleaned log into a small log of
/// their own, so replay windows over that log do not each re-read the
/// whole cleaned log.
int CmdStifles(int argc, char** argv) {
  if (argc != 2) return 2;
  auto clean = log::LogIo::ReadFile(argv[0]);
  if (!clean.ok()) return Fail("read", clean.status());
  log::QueryLog rewrites;
  for (const log::LogRecord& record : clean->records()) {
    if (record.truth == log::TruthLabel::kDwStifle) rewrites.Append(record);
  }
  Status written = log::LogIo::WriteFile(rewrites, argv[1]);
  if (!written.ok()) return Fail("write", written);
  std::printf("{\"records\": %zu}\n", rewrites.size());
  return 0;
}

// --------------------------------------------------------- trace-clean

/// Same pool shape Pipeline::Run builds: callers run chunks themselves,
/// so the pool holds one worker less than the resolved thread count.
std::unique_ptr<util::ThreadPool> MakePool(size_t num_threads) {
  const size_t threads = util::ResolveThreadCount(num_threads);
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads - 1);
}

/// RecordWriter decorator that sums the wall time spent in the wrapped
/// writer, so write time can be split out of the streaming solve.
class TimedWriter final : public log::RecordWriter {
 public:
  explicit TimedWriter(std::unique_ptr<log::RecordWriter> inner)
      : inner_(std::move(inner)) {}

  Status Open(const std::string& path) override { return Timed([&] { return inner_->Open(path); }); }
  Status Append(const log::LogRecord& record) override {
    return Timed([&] { return inner_->Append(record); });
  }
  Status Close() override { return Timed([&] { return inner_->Close(); }); }
  uint64_t records_written() const override { return inner_->records_written(); }

  /// Seconds spent in the wrapped writer since the previous call.
  double TakeSeconds() {
    const double s = seconds_;
    seconds_ = 0;
    return s;
  }

 private:
  template <typename F>
  Status Timed(F&& call) {
    const double start = WallNow();
    Status status = call();
    seconds_ += WallNow() - start;
    return status;
  }

  std::unique_ptr<log::RecordWriter> inner_;
  double seconds_ = 0;
};

struct CleanCounters {
  double records = 0;
  double dedup_removed = 0;
  double full_parses = 0;
  double cache_hit_ratio = 0;
  double rss_growth_per_rec = 0;
  double detect_instances = 0;
  double instances_solved = 0;
};

double HitRatio(const core::ParseStats& ps) {
  const double keyed = static_cast<double>(ps.cache_hits + ps.cache_misses +
                                           ps.uncacheable_hits + ps.failure_hits);
  return keyed == 0 ? 0 : static_cast<double>(ps.parses_avoided()) / keyed;
}

/// The stages of Pipeline::Run, called one by one (CLI defaults:
/// NumThreads(0), parse cache on, CSV outputs).
Status TraceCleanCsv(Tracer& tracer, const std::string& input, const std::string& prefix,
                     CleanCounters* counters) {
  static const catalog::Schema schema = catalog::MakeSkyServerSchema();
  core::PipelineOptions options;
  options.num_threads = 0;
  auto detectors = core::DetectorSet::Resolve(options.detector);
  SQLOG_RETURN_IF_ERROR(detectors.status());
  std::unique_ptr<util::ThreadPool> pool = MakePool(options.num_threads);

  Tracer::Scope root(&tracer, "pipeline");
  Result<log::QueryLog> raw = Status::OK();
  {
    Tracer::Scope span(&tracer, "log.read");
    raw = log::LogIo::ReadFile(input);
  }
  SQLOG_RETURN_IF_ERROR(raw.status());
  counters->records = static_cast<double>(raw->size());

  log::QueryLog pre_clean;
  core::DedupStats dedup_stats;
  {
    Tracer::Scope span(&tracer, "core.dedup");
    pre_clean = core::RemoveDuplicates(*raw, options.dedup, &dedup_stats, pool.get());
  }
  counters->dedup_removed = static_cast<double>(dedup_stats.removed_count);

  core::TemplateStore templates;
  core::ParsedLog parsed;
  {
    Tracer::Scope span(&tracer, "core.parse");
    const double rss_before = VmRssBytes();
    core::ParseCacheOptions cache_options;
    cache_options.enabled = options.parse_cache && !(*detectors)->AnyNeedsAst();
    parsed = core::ParseLog(pre_clean, templates, pool.get(), options.max_parse_diagnostics,
                            cache_options);
    counters->rss_growth_per_rec =
        (VmRssBytes() - rss_before) / std::max<double>(1, static_cast<double>(pre_clean.size()));
  }
  counters->full_parses = static_cast<double>(parsed.parse_stats.full_parses);
  counters->cache_hit_ratio = HitRatio(parsed.parse_stats);

  std::vector<core::Pattern> patterns;
  {
    Tracer::Scope span(&tracer, "core.mine");
    patterns = core::MinePatterns(parsed, options.miner, pool.get());
    core::SortByFrequency(patterns);
  }
  core::AntipatternReport report;
  {
    Tracer::Scope span(&tracer, "core.detect");
    report = core::DetectAntipatterns(parsed, templates, &schema, options.detector,
                                      *detectors, pool.get());
  }
  counters->detect_instances = static_cast<double>(report.instances.size());
  {
    Tracer::Scope span(&tracer, "core.sws");
    core::SwsReport sws = core::DetectSws(patterns, parsed.queries.size(), options.sws);
    (void)sws;
  }
  core::SolveOutcome outcome;
  {
    Tracer::Scope span(&tracer, "core.solve");
    outcome = core::SolveAntipatterns(pre_clean, parsed, report, options.detector.custom_rules);
  }
  counters->instances_solved = static_cast<double>(outcome.stats.instances_solved);
  Tracer::Scope span(&tracer, "log.write");
  SQLOG_RETURN_IF_ERROR(log::LogIo::WriteFile(outcome.clean_log, prefix + ".clean.csv"));
  return log::LogIo::WriteFile(outcome.removal_log, prefix + ".removal.csv");
}

/// Reads up to `limit` records (and their shapes) from a `.sqb` reader.
Status ReadSqbBatch(log::BinLogReader& reader, size_t limit,
                    std::vector<log::LogRecord>* records,
                    std::vector<log::RecordShape>* shapes) {
  records->clear();
  size_t n = 0;
  bool eof = false;
  log::LogRecord record;
  while (n < limit) {
    SQLOG_RETURN_IF_ERROR(reader.ReadRecord(&record, &eof));
    if (eof) break;
    if (shapes != nullptr) {
      if (n == shapes->size()) shapes->emplace_back();
      (*shapes)[n].CopyFrom(reader.last_shape());
    }
    records->push_back(std::move(record));
    ++n;
  }
  return Status::OK();
}

/// The two passes of Pipeline::RunStreaming over a `.sqb` input, called
/// layer by layer. Records are read a batch at a time, so reading,
/// dedup and parsing get separate spans.
Status TraceCleanSqbStream(Tracer& tracer, const std::string& input,
                          const std::string& prefix, CleanCounters* counters) {
  static const catalog::Schema schema = catalog::MakeSkyServerSchema();
  core::PipelineOptions options;
  options.num_threads = 0;
  options.streaming = true;
  auto detectors = core::DetectorSet::Resolve(options.detector);
  SQLOG_RETURN_IF_ERROR(detectors.status());
  std::unique_ptr<util::ThreadPool> pool = MakePool(options.num_threads);
  const size_t batch_size = options.batch_size;

  Tracer::Scope root(&tracer, "pipeline");
  core::TemplateStore templates;
  core::StreamingDeduper deduper(options.dedup);
  core::ParseCacheOptions cache_options;
  cache_options.enabled = options.parse_cache;
  core::StreamingParser parser(templates, options.max_parse_diagnostics, pool.get(),
                               cache_options);
  log::BinLogReader reader;
  {
    Tracer::Scope span(&tracer, "log.sqb_read");
    SQLOG_RETURN_IF_ERROR(reader.Open(input));
  }
  double rss_before = 0;
  {
    Tracer::Scope span(&tracer, "core.parse");
    rss_before = VmRssBytes();
    std::vector<std::unique_ptr<core::ParseCacheEntry>> seeds;
    seeds.reserve(reader.dictionary().size());
    for (const auto& entry : reader.dictionary())
      seeds.push_back(core::DeserializeStatementRecipe(entry.text, entry.recipe));
    parser.SeedCache(std::move(seeds));
    parser.ReserveQueries(reader.record_count());
  }

  // Pass 1: read, dedup, parse.
  std::vector<uint8_t> kept;
  std::vector<log::LogRecord> raw_batch;
  std::vector<log::RecordShape> raw_shapes;
  std::vector<log::LogRecord> batch;
  std::vector<log::RecordShape> shapes;
  uint64_t pre_clean_count = 0;
  uint64_t raw_count = 0;
  while (true) {
    {
      Tracer::Scope span(&tracer, "log.sqb_read");
      SQLOG_RETURN_IF_ERROR(ReadSqbBatch(reader, batch_size, &raw_batch, &raw_shapes));
    }
    if (raw_batch.empty()) break;
    raw_count += raw_batch.size();
    {
      Tracer::Scope span(&tracer, "core.dedup");
      batch.clear();
      size_t kept_shapes = 0;
      for (size_t i = 0; i < raw_batch.size(); ++i) {
        const bool duplicate = deduper.IsDuplicate(raw_batch[i]);
        kept.push_back(duplicate ? 0 : 1);
        if (duplicate) continue;
        raw_batch[i].seq = pre_clean_count++;
        batch.push_back(std::move(raw_batch[i]));
        if (kept_shapes == shapes.size()) shapes.emplace_back();
        shapes[kept_shapes++].CopyFrom(&raw_shapes[i]);
      }
      shapes.resize(kept_shapes);
    }
    Tracer::Scope span(&tracer, "core.parse");
    parser.FeedBatch(batch, &shapes);
  }
  core::ParsedLog parsed;
  {
    Tracer::Scope span(&tracer, "core.parse");
    parsed = parser.Finish();
    counters->rss_growth_per_rec =
        (VmRssBytes() - rss_before) / std::max<double>(1, static_cast<double>(pre_clean_count));
  }
  counters->records = static_cast<double>(raw_count);
  counters->dedup_removed = static_cast<double>(deduper.duplicates_seen());
  counters->full_parses = static_cast<double>(parsed.parse_stats.full_parses);
  counters->cache_hit_ratio = HitRatio(parsed.parse_stats);

  std::vector<core::Pattern> patterns;
  {
    Tracer::Scope span(&tracer, "core.mine");
    patterns = core::MinePatterns(parsed, options.miner, pool.get());
    core::SortByFrequency(patterns);
  }
  core::AntipatternReport report;
  {
    Tracer::Scope span(&tracer, "core.detect");
    report = core::DetectAntipatterns(parsed, templates, &schema, options.detector,
                                      *detectors, pool.get());
  }
  counters->detect_instances = static_cast<double>(report.instances.size());
  {
    Tracer::Scope span(&tracer, "core.sws");
    core::SwsReport sws = core::DetectSws(patterns, parsed.queries.size(), options.sws);
    (void)sws;
  }

  // Pass 2: re-read, solve, write (write time split out of solve).
  TimedWriter clean_writer(log::LogIo::MakeLogWriter(log::LogFormat::kCsv, /*renumber=*/true,
                                                     core::BuildStatementRecipe));
  TimedWriter removal_writer(log::LogIo::MakeLogWriter(
      log::LogFormat::kCsv, /*renumber=*/true, core::BuildStatementRecipe));
  {
    Tracer::Scope span(&tracer, "log.write");
    SQLOG_RETURN_IF_ERROR(clean_writer.Open(prefix + ".clean.csv"));
    SQLOG_RETURN_IF_ERROR(removal_writer.Open(prefix + ".removal.csv"));
    clean_writer.TakeSeconds();
    removal_writer.TakeSeconds();
  }
  core::StreamingSolver solver(parsed, report, clean_writer, removal_writer);
  log::BinLogReader second;
  {
    Tracer::Scope span(&tracer, "log.sqb_read");
    SQLOG_RETURN_IF_ERROR(second.Open(input));
  }
  auto credit_writes = [&] {
    const double s = clean_writer.TakeSeconds() + removal_writer.TakeSeconds();
    tracer.AddAggregate("log.write", s, s);  // the writers run on this thread
  };
  uint64_t second_count = 0;
  while (true) {
    {
      Tracer::Scope span(&tracer, "log.sqb_read");
      SQLOG_RETURN_IF_ERROR(ReadSqbBatch(second, batch_size, &raw_batch, nullptr));
    }
    if (raw_batch.empty()) break;
    Tracer::Scope span(&tracer, "core.solve");
    for (const log::LogRecord& record : raw_batch) {
      if (second_count >= kept.size()) return Status::Internal("input grew between passes");
      if (kept[second_count++] != 0) SQLOG_RETURN_IF_ERROR(solver.Feed(record));
    }
    credit_writes();
  }
  if (second_count != raw_count) return Status::Internal("input shrank between passes");
  {
    Tracer::Scope span(&tracer, "core.solve");
    SQLOG_RETURN_IF_ERROR(solver.Finish());
    credit_writes();
  }
  counters->instances_solved = static_cast<double>(solver.stats().instances_solved);
  Tracer::Scope span(&tracer, "log.write");
  SQLOG_RETURN_IF_ERROR(clean_writer.Close());
  return removal_writer.Close();
}

void WriteLayerTotals(const Tracer& tracer, JsonOut& json) {
  for (const auto& [name, totals] : tracer.Totals()) {
    json.Num(name + ".self_s", totals.self_seconds);
    json.Num(name + ".cpu_s", totals.self_cpu);
    json.Num(name + ".spans", static_cast<double>(totals.spans));
  }
}

int CmdTraceClean(int argc, char** argv) {
  if (argc != 6) return 2;
  const std::string mode = argv[0];
  Tracer tracer;
  tracer.set_iteration(std::atoi(argv[5]));
  CleanCounters counters;
  Status status = Status::InvalidArgument("unknown trace-clean mode " + mode);
  if (mode == "csv") status = TraceCleanCsv(tracer, argv[1], argv[2], &counters);
  if (mode == "sqb-stream") status = TraceCleanSqbStream(tracer, argv[1], argv[2], &counters);
  if (!status.ok()) return Fail("trace-clean " + mode, status);
  JsonOut json;
  WriteLayerTotals(tracer, json);
  json.Num("records", counters.records);
  json.Num("core.dedup.removed", counters.dedup_removed);
  json.Num("core.parse.full_parses", counters.full_parses);
  json.Num("core.parse.cache_hit_ratio", counters.cache_hit_ratio);
  json.Num("core.parse.rss_growth_bytes_per_rec", counters.rss_growth_per_rec);
  json.Num("core.detect.instances", counters.detect_instances);
  json.Num("core.solve.instances_solved", counters.instances_solved);
  if (!json.WriteTo(argv[3]) || !tracer.WriteSpans(argv[4])) {
    std::fprintf(stderr, "perfbench_tool: cannot write %s / %s\n", argv[3], argv[4]);
    return 1;
  }
  return 0;
}

// -------------------------------------------------------------- replay

/// One Stifle: point lookups plus the solver's IN-list rewrite, and the
/// row counts each must return.
struct Stifle {
  std::vector<std::string> points;
  std::string inlist;
  size_t inlist_rows = 0;
};

/// The DW-Stifle rewrites of a cleaned log, expanded back into their
/// point lookups (one per IN-list key), and the sorted distinct objids
/// they reference.
Status StiflesFromCleanLog(const std::string& path, std::vector<Stifle>* out,
                           std::vector<int64_t>* objids) {
  auto clean = log::LogIo::ReadFile(path);
  SQLOG_RETURN_IF_ERROR(clean.status());
  std::set<int64_t> ids;
  for (const log::LogRecord& record : clean->records()) {
    if (record.truth != log::TruthLabel::kDwStifle) continue;
    const std::string lower = ToLower(record.statement);
    const size_t in = lower.find("objid in (");
    if (in == std::string::npos) continue;
    const size_t open = in + std::strlen("objid in (");
    const size_t close = lower.find(')', open);
    if (close == std::string::npos) continue;
    std::vector<std::string> points;
    std::set<int64_t> keys;
    for (const std::string& item : Split(record.statement.substr(open, close - open), ',')) {
      const std::string key(Trim(item));
      char* end = nullptr;
      const long long value = std::strtoll(key.c_str(), &end, 10);
      if (key.empty() || *end != '\0') return Status::ParseError("non-integer key in " + record.statement);
      keys.insert(value);
      points.push_back(record.statement.substr(0, in) + "objid = " + key +
                       record.statement.substr(close + 1));
    }
    ids.insert(keys.begin(), keys.end());
    Stifle stifle;
    stifle.points = std::move(points);
    stifle.inlist = record.statement;
    stifle.inlist_rows = keys.size();
    out->push_back(std::move(stifle));
  }
  objids->assign(ids.begin(), ids.end());
  if (out->empty()) return Status::InvalidArgument("no DW-Stifle rewrites in " + path);
  return Status::OK();
}

/// In-memory photoprimary holding exactly `objids` (ascending).
Status PopulateObjects(engine::Database& db, const std::vector<int64_t>& objids) {
  const catalog::Schema schema = catalog::MakeSkyServerSchema();
  const catalog::TableDef* def = schema.FindTable("photoprimary");
  if (def == nullptr) return Status::Internal("missing photoprimary");
  auto table = db.CreateTableFromCatalog(*def);
  SQLOG_RETURN_IF_ERROR(table.status());
  Rng rng(42);
  for (int64_t objid : objids) {
    std::vector<engine::Value> row;
    for (const auto& col : (*table)->columns()) {
      if (col.name == "objid") {
        row.push_back(engine::Value::Int(objid));
      } else if (col.kind == engine::Value::Kind::kInt64) {
        row.push_back(engine::Value::Int(static_cast<int64_t>(rng.Uniform(10000))));
      } else if (col.kind == engine::Value::Kind::kDouble) {
        row.push_back(engine::Value::Real(rng.NextDouble() * 30.0));
      } else {
        row.push_back(engine::Value::Str("s"));
      }
    }
    SQLOG_RETURN_IF_ERROR((*table)->AppendRow(std::move(row)));
  }
  return Status::OK();
}

/// Per-run replay outcome.
struct ReplayStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> point_us;
  std::vector<double> inlist_us;
  std::vector<double> chunk_seconds;
  double timed_seconds = 0;  // replaying only; producing Stifles is excluded
  double cpu_seconds = 0;
};

/// Executes one statement and checks its row count. Untraced, it times
/// Executor::ExecuteSql (parse + execute, the shipped call); traced, it
/// brackets the parser and Executor::Execute separately.
void RunStatement(const engine::Executor& executor, Tracer* tracer, const std::string& text,
                  size_t expected_rows, bool point, ReplayStats* stats) {
  ++stats->attempted;
  bool ok = false;
  if (tracer == nullptr) {
    const double start = WallNow();
    auto result = executor.ExecuteSql(text);
    const double us = (WallNow() - start) * 1e6;
    ok = result.ok() && result->row_count() == expected_rows;
    (point ? stats->point_us : stats->inlist_us).push_back(us);
  } else {
    Result<sql::StmtPtr> stmt = Status::OK();
    {
      Tracer::Scope span(tracer, point ? "sql.parse.point" : "sql.parse.inlist");
      stmt = sql::ParseSelect(text);
    }
    if (stmt.ok()) {
      Tracer::Scope span(tracer, point ? "engine.exec.point" : "engine.exec.inlist");
      auto result = executor.Execute(*stmt.value());
      ok = result.ok() && result->row_count() == expected_rows;
    }
  }
  if (!ok) ++stats->failed;
}

// Every replay runs at least this many rewrites, so each p99 has at
// least ten samples beyond it.
constexpr size_t kMinInlists = 1000;

// A photoprimary page holds about 31 rows (heap and objid index
// together), so a pool of one page per 480 rows makes the table about
// 15 times the pool: the ratio of the Sec. 6.3 set-up at paper scale
// (2 M rows behind a 4096-page pool).
constexpr size_t kRowsPerPoolPage = 480;
constexpr size_t kMinPoolPages = 16;

/// Replays `passes` whole passes over `stifles` (each one's point
/// lookups, then its rewrite), timed in chunks of 50 Stifles.
void ReplayPasses(const engine::Executor& executor, Tracer* tracer,
                  const std::vector<Stifle>& stifles, size_t passes, ReplayStats* stats) {
  constexpr size_t kChunk = 50;
  const size_t total = passes * stifles.size();
  int iteration = 0;
  for (size_t begin = 0; begin < total; begin += kChunk) {
    const size_t end = std::min(total, begin + kChunk);
    if (tracer != nullptr) tracer->set_iteration(iteration);
    const double cpu_start = ProcessCpuNow();
    const double start = WallNow();
    {
      std::unique_ptr<Tracer::Scope> root;
      if (tracer != nullptr) root = std::make_unique<Tracer::Scope>(tracer, "replay.chunk");
      for (size_t i = begin; i < end; ++i) {
        const Stifle& stifle = stifles[i % stifles.size()];
        for (const std::string& point : stifle.points)
          RunStatement(executor, tracer, point, 1, /*point=*/true, stats);
        RunStatement(executor, tracer, stifle.inlist, stifle.inlist_rows, /*point=*/false, stats);
      }
    }
    const double elapsed = WallNow() - start;
    stats->cpu_seconds += ProcessCpuNow() - cpu_start;
    stats->timed_seconds += elapsed;
    stats->chunk_seconds.push_back(elapsed);
    ++iteration;
  }
}

int CmdReplay(int argc, char** argv) {
  if (argc != 4) return 2;
  const std::string stifles_path = argv[0];
  const std::string summary_path = argv[1];
  const std::string spans_path = argv[2];
  const bool trace = std::strcmp(argv[3], "1") == 0;

  std::vector<Stifle> stifles;
  std::vector<int64_t> objids;
  Status loaded = StiflesFromCleanLog(stifles_path, &stifles, &objids);
  if (!loaded.ok()) return Fail("load " + stifles_path, loaded);

  // Set-up: populate, then index, into a paged table about 15 times the
  // size of its buffer pool.
  engine::DatabaseOptions options;
  options.storage = engine::StorageMode::kPaged;
  options.buffer_pool_pages = std::max(kMinPoolPages, objids.size() / kRowsPerPoolPage);
  auto db = std::make_unique<engine::Database>(options);
  double start = WallNow();
  Status populated = PopulateObjects(*db, objids);
  if (!populated.ok()) return Fail("populate", populated);
  const double populate_s = WallNow() - start;
  start = WallNow();
  Status indexed = db->CreateIndex("photoprimary", "objid");
  if (!indexed.ok()) return Fail("index", indexed);
  const double index_s = WallNow() - start;

  engine::Executor executor(db.get());
  const engine::BufferPool::Stats pool_before =
      db->buffer_pool() != nullptr ? db->buffer_pool()->stats() : engine::BufferPool::Stats{};
  // Whole passes, the fewest that reach kMinInlists, so every replay of
  // one log runs the same statements.
  const size_t passes = (kMinInlists + stifles.size() - 1) / stifles.size();

  // Untraced pass: the end-to-end numbers (or, with trace=1, the
  // reference the traced pass is compared against).
  Tracer tracer;
  ReplayStats plain;
  ReplayPasses(executor, nullptr, stifles, passes, &plain);
  ReplayStats traced;
  if (trace) {
    tracer.Reserve(1 << 20);
    ReplayPasses(executor, &tracer, stifles, passes, &traced);
  }

  JsonOut json;
  json.Num("attempted", static_cast<double>(plain.attempted + traced.attempted));
  json.Num("failed", static_cast<double>(plain.failed + traced.failed));
  // Pooled over the whole untraced replay: a closed loop's rate is the
  // statements it completed over the time it spent replaying them.
  const double statements = std::max<double>(1, static_cast<double>(plain.attempted));
  json.Num("throughput_rps", statements / std::max(plain.timed_seconds, 1e-9));
  json.Num("cpu_us_per_rec", plain.cpu_seconds * 1e6 / statements);
  json.Num("point_p50_us", Median(plain.point_us));
  json.Num("point_p99_us", Percentile(plain.point_us, 0.99));
  json.Num("inlist_p50_us", Median(plain.inlist_us));
  json.Num("inlist_p99_us", Percentile(plain.inlist_us, 0.99));
  json.Num("point_samples", static_cast<double>(plain.point_us.size()));
  json.Num("inlist_samples", static_cast<double>(plain.inlist_us.size()));
  json.Num("engine.populate_s", populate_s);
  json.Num("engine.index_build_s", index_s);
  if (const engine::BufferPool* pool = db->buffer_pool(); pool != nullptr) {
    const engine::BufferPool::Stats after = pool->stats();
    const double hits = static_cast<double>(after.hits - pool_before.hits);
    const double misses = static_cast<double>(after.misses - pool_before.misses);
    const double all = static_cast<double>(plain.attempted + traced.attempted);
    json.Num("engine.pool.hit_ratio", hits + misses == 0 ? 0 : hits / (hits + misses));
    json.Num("engine.pool.misses_per_stmt", all == 0 ? 0 : misses / all);
    json.Num("engine.pool.evictions", static_cast<double>(after.evictions - pool_before.evictions));
    json.Num("engine.pool.pages", static_cast<double>(after.pool_pages));
  }
  json.Num("engine.exec.index_scans", static_cast<double>(executor.stats().index_scans));
  json.Num("engine.exec.full_scans", static_cast<double>(executor.stats().full_scans));
  if (trace) {
    for (const auto& [name, totals] : tracer.Totals()) {
      json.Num(name + ".self_s", totals.self_seconds);
      json.Num(name + ".cpu_s", totals.self_cpu);
      json.Num(name + ".median_self_us", Median(totals.self_samples) * 1e6);
      json.Num(name + ".spans", static_cast<double>(totals.spans));
    }
    // Per 50-Stifle chunk: traced minus untraced wall time.
    json.Num("trace.overhead_s", Median(traced.chunk_seconds) - Median(plain.chunk_seconds));
    json.Num("traced_statements", static_cast<double>(traced.attempted));
    if (!tracer.WriteSpans(spans_path)) {
      std::fprintf(stderr, "perfbench_tool: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  if (!json.WriteTo(summary_path)) {
    std::fprintf(stderr, "perfbench_tool: cannot write %s\n", summary_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  int rc = 2;
  if (cmd == "info") rc = CmdInfo();
  if (cmd == "gen") rc = CmdGen(argc - 2, argv + 2);
  if (cmd == "stifles") rc = CmdStifles(argc - 2, argv + 2);
  if (cmd == "trace-clean") rc = CmdTraceClean(argc - 2, argv + 2);
  if (cmd == "replay") rc = CmdReplay(argc - 2, argv + 2);
  if (rc == 2) std::fprintf(stderr, "usage: see the comment at the top of perfbench/tool.cc\n");
  return rc;
}
