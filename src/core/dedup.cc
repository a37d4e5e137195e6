#include "core/dedup.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/hash.h"
#include "util/simd.h"

namespace sqlog::core {

namespace {

uint64_t DedupKeyHash(const DedupOptions& options, std::string_view user,
                      std::string_view statement) {
  if (options.key_hash_for_test) return options.key_hash_for_test(user, statement);
  return HashCombine(Fnv1a64(user), simd::HashKey128(statement).lo);
}

/// `later - earlier <= threshold` on the exact difference: timestamps are
/// arbitrary int64 values from the input, so the subtraction can
/// overflow (INT64_MAX - INT64_MIN used to wrap to -1, a "duplicate").
bool WithinThreshold(int64_t earlier, int64_t later, int64_t threshold) {
  int64_t gap = 0;
  if (__builtin_sub_overflow(later, earlier, &gap)) return later < earlier;
  return gap <= threshold;
}

}  // namespace

log::QueryLog RemoveDuplicates(const log::QueryLog& input, const DedupOptions& options,
                               DedupStats* stats, util::ThreadPool* /*pool*/) {
  const std::vector<log::LogRecord>& records = input.records();
  // Visit in QueryLog::SortByTime's order without copying the records.
  std::vector<size_t> order(records.size());
  std::iota(order.begin(), order.end(), size_t{0});
  if (!std::ranges::is_sorted(records, log::TimeOrderLess)) {
    std::ranges::stable_sort(order, [&](size_t a, size_t b) {
      return log::TimeOrderLess(records[a], records[b]);
    });
  }

  StreamingDeduper deduper(options);
  std::vector<size_t> survivors;
  survivors.reserve(order.size());
  for (size_t i : order) {
    if (!deduper.IsDuplicate(records[i])) survivors.push_back(i);
  }

  log::QueryLog output;
  output.records().reserve(survivors.size());
  for (size_t i : survivors) output.Append(records[i]);
  output.Renumber();

  if (stats != nullptr) {
    stats->input_count = input.size();
    stats->removed_count = deduper.duplicates_seen();
    stats->output_count = output.size();
  }
  return output;
}

StreamingDeduper::StreamingDeduper(const DedupOptions& options) : options_(options) {}

void StreamingDeduper::Evict(int64_t now) {
  while (!expiry_.empty() &&
         !WithinThreshold(expiry_.front().timestamp_ms, now, options_.threshold_ms)) {
    LiveMap::value_type* slot = expiry_.front().slot;
    expiry_.pop_front();
    if (--slot->second.pending != 0) continue;
    auto it = live_.equal_range(slot->first).first;
    while (&*it != slot) ++it;
    live_.erase(it);
  }
}

bool StreamingDeduper::IsDuplicate(const log::LogRecord& record) {
  ++records_seen_;
  if (!options_.unrestricted) Evict(record.timestamp_ms);
  const uint64_t key = DedupKeyHash(options_, record.user, record.statement);
  auto [it, end] = live_.equal_range(key);
  while (it != end &&
         (it->second.user != record.user || it->second.statement != record.statement)) {
    ++it;
  }
  bool is_duplicate = false;
  if (it == end) {
    it = live_.emplace(key, Entry{record.user, record.statement, record.timestamp_ms, 0});
  } else {
    is_duplicate = options_.unrestricted ||
                   WithinThreshold(it->second.timestamp_ms, record.timestamp_ms,
                                   options_.threshold_ms);
    it->second.timestamp_ms = record.timestamp_ms;
  }
  if (!options_.unrestricted) {
    ++it->second.pending;
    expiry_.push_back(Expiry{record.timestamp_ms, &*it});
  }
  if (is_duplicate) ++duplicates_seen_;
  return is_duplicate;
}

}  // namespace sqlog::core
