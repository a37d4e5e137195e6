#ifndef SQLOG_CORE_DEDUP_H_
#define SQLOG_CORE_DEDUP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "log/record.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sqlog::core {

/// Options for the duplicate-removal step (paper Sec. 5.2).
struct DedupOptions {
  /// Two identical statements from the same user count as one when the
  /// later one arrives within this window of the previous occurrence.
  int64_t threshold_ms = 1000;
  /// When true, the window is unlimited ("non restricted" row of
  /// Table 4): every repeat of an identical statement is a duplicate.
  bool unrestricted = false;
  /// Test seam: overrides the (user, statement) key hash so collision
  /// handling can be exercised without crafting real 64-bit FNV
  /// collisions. Duplicate decisions must not change under any override
  /// — keys are always verified against the full stored strings.
  std::function<uint64_t(std::string_view user, std::string_view statement)>
      key_hash_for_test;
};

/// Outcome counters for the dedup step.
struct DedupStats {
  size_t input_count = 0;
  size_t removed_count = 0;
  size_t output_count = 0;
};

/// Removes duplicate statements: identical text, same user, within the
/// time threshold of the previous occurrence (chained — a burst of
/// reloads collapses to its first statement). A front over
/// StreamingDeduper: the records are visited in (timestamp, seq) order
/// (stably sorted through an index permutation unless the input already
/// is), and only the survivors are copied. The output preserves time
/// order and is renumbered.
///
/// `pool` is ignored and stays only for source compatibility.
log::QueryLog RemoveDuplicates(const log::QueryLog& input, const DedupOptions& options,
                               DedupStats* stats = nullptr,
                               util::ThreadPool* pool = nullptr);

/// The Sec. 5.2 duplicate rule, one record at a time. Records must be
/// offered in (timestamp, seq) order; each is classified against the
/// last occurrence of its (user, statement) key. Keys are verified
/// against full stored strings, so a 64-bit hash collision can never
/// flag a non-duplicate.
///
/// A key whose last occurrence lies more than `threshold_ms` behind the
/// current record can no longer flag anything — its next occurrence
/// would be kept either way — so it is evicted. Memory is therefore
/// O(records inside one threshold window), not O(distinct keys); in
/// unrestricted mode every key is kept for the whole run.
class StreamingDeduper {
 public:
  explicit StreamingDeduper(const DedupOptions& options);

  /// Classifies `record` and updates the chain state (the duplicate
  /// window chains on the last occurrence, duplicate or not).
  bool IsDuplicate(const log::LogRecord& record);

  /// (user, statement) keys currently held — those last seen inside the
  /// window of the latest record (all keys seen, in unrestricted mode).
  size_t live_keys() const { return live_.size(); }

  /// Records offered / flagged so far.
  uint64_t records_seen() const { return records_seen_; }
  uint64_t duplicates_seen() const { return duplicates_seen_; }

 private:
  struct Entry {
    std::string user;
    std::string statement;
    int64_t timestamp_ms = 0;  // last occurrence
    uint32_t pending = 0;      // expiry_ items that point here
  };
  /// key hash → entry (several per hash only on a 64-bit collision).
  using LiveMap = std::unordered_multimap<uint64_t, Entry>;
  struct Expiry {
    int64_t timestamp_ms;
    /// A pointer, not an iterator: a rehash invalidates iterators but
    /// never moves the elements.
    LiveMap::value_type* slot;
  };

  /// Drops the entries whose last occurrence is out of `now`'s window.
  void Evict(int64_t now);

  DedupOptions options_ SQLOG_CONST_AFTER_INIT;
  LiveMap live_ SQLOG_SHARD_LOCAL;
  /// One item per occurrence, in arrival (= time) order. An entry is
  /// erased when its last item expires; earlier items only count down.
  std::deque<Expiry> expiry_ SQLOG_SHARD_LOCAL;
  uint64_t records_seen_ SQLOG_SHARD_LOCAL = 0;
  uint64_t duplicates_seen_ SQLOG_SHARD_LOCAL = 0;
};

}  // namespace sqlog::core

#endif  // SQLOG_CORE_DEDUP_H_
