#ifndef LAFP_LAZY_RESULT_CACHE_H_
#define LAFP_LAZY_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "exec/eager_ops.h"
#include "lazy/plan_fingerprint.h"
#include "lazy/task_graph.h"

namespace lafp::lazy {

class Session;

/// Cache key: canonical plan hash x combined input-file fingerprint. A
/// source-file edit changes input_hash, so stale entries simply stop being
/// reachable and age out of the LRU list.
struct CacheKey {
  uint64_t plan_hash = 0;
  uint64_t input_hash = 0;

  bool operator==(const CacheKey& o) const {
    return plan_hash == o.plan_hash && input_hash == o.input_hash;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const;
};

/// Bounded, thread-safe LRU cache of materialized query results, shared
/// across sessions (DESIGN.md "Plan & result cache"). Values are stored
/// under their *canonical* column names (see PlanFingerprint::schema);
/// Insert/Lookup callers relabel between visible and canonical names.
///
/// Inserted values are deep-copied into cache-owned columns charged to
/// `Options::charge_tracker` (a private unlimited tracker when null), so
/// cached data never dangles on a dead session tracker and eviction
/// releases real accounted bytes.
class ResultCache {
 public:
  static constexpr size_t kDefaultCapacityBytes = 256ull << 20;  // 256 MiB

  struct Options {
    size_t capacity_bytes = kDefaultCapacityBytes;
    /// Tracker charged for cached bytes. Null = the cache owns a private
    /// unlimited tracker. A non-null tracker must outlive the cache; a
    /// bounded one turns its budget into an additional capacity limit
    /// (reservation failure evicts, then skips the insert).
    MemoryTracker* charge_tracker = nullptr;
  };

  ResultCache();  // default Options
  explicit ResultCache(Options options);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Deep-copy `value` into the cache under `key`. Replaces an existing
  /// entry. Values larger than the capacity are skipped (OK). Fails only
  /// on copy errors other than tracker pressure.
  Status Insert(const CacheKey& key, const exec::EagerValue& value);

  /// Hit returns the cached value (shared, immutable) and refreshes LRU
  /// recency; miss returns null. Counts hits/misses.
  std::shared_ptr<const exec::EagerValue> Lookup(const CacheKey& key);

  /// Peek without touching recency or hit/miss counters.
  bool Contains(const CacheKey& key) const;

  void Erase(const CacheKey& key);
  void Clear();

  size_t bytes() const;
  size_t entries() const;
  size_t capacity_bytes() const { return capacity_bytes_; }

  /// Admission-aware capacity. The configured capacity is a hard ceiling;
  /// a server admitting many concurrent sessions can shrink the
  /// *effective* capacity so cached results yield memory to live queries,
  /// then restore it when load drains. Shrinking evicts immediately down
  /// to the new limit; values are clamped to [0, capacity_bytes()].
  void set_effective_capacity(size_t bytes);
  size_t effective_capacity() const {
    return effective_capacity_.load(std::memory_order_relaxed);
  }
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t inserts() const { return inserts_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Process-wide shared cache (private tracker, default capacity; the
  /// LAFP_CACHE env knob can resize it — see FromEnv).
  static const std::shared_ptr<ResultCache>& Global();

  /// Resolve the LAFP_CACHE env knob: unset/"0"/"off" -> null (disabled);
  /// "1"/"on" -> Global(); a byte count -> Global(), whose capacity is
  /// read from the knob at first construction.
  static std::shared_ptr<ResultCache> FromEnv();

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const exec::EagerValue> value;
    int64_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  /// Drop the least-recent entry; false when empty. Requires mu_.
  bool EvictOneLocked();
  void EraseLocked(LruList::iterator it);
  void UpdateGauges() const;

  const size_t capacity_bytes_;
  std::atomic<size_t> effective_capacity_;
  std::unique_ptr<MemoryTracker> owned_tracker_;
  MemoryTracker* tracker_;

  mutable std::mutex mu_;
  LruList lru_;  // front = most recent
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> index_;
  size_t bytes_ = 0;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> evictions_{0};
};

/// Deep copy with fresh columns charged to `tracker` (scalars copy
/// trivially). Fails on tracker pressure or unsupported column types.
Result<exec::EagerValue> DeepCopyEagerValue(const exec::EagerValue& value,
                                            MemoryTracker* tracker);

/// Rename `value`'s columns through the fingerprint schema `mapping`
/// ((visible, canonical) pairs): visible -> canonical when `to_canonical`,
/// the inverse otherwise. Column data is shared, never copied. Fails when
/// the frame's columns do not match the mapping exactly.
Result<exec::EagerValue> RelabelColumns(
    const exec::EagerValue& value,
    const std::vector<std::pair<std::string, std::string>>& mapping,
    bool to_canonical);

/// The cache-splice optimizer stage and its post-round insert hook. One
/// instance per session; the session runs Splice as the forced last stage
/// of every round's pass pipeline and InsertRoundResults after a
/// successful round.
class CacheSplicer {
 public:
  explicit CacheSplicer(std::shared_ptr<ResultCache> cache)
      : cache_(std::move(cache)) {}

  /// Replace cached, cacheable subtrees under `roots` with kMaterialized
  /// leaves carrying the cached payload (imported into the session's
  /// backend). Runs after the rewriting passes, so fingerprints describe
  /// the optimized plan.
  Status Splice(Session* session, const std::vector<TaskNodePtr>& roots);

  /// Mark the round's insert candidates (print inputs with cacheable,
  /// not-yet-cached fingerprints) persist, so §2.6 result clearing does
  /// not discard their values before InsertRoundResults can copy them.
  /// Call after the session's own persist marking; InsertRoundResults
  /// undoes the marks (and clears the retained results) afterwards.
  /// No-op on backends that never insert (see InsertRoundResults).
  void PrepareHarvest(Session* session, const std::vector<TaskNodePtr>& roots);

  /// Undo PrepareHarvest's marks without inserting (failed rounds).
  void AbandonHarvest();

  /// Offer the round's materialized results (print inputs, compute
  /// targets, and persisted shared nodes) to the cache. Only
  /// order-preserving eager backends insert; any backend may hit. Insert
  /// failures are swallowed (the cache is an accelerator, never a
  /// correctness dependency).
  void InsertRoundResults(Session* session,
                          const std::vector<TaskNodePtr>& roots);

  const std::shared_ptr<ResultCache>& cache() const { return cache_; }

 private:
  std::shared_ptr<ResultCache> cache_;
  PlanFingerprinter fingerprinter_;
  /// Nodes whose persist flag PrepareHarvest set (it was clear before);
  /// their retained results are dropped once harvested.
  std::vector<TaskNodePtr> harvest_;
};

}  // namespace lafp::lazy

#endif  // LAFP_LAZY_RESULT_CACHE_H_
