#ifndef LAFP_EXEC_PARTITIONED_H_
#define LAFP_EXEC_PARTITIONED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dataframe/kernel_context.h"
#include "exec/backend.h"
#include "io/columnar.h"
#include "io/csv.h"

namespace lafp::exec {

/// One partition-sized unit of a scan: a CSV row range or an LFC chunk
/// slice. A source with no units yields one `empty` unit instead, which
/// reads as a zero-row frame carrying the scan's schema, so downstream
/// ops resolve columns by name and never see a schemaless frame.
struct ScanUnit {
  io::CsvRange range;  // kReadCsv
  io::LfcSlice slice;  // kReadLfc
  bool empty = false;
};

/// The one walker over a kReadCsv/kReadLfc scan, in file order: CSV
/// ranges of at most `partition_rows` records, or the chunks of the LFC
/// slice rule (io::LfcReader::Slices). Next is sequential; Read is const
/// and thread-safe, so units decode on a pool (Modin), only where they
/// are owned (a shard worker keeps unit i when i % workers == its index),
/// or one at a time (Dask's scan stream).
class ScanUnits {
 public:
  static Result<std::unique_ptr<ScanUnits>> Open(const OpDesc& desc,
                                                 size_t partition_rows,
                                                 MemoryTracker* tracker);

  /// The next unit, or nullopt after the last.
  Result<std::optional<ScanUnit>> Next();

  /// Decodes one unit. Thread-safe.
  Result<df::DataFrame> Read(const ScanUnit& unit) const;

 private:
  ScanUnits() = default;

  std::unique_ptr<io::CsvChunkReader> csv_;
  std::unique_ptr<io::LfcReader> lfc_;
  std::vector<size_t> lfc_columns_;  // projection, file order
  std::vector<std::string> lfc_categories_;  // read as categories
  std::vector<io::LfcSlice> lfc_slices_;
  size_t partition_rows_ = 0;
  size_t emitted_ = 0;
  bool done_ = false;
};

/// How an op runs over row partitions: the one per-op decision, shared by
/// the partitioned planner below (Modin, Shard) and Dask's stream
/// evaluator. kCombine ops fold through CombinerFor(desc); kChain
/// (concat) streams its inputs in order on Dask and gathers here.
enum class Strategy { kScan, kMap, kMerge, kLen, kChain, kCombine, kGather };

Strategy StrategyOf(const OpDesc& desc);

/// The eager partitioned backends (Modin, Shard): a frame is an ordered
/// list of row partitions held in a store, and the planner runs each op
/// by its StrategyOf:
///
///   - scans split into ScanUnits, one partition each;
///   - map ops run per partition and stay in place; a second frame input
///     must be Aligned (same per-partition rows, same placement), else
///     the op gathers;
///   - merges broadcast the materialized right side beside the left
///     partitions and join per partition;
///   - len sums the partition row counts;
///   - combines run the combiner's phase one per partition, or on the
///     prefix the combiner calls Enough (head's), and fold the returned
///     outputs; without a phase one they fold the fetched partitions. The
///     result is placed;
///   - everything else (concat, nunique group-bys, sort, misaligned maps)
///     gathers: the inputs are materialized, the eager kernel runs here,
///     and the result is placed.
///
/// Subclasses supply the store primitives below and forward Execute,
/// Materialize and FromEager to the planner (adding their own locking
/// and spans).
class PartitionedBackend : public Backend {
 public:
  using Backend::Backend;

  /// Every op but print (which the session handles).
  bool SupportsOp(const OpDesc& desc) const final;
  int64_t RowCount(const BackendValue& value) const final;

 protected:
  /// The planner.
  Result<BackendValue> ExecutePartitioned(
      const OpDesc& desc, const std::vector<BackendValue>& inputs);
  /// A frame's partitions concatenated (one passes through).
  Result<EagerValue> MaterializePartitioned(const BackendValue& value);
  Result<BackendValue> FromEagerPartitioned(const EagerValue& value);

  // The store. Frames are the subclass's own BackendFrame types; a
  // foreign frame is a clean Invalid.

  /// A scan, one partition per ScanUnits unit.
  virtual Result<BackendFramePtr> Scan(const OpDesc& desc) = 0;

  /// Runs `desc` on each partition of inputs[0] and keeps the outputs
  /// where they are: partition i of the result is the op over partition
  /// i. Later inputs are scalars, frames Aligned with inputs[0]
  /// (partition i feeds partition i) or Broadcast handles (whole, beside
  /// every partition).
  virtual Result<BackendFramePtr> RunKeep(
      const OpDesc& desc, const std::vector<BackendValue>& inputs) = 0;

  /// RunKeep over the first `limit` partitions of inputs[0] (or all it
  /// has), with the outputs returned here in partition order.
  virtual Result<std::vector<df::DataFrame>> RunReturn(
      const OpDesc& desc, const std::vector<BackendValue>& inputs,
      size_t limit) = 0;

  /// A frame's partitions, in order.
  virtual Result<std::vector<df::DataFrame>> Fetch(
      const BackendFrame& frame) = 0;

  /// Splits an eager frame into partitions of config().partition_rows
  /// rows (one empty partition for an empty frame) and stores them.
  virtual Result<BackendFramePtr> Place(const df::DataFrame& frame) = 0;

  /// Makes `frame` available whole beside every partition of
  /// `alongside`, as an input of RunKeep/RunReturn.
  virtual Result<BackendFramePtr> Broadcast(const df::DataFrame& frame,
                                            const BackendFrame& alongside) = 0;

  /// Whether partition i of `a` and of `b` can feed one task. The
  /// placement half of alignment; Aligned also compares row counts.
  virtual bool Colocated(const BackendFrame& a,
                         const BackendFrame& b) const = 0;

  /// The row count of each partition.
  virtual Result<std::vector<uint64_t>> Rows(
      const BackendFrame& frame) const = 0;

  /// The simulated dispatch cost (config().task_overhead_us) of `tasks`
  /// tasks the planner runs itself: one per partition it folds, one per
  /// gathered op. Stores pay it inside their own partition tasks.
  virtual void PayTasks(size_t tasks) const { (void)tasks; }

  /// Kernel context installed around gathered ops only; null = none.
  /// Partition tasks and combines never run under it, so their results do
  /// not depend on the morsel geometry.
  virtual const df::KernelContext* gather_kernels() const { return nullptr; }

 private:
  /// inputs[0] and every later frame input share per-partition row counts
  /// and placement.
  bool Aligned(const std::vector<BackendValue>& inputs) const;
  Result<BackendValue> Gather(const OpDesc& desc,
                              const std::vector<BackendValue>& inputs);
};

}  // namespace lafp::exec

#endif  // LAFP_EXEC_PARTITIONED_H_
