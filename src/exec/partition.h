#ifndef LAFP_EXEC_PARTITION_H_
#define LAFP_EXEC_PARTITION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataframe/dataframe.h"
#include "io/csv.h"

namespace lafp::exec {

/// A horizontal partition held either in memory or spilled to an LFC
/// file on disk (the §5.4 disk-persist extension). Spilled partitions
/// release their memory reservation and are reloaded (re-charging the
/// tracker) on access.
class Partition {
 public:
  explicit Partition(df::DataFrame frame)
      : frame_(std::move(frame)), num_rows_(frame_.num_rows()) {}

  /// Spill to `<dir>/<name>.part.lfc` (io::WriteLfcFile), dropping the
  /// in-memory frame. The `spill.write` fault site fires once; a failed
  /// spill leaves no file and keeps the frame, so it can be retried.
  Status SpillTo(const std::string& dir, const std::string& name);

  /// In-memory frame (loads from disk if spilled; the `spill.read` fault
  /// site fires once per load).
  Result<df::DataFrame> Load(MemoryTracker* tracker) const;

  bool spilled() const { return !spill_path_.empty(); }
  size_t num_rows() const { return num_rows_; }

 private:
  df::DataFrame frame_;  // empty when spilled
  std::string spill_path_;
  size_t num_rows_ = 0;
};

/// Row partitions concatenated in order: one passes through unchanged,
/// none is an empty frame.
Result<df::DataFrame> ConcatPartitions(std::vector<df::DataFrame> parts);

/// An ordered list of partitions — the in-memory representation used by
/// the Modin backend and the persisted/cached representation in the Dask
/// backend.
class PartitionedFrame {
 public:
  PartitionedFrame() = default;

  void Add(df::DataFrame partition) {
    partitions_.emplace_back(std::make_shared<Partition>(
        std::move(partition)));
  }

  size_t num_partitions() const { return partitions_.size(); }
  /// Rows of partition `i`.
  size_t num_rows(size_t i) const { return partitions_[i]->num_rows(); }

  Result<df::DataFrame> partition(size_t i, MemoryTracker* tracker) const {
    return partitions_[i]->Load(tracker);
  }

  /// Spill one partition (used to bound memory while collecting).
  Status SpillPartition(size_t i, const std::string& dir,
                        const std::string& name) {
    return partitions_[i]->SpillTo(dir, name);
  }

  /// Split an eager frame into row chunks of `partition_rows`. Fails
  /// (kOutOfMemory) if the chunk copies exceed the budget.
  static Result<PartitionedFrame> FromEager(const df::DataFrame& frame,
                                            size_t partition_rows);

 private:
  std::vector<std::shared_ptr<Partition>> partitions_;
};

}  // namespace lafp::exec

#endif  // LAFP_EXEC_PARTITION_H_
