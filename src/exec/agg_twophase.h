#ifndef LAFP_EXEC_AGG_TWOPHASE_H_
#define LAFP_EXEC_AGG_TWOPHASE_H_

#include <string>
#include <vector>

#include "dataframe/kahan.h"
#include "dataframe/ops.h"

namespace lafp::exec {

/// Two-phase (partial + combine) group-by used by the partitioned
/// backends: each partition is partially aggregated, the small partials
/// are concatenated, and a combine pass merges them. mean decomposes into
/// sum+count; nunique is not decomposable (callers fall back).
class GroupByCombiner {
 public:
  GroupByCombiner(std::vector<std::string> keys,
                  std::vector<df::AggSpec> aggs);

  /// False if some aggregate (nunique) cannot run in two phases.
  bool supported() const { return supported_; }

  /// Partially aggregate one partition and retain the (small) partial.
  Status AddPartition(const df::DataFrame& partition);

  /// Phase one alone: partially aggregate a partition without retaining
  /// it. The shard workers run this remotely and ship the (small) partial
  /// back; the coordinator folds the results with AddPartial in global
  /// partition order so the combined output is byte-identical to the
  /// single-process two-phase path.
  Result<df::DataFrame> PartialAggregate(const df::DataFrame& partition) const;

  /// Fold a partial produced by PartialAggregate (possibly in another
  /// process). Order matters: partials must be added in global partition
  /// order for deterministic first-appearance group ordering.
  Status AddPartial(df::DataFrame partial);

  /// Combine all partials into the final result. The combiner is spent.
  Result<df::DataFrame> Finish();

  size_t num_partials() const { return partials_.size(); }

 private:
  std::vector<std::string> keys_;
  std::vector<df::AggSpec> aggs_;
  std::vector<df::AggSpec> partial_specs_;
  bool supported_ = true;
  std::vector<df::DataFrame> partials_;
};

/// Two-phase whole-column reduction (series.sum()/mean()/min()/...).
/// nunique keeps each partition's distinct values and counts their union.
class ReduceCombiner {
 public:
  explicit ReduceCombiner(df::AggFunc func);

  /// Fold one partition of the series (a one-column frame).
  Status AddPartition(const df::DataFrame& partition);

  Result<df::Scalar> Finish();

 private:
  df::AggFunc func_;
  df::KahanSum sum_;
  int64_t isum_ = 0;
  int64_t count_ = 0;
  bool has_value_ = false;
  df::Scalar min_, max_;
  std::vector<df::DataFrame> distinct_;  // nunique: per-partition uniques
  df::DataType seen_type_ = df::DataType::kNull;
};

}  // namespace lafp::exec

#endif  // LAFP_EXEC_AGG_TWOPHASE_H_
