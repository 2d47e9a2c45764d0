#ifndef LAFP_EXEC_AGG_TWOPHASE_H_
#define LAFP_EXEC_AGG_TWOPHASE_H_

#include <string>
#include <vector>

#include "dataframe/kahan.h"
#include "dataframe/ops.h"
#include "exec/op.h"

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

  /// Phase one as an ordinary kGroupByAgg over the partial specs: run it
  /// on each partition wherever the partition lives (a pool worker, a
  /// shard worker) and fold the outputs with AddPartial.
  OpDesc PartialOp() const;

  /// Partially aggregate one partition here and retain the partial.
  Status AddPartition(const df::DataFrame& partition);

  /// Fold the PartialOp output of one partition. Order matters: partials
  /// must be added in partition order for deterministic first-appearance
  /// group ordering.
  Status AddPartial(df::DataFrame partial);

  /// Combine all partials into the final result. The combiner is spent.
  Result<df::DataFrame> Finish();

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
