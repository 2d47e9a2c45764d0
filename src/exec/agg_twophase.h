#ifndef LAFP_EXEC_AGG_TWOPHASE_H_
#define LAFP_EXEC_AGG_TWOPHASE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataframe/kahan.h"
#include "dataframe/ops.h"
#include "exec/eager_ops.h"
#include "exec/op.h"

namespace lafp::exec {

/// The fold of the combine strategy (exec/partitioned.h): an op's input
/// partitions, added in partition order, fold into the op's result, the
/// same on every partitioned engine. A combiner may name a phase-one op;
/// an engine then runs it on each partition where the partition lives and
/// folds the outputs with AddPartial. AddPartition folds a raw partition,
/// running phase one here.
class Combiner {
 public:
  virtual ~Combiner() = default;

  /// The op run on each partition before the fold, or null.
  const OpDesc* phase_one() const {
    return phase_one_.has_value() ? &*phase_one_ : nullptr;
  }

  /// Folds one raw partition.
  Status AddPartition(const df::DataFrame& partition);

  /// Folds one phase-one output (without a phase one, a raw partition).
  virtual Status AddPartial(df::DataFrame partial) = 0;

  /// True once the first `partitions` partitions, holding `rows` rows,
  /// decide the result (head's prefix): an engine runs phase one on or
  /// pulls no more.
  virtual bool Enough(size_t /*partitions*/, uint64_t /*rows*/) const {
    return false;
  }

  /// The op's result. The combiner is spent.
  virtual Result<EagerValue> Finish() = 0;

 protected:
  std::optional<OpDesc> phase_one_;
};

/// The combiner of a decomposable op: group-by (without nunique), reduce,
/// head, value_counts, describe, drop_duplicates, unique and top_k. Null
/// for any other op. An op with a combiner has the combine strategy.
std::unique_ptr<Combiner> CombinerFor(const OpDesc& desc);

/// Two-phase group-by: phase one is an ordinary kGroupByAgg over partial
/// specs, and the fold concatenates the partials and re-aggregates them.
/// mean decomposes into sum+count; nunique is not decomposable (the op
/// gathers instead).
class GroupByCombiner : public Combiner {
 public:
  GroupByCombiner(std::vector<std::string> keys,
                  std::vector<df::AggSpec> aggs);

  /// False if some aggregate (nunique) cannot run in two phases.
  static bool Decomposable(const std::vector<df::AggSpec>& aggs);
  bool supported() const { return Decomposable(aggs_); }

  /// Order matters: partials must be added in partition order for
  /// deterministic first-appearance group ordering.
  Status AddPartial(df::DataFrame partial) override;
  Result<EagerValue> Finish() override;

 private:
  std::vector<std::string> keys_;
  std::vector<df::AggSpec> aggs_;
  std::vector<df::DataFrame> partials_;
};

/// Two-phase whole-column reduction (series.sum()/mean()/min()/...) over
/// raw partitions. nunique keeps each partition's distinct values and
/// counts their union.
class ReduceCombiner : public Combiner {
 public:
  explicit ReduceCombiner(df::AggFunc func);

  /// Folds one partition of the series (a one-column frame).
  Status AddPartial(df::DataFrame partition) override;
  Result<EagerValue> Finish() override;

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
