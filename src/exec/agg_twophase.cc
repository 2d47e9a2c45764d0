#include "exec/agg_twophase.h"

#include <cmath>

#include "common/macros.h"
#include "exec/partition.h"

namespace lafp::exec {

using df::AggFunc;
using df::AggSpec;
using df::Column;
using df::ColumnPtr;
using df::DataFrame;
using df::Scalar;

namespace {

std::string PartialName(size_t i, const char* tag) {
  return "__p" + std::to_string(i) + "_" + tag;
}

/// -1/0/+1 compare of two non-null scalars of compatible type.
int CompareScalars(const Scalar& a, const Scalar& b) {
  if (a.type() == df::DataType::kString ||
      a.type() == df::DataType::kCategory) {
    return a.string_value().compare(b.string_value());
  }
  double x = *a.AsDouble();
  double y = *b.AsDouble();
  return x < y ? -1 : (x > y ? 1 : 0);
}

}  // namespace

Status Combiner::AddPartition(const DataFrame& partition) {
  if (!phase_one_.has_value()) return AddPartial(partition);
  LAFP_ASSIGN_OR_RETURN(EagerValue partial,
                        ExecuteEagerOp(*phase_one_,
                                       {EagerValue::Frame(partition)},
                                       partition.tracker()));
  return AddPartial(std::move(partial.frame));
}

GroupByCombiner::GroupByCombiner(std::vector<std::string> keys,
                                 std::vector<AggSpec> aggs)
    : keys_(std::move(keys)), aggs_(std::move(aggs)) {
  OpDesc op;
  op.kind = OpKind::kGroupByAgg;
  op.columns = keys_;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    switch (a.func) {
      case AggFunc::kSum:
        op.aggs.push_back({a.column, AggFunc::kSum, PartialName(i, "sum")});
        break;
      case AggFunc::kCount:
        op.aggs.push_back({a.column, AggFunc::kCount, PartialName(i, "cnt")});
        break;
      case AggFunc::kMin:
        op.aggs.push_back({a.column, AggFunc::kMin, PartialName(i, "min")});
        break;
      case AggFunc::kMax:
        op.aggs.push_back({a.column, AggFunc::kMax, PartialName(i, "max")});
        break;
      case AggFunc::kMean:
        op.aggs.push_back({a.column, AggFunc::kSum, PartialName(i, "sum")});
        op.aggs.push_back({a.column, AggFunc::kCount, PartialName(i, "cnt")});
        break;
      case AggFunc::kNunique:
        break;
    }
  }
  phase_one_ = std::move(op);
}

bool GroupByCombiner::Decomposable(const std::vector<AggSpec>& aggs) {
  for (const AggSpec& a : aggs) {
    if (a.func == AggFunc::kNunique) return false;
  }
  return true;
}

Status GroupByCombiner::AddPartial(DataFrame partial) {
  if (!supported()) return Status::Invalid("nunique is not two-phase");
  partials_.push_back(std::move(partial));
  return Status::OK();
}

Result<EagerValue> GroupByCombiner::Finish() {
  if (!supported()) return Status::Invalid("nunique is not two-phase");
  if (partials_.empty()) {
    return Status::Invalid("no partitions were aggregated");
  }
  LAFP_ASSIGN_OR_RETURN(DataFrame all, df::Concat(partials_));
  partials_.clear();

  // Combine pass: re-aggregate partials by the same keys.
  std::vector<AggSpec> combine_specs;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& a = aggs_[i];
    switch (a.func) {
      case AggFunc::kSum:
        combine_specs.push_back({PartialName(i, "sum"), AggFunc::kSum,
                                 a.out_name});
        break;
      case AggFunc::kCount:
        combine_specs.push_back({PartialName(i, "cnt"), AggFunc::kSum,
                                 a.out_name});
        break;
      case AggFunc::kMin:
        combine_specs.push_back({PartialName(i, "min"), AggFunc::kMin,
                                 a.out_name});
        break;
      case AggFunc::kMax:
        combine_specs.push_back({PartialName(i, "max"), AggFunc::kMax,
                                 a.out_name});
        break;
      case AggFunc::kMean:
        combine_specs.push_back({PartialName(i, "sum"), AggFunc::kSum,
                                 PartialName(i, "sum")});
        combine_specs.push_back({PartialName(i, "cnt"), AggFunc::kSum,
                                 PartialName(i, "cnt")});
        break;
      case AggFunc::kNunique:
        break;
    }
  }
  LAFP_ASSIGN_OR_RETURN(DataFrame combined,
                        df::GroupByAgg(all, keys_, combine_specs));
  // Resolve means and project to the requested output schema. Groups
  // whose inputs were all null have count 0; pandas (and the single-phase
  // kernel) yield a null mean there, whereas sum/count division would
  // produce a *valid* NaN — observably different to checksums and dropna.
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (aggs_[i].func != AggFunc::kMean) continue;
    LAFP_ASSIGN_OR_RETURN(ColumnPtr sum_col,
                          combined.column(PartialName(i, "sum")));
    LAFP_ASSIGN_OR_RETURN(ColumnPtr cnt_col,
                          combined.column(PartialName(i, "cnt")));
    const size_t n = combined.num_rows();
    std::vector<double> values(n);
    std::vector<uint8_t> validity(n, 1);
    bool any_empty = false;
    for (size_t r = 0; r < n; ++r) {
      int64_t cnt = cnt_col->IsValid(r) ? cnt_col->IntAt(r) : 0;
      if (cnt == 0) {
        values[r] = std::nan("");
        validity[r] = 0;
        any_empty = true;
        continue;
      }
      LAFP_ASSIGN_OR_RETURN(double sum, sum_col->NumericAt(r));
      values[r] = sum / static_cast<double>(cnt);
    }
    if (!any_empty) validity.clear();
    LAFP_ASSIGN_OR_RETURN(
        ColumnPtr mean_col,
        Column::MakeDouble(std::move(values), std::move(validity),
                           combined.tracker()));
    LAFP_ASSIGN_OR_RETURN(combined,
                          combined.WithColumn(aggs_[i].out_name, mean_col));
  }
  std::vector<std::string> out_names = keys_;
  for (const auto& a : aggs_) out_names.push_back(a.out_name);
  LAFP_ASSIGN_OR_RETURN(DataFrame out, combined.Select(out_names));
  return EagerValue::Frame(std::move(out));
}

ReduceCombiner::ReduceCombiner(AggFunc func) : func_(func) {}

Status ReduceCombiner::AddPartial(DataFrame partition) {
  if (partition.num_columns() != 1) {
    return Status::TypeError("reduce expects a series partition");
  }
  const Column& col = *partition.column(size_t{0});
  if (seen_type_ == df::DataType::kNull) seen_type_ = col.type();
  if (func_ == AggFunc::kNunique) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr u, df::Unique(col));
    LAFP_ASSIGN_OR_RETURN(DataFrame values, DataFrame::Make({"v"}, {u}));
    distinct_.push_back(std::move(values));
    return Status::OK();
  }
  // Fold using the engine's single-column reductions.
  if (func_ == AggFunc::kSum || func_ == AggFunc::kMean ||
      func_ == AggFunc::kCount) {
    if (func_ != AggFunc::kCount) {
      LAFP_ASSIGN_OR_RETURN(Scalar s, df::Reduce(col, AggFunc::kSum));
      if (s.type() == df::DataType::kInt64) {
        isum_ += s.int_value();
        sum_.Add(static_cast<double>(s.int_value()));
      } else {
        sum_.Add(s.double_value());
      }
    }
    LAFP_ASSIGN_OR_RETURN(Scalar c, df::Reduce(col, AggFunc::kCount));
    count_ += c.int_value();
    return Status::OK();
  }
  // min / max
  LAFP_ASSIGN_OR_RETURN(Scalar m, df::Reduce(col, func_));
  if (m.is_null()) return Status::OK();
  if (!has_value_) {
    min_ = max_ = m;
    has_value_ = true;
    return Status::OK();
  }
  if (func_ == AggFunc::kMin && CompareScalars(m, min_) < 0) min_ = m;
  if (func_ == AggFunc::kMax && CompareScalars(m, max_) > 0) max_ = m;
  return Status::OK();
}

Result<EagerValue> ReduceCombiner::Finish() {
  LAFP_ASSIGN_OR_RETURN(Scalar out, [&]() -> Result<Scalar> {
    switch (func_) {
      case AggFunc::kNunique: {
        if (distinct_.empty()) return Scalar::Int(0);
        LAFP_ASSIGN_OR_RETURN(DataFrame all, df::Concat(distinct_));
        return df::Reduce(*all.column(size_t{0}), AggFunc::kNunique);
      }
      case AggFunc::kCount:
        return Scalar::Int(count_);
      case AggFunc::kSum:
        if (seen_type_ == df::DataType::kInt64 ||
            seen_type_ == df::DataType::kBool) {
          return Scalar::Int(isum_);
        }
        return Scalar::Double(sum_.Total());
      case AggFunc::kMean:
        if (count_ == 0) return Scalar::Null();
        return Scalar::Double(sum_.Total() / static_cast<double>(count_));
      case AggFunc::kMin:
        return has_value_ ? min_ : Scalar::Null();
      case AggFunc::kMax:
        return has_value_ ? max_ : Scalar::Null();
    }
    return Status::Invalid("bad reduce function");
  }());
  return EagerValue::FromScalar(std::move(out));
}

namespace {

/// head(n): phase one is head(n) itself, so a partition ships at most n
/// rows; the fold keeps the prefix until n rows are in hand. The first
/// partition is always kept, so head(0) still carries its schema.
class HeadCombiner : public Combiner {
 public:
  explicit HeadCombiner(const OpDesc& desc) : n_(desc.n) { phase_one_ = desc; }

  Status AddPartial(DataFrame partition) override {
    LAFP_ASSIGN_OR_RETURN(DataFrame prefix, df::Head(partition, n_ - rows_));
    rows_ += prefix.num_rows();
    pieces_.push_back(std::move(prefix));
    return Status::OK();
  }
  bool Enough(size_t partitions, uint64_t rows) const override {
    return partitions > 0 && rows >= n_;
  }
  Result<EagerValue> Finish() override {
    LAFP_ASSIGN_OR_RETURN(DataFrame out, ConcatPartitions(std::move(pieces_)));
    return EagerValue::Frame(std::move(out));
  }

 private:
  size_t n_;
  size_t rows_ = 0;
  std::vector<DataFrame> pieces_;
};

/// One running frame: the first partial, then merge_ over the running
/// frame concatenated with each later partial. Rows keep first-appearance
/// order, and the state grows only with the distinct keys.
class RunningCombiner : public Combiner {
 public:
  Status AddPartial(DataFrame partial) override {
    if (!running_.has_value()) {
      running_ = std::move(partial);
      return Status::OK();
    }
    LAFP_ASSIGN_OR_RETURN(DataFrame both, df::Concat({*running_, partial}));
    LAFP_ASSIGN_OR_RETURN(
        EagerValue merged,
        ExecuteEagerOp(merge_, {EagerValue::Frame(both)}, both.tracker()));
    running_ = std::move(merged.frame);
    return Status::OK();
  }
  Result<EagerValue> Finish() override {
    return EagerValue::Frame(running_.has_value() ? std::move(*running_)
                                                  : DataFrame());
  }

 protected:
  OpDesc merge_;
  std::optional<DataFrame> running_;
};

/// drop_duplicates, unique and top_k: phase one and merge are the op
/// itself. For top_k the running frame holds the first n rows, in order,
/// of the partitions so far, and it precedes the next partial: rows with
/// equal keys keep their input order.
class DedupCombiner : public RunningCombiner {
 public:
  explicit DedupCombiner(const OpDesc& desc) { phase_one_ = merge_ = desc; }
};

/// value_counts: each partition's first-appearance counts
/// (df::CountValues), summed per value, so ties keep eager's order.
class ValueCountsCombiner : public RunningCombiner {
 public:
  ValueCountsCombiner() {
    merge_.kind = OpKind::kGroupByAgg;
    merge_.columns = {"value"};
    merge_.aggs = {{"count", AggFunc::kSum, "count"}};
  }
  Status AddPartial(DataFrame partition) override {
    const EagerValue series = EagerValue::Frame(std::move(partition));
    LAFP_ASSIGN_OR_RETURN(ColumnPtr col, series.AsColumn());
    if (!running_.has_value()) value_name_ = series.frame.names()[0];
    LAFP_ASSIGN_OR_RETURN(DataFrame counts, df::CountValues(*col));
    return RunningCombiner::AddPartial(std::move(counts));
  }
  Result<EagerValue> Finish() override {
    if (!running_.has_value()) return EagerValue::Frame(DataFrame());
    LAFP_ASSIGN_OR_RETURN(DataFrame out,
                          df::SortValueCounts(*running_, value_name_));
    return EagerValue::Frame(std::move(out));
  }

 private:
  std::string value_name_;
};

/// describe: df::DescribeFold over the partitions in row order, so the
/// Kahan sums keep the bits of one pass.
class DescribeCombiner : public Combiner {
 public:
  Status AddPartial(DataFrame partition) override {
    return fold_.Add(partition);
  }
  Result<EagerValue> Finish() override {
    LAFP_ASSIGN_OR_RETURN(DataFrame out, fold_.Finish());
    return EagerValue::Frame(std::move(out));
  }

 private:
  df::DescribeFold fold_;
};

}  // namespace

std::unique_ptr<Combiner> CombinerFor(const OpDesc& desc) {
  switch (desc.kind) {
    case OpKind::kGroupByAgg:
      if (!GroupByCombiner::Decomposable(desc.aggs)) return nullptr;
      return std::make_unique<GroupByCombiner>(desc.columns, desc.aggs);
    case OpKind::kReduce:
      return std::make_unique<ReduceCombiner>(desc.agg_func);
    case OpKind::kHead:
      return std::make_unique<HeadCombiner>(desc);
    case OpKind::kValueCounts:
      return std::make_unique<ValueCountsCombiner>();
    case OpKind::kDescribe:
      return std::make_unique<DescribeCombiner>();
    case OpKind::kDropDuplicates:
    case OpKind::kUnique:
    case OpKind::kTopK:
      return std::make_unique<DedupCombiner>(desc);
    default:
      return nullptr;
  }
}

}  // namespace lafp::exec
