#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/macros.h"
#include "dataframe/arith_semantics.h"
#include "dataframe/kahan.h"
#include "dataframe/kernel_context.h"
#include "dataframe/key_index.h"
#include "dataframe/ops.h"

namespace lafp::df {

namespace {

bool IsStringy(DataType t) {
  return t == DataType::kString || t == DataType::kCategory;
}

// Approximate per-row cost of pandas' transient groupby/dedup hash table.
// It models pandas' footprint for the Fig 12/15 OOM results, not what the
// key index allocates.
constexpr int64_t kHashScratchBytesPerRow = 48;

/// Group ids of rows [0, n), built morsel by morsel: each morsel
/// factorizes its own rows (in parallel), then the first rows of morsels
/// 1.. are folded into morsel 0's index in morsel order. A group's first
/// morsel is folded first and a morsel opens its groups in row order, so
/// the ids are the ones a single pass assigns, whatever the geometry.
struct MorselGroups {
  size_t morsel_rows = 1;
  std::vector<uint32_t> local;  // per row: id within its morsel
  std::vector<size_t> local_groups;  // per morsel: number of local ids
  std::vector<std::vector<uint32_t>> to_global;  // [morsel][local id]
  std::optional<KeyIndex> index;  // every group; ids are the global ids

  size_t num_morsels() const { return local_groups.size(); }
  size_t num_groups() const { return index->num_groups(); }
  const std::vector<int64_t>& first_rows() const {
    return index->first_rows();
  }
  size_t begin(size_t m) const { return m * morsel_rows; }
  size_t end(size_t m) const {
    return std::min(local.size(), (m + 1) * morsel_rows);
  }
  uint32_t Global(size_t m, uint32_t id) const {
    return m == 0 ? id : to_global[m][id];
  }

  /// fn(row, global id) for every row, in row order.
  template <typename Fn>
  void ForEachRow(Fn fn) const {
    for (size_t m = 0; m < num_morsels(); ++m) {
      for (size_t r = begin(m); r < end(m); ++r) fn(r, Global(m, local[r]));
    }
  }
};

Result<MorselGroups> GroupMorsels(const std::vector<const Column*>& cols,
                                  size_t n) {
  MorselGroups g;
  const size_t morsels = NumMorsels(n);
  if (morsels > 1) g.morsel_rows = KernelContext::Current().morsel_rows();
  if (morsels == 1) g.morsel_rows = n;
  g.local.resize(n);
  std::vector<std::optional<KeyIndex>> locals(morsels);
  LAFP_RETURN_NOT_OK(RunMorsels(n, [&](size_t begin, size_t end) {
    KeyIndex& idx = locals[begin / g.morsel_rows].emplace(cols);
    idx.Insert(begin, end, g.local.data() + begin);
    return Status::OK();
  }));
  g.local_groups.resize(morsels);
  g.to_global.resize(morsels);
  for (size_t m = 0; m < morsels; ++m) {
    g.local_groups[m] = locals[m]->num_groups();
    if (m == 0) continue;
    g.to_global[m].resize(g.local_groups[m]);
    locals[0]->InsertRows(locals[m]->first_rows(), g.to_global[m].data());
    locals[m].reset();
  }
  if (morsels == 0) {
    g.index.emplace(cols);
  } else {
    g.index = std::move(locals[0]);
  }
  return g;
}

/// The running fields an aggregate reads when it is emitted.
struct Needs {
  bool sum = false;
  bool isum = false;
  bool count = false;
  bool min = false;
  bool max = false;
};

Needs NeedsOf(AggFunc func, DataType src) {
  Needs n;
  switch (func) {
    case AggFunc::kCount:
      n.count = true;
      break;
    case AggFunc::kSum:
      (src == DataType::kInt64 || src == DataType::kBool ? n.isum : n.sum) =
          true;
      break;
    case AggFunc::kMean:
      n.sum = n.count = true;
      break;
    case AggFunc::kMin:
      n.min = n.count = true;
      break;
    case AggFunc::kMax:
      n.max = n.count = true;
      break;
    case AggFunc::kNunique:
      break;
  }
  return n;
}

/// Running state of one aggregate over every group of one morsel, column
/// at a time: arrays indexed by group id, sized only for the fields the
/// aggregate reads. Numeric min/max run in double (as pandas' cython
/// groupby does for its float path); string min/max point into the
/// column's storage.
struct AggAcc {
  std::vector<KahanSum> sum;
  std::vector<int64_t> isum;
  std::vector<int64_t> count;
  std::vector<double> dmin, dmax;
  std::vector<const std::string*> smin, smax;  // nullptr: no value yet

  void Resize(const Needs& nd, bool stringy, size_t groups) {
    if (nd.sum) sum.resize(groups);
    if (nd.isum) isum.resize(groups, 0);
    if (nd.count) count.resize(groups, 0);
    if (nd.min && stringy) smin.resize(groups, nullptr);
    if (nd.max && stringy) smax.resize(groups, nullptr);
    if (nd.min && !stringy) {
      dmin.resize(groups, std::numeric_limits<double>::infinity());
    }
    if (nd.max && !stringy) {
      dmax.resize(groups, -std::numeric_limits<double>::infinity());
    }
  }
};

/// Fold rows [begin, end) of `col` into `acc`; row r belongs to group
/// gid(r). Rows are visited in row order, so every group's Kahan sum
/// adds its values in the order of a serial per-row loop, bit for bit.
/// Nulls and NaNs are skipped (pandas skipna).
template <typename Gid>
void Accumulate(AggAcc* acc, const Needs& nd, const Column& col,
                size_t begin, size_t end, Gid gid) {
  const uint8_t* valid = col.validity_data();
  auto numeric = [&](auto load) {
    for (size_t r = begin; r < end; ++r) {
      if (valid != nullptr && valid[r] == 0) continue;
      int64_t x;
      double v;
      if (!load(r, &x, &v)) continue;
      const uint32_t g = gid(r);
      if (nd.isum) acc->isum[g] = WrapAdd(acc->isum[g], x);
      if (nd.sum) acc->sum[g].Add(v);
      if (nd.count) ++acc->count[g];
      if (nd.min && v < acc->dmin[g]) acc->dmin[g] = v;
      if (nd.max && v > acc->dmax[g]) acc->dmax[g] = v;
    }
  };
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      const int64_t* p = col.int_data();
      numeric([p](size_t r, int64_t* x, double* v) {
        *x = p[r];
        *v = static_cast<double>(p[r]);
        return true;
      });
      return;
    }
    case DataType::kDouble: {
      const double* p = col.double_data();
      numeric([p](size_t r, int64_t* x, double* v) {
        *x = 0;
        *v = p[r];
        return !std::isnan(p[r]);
      });
      return;
    }
    case DataType::kBool: {
      const uint8_t* p = col.bool_data();
      numeric([p](size_t r, int64_t* x, double* v) {
        *x = p[r] != 0 ? 1 : 0;
        *v = p[r] != 0 ? 1.0 : 0.0;
        return true;
      });
      return;
    }
    case DataType::kString:
    case DataType::kCategory:
      for (size_t r = begin; r < end; ++r) {
        if (valid != nullptr && valid[r] == 0) continue;
        const uint32_t g = gid(r);
        if (nd.count) ++acc->count[g];
        if (!nd.min && !nd.max) continue;
        const std::string* s = &col.StringAt(r);
        if (nd.min && (acc->smin[g] == nullptr || *s < *acc->smin[g])) {
          acc->smin[g] = s;
        }
        if (nd.max && (acc->smax[g] == nullptr || *s > *acc->smax[g])) {
          acc->smax[g] = s;
        }
      }
      return;
    case DataType::kNull:
      return;
  }
}

/// Fold group `g` of a later morsel's partial into group `into_g`. A group
/// the morsel opened takes the partial as is; an older one merges it.
/// Callers go in morsel order, so the merged state (the Kahan compensation
/// included) is a pure function of the morsel geometry.
void MergeGroup(AggAcc* into, size_t into_g, const AggAcc& from, size_t g,
                bool opened) {
  if (!into->sum.empty()) {
    if (opened) {
      into->sum[into_g] = from.sum[g];
    } else {
      into->sum[into_g].MergeFrom(from.sum[g]);
    }
  }
  if (!into->isum.empty()) {
    into->isum[into_g] =
        opened ? from.isum[g] : WrapAdd(into->isum[into_g], from.isum[g]);
  }
  if (!into->count.empty()) {
    into->count[into_g] =
        opened ? from.count[g] : into->count[into_g] + from.count[g];
  }
  if (!into->dmin.empty()) {
    into->dmin[into_g] =
        opened ? from.dmin[g] : std::min(into->dmin[into_g], from.dmin[g]);
  }
  if (!into->dmax.empty()) {
    into->dmax[into_g] =
        opened ? from.dmax[g] : std::max(into->dmax[into_g], from.dmax[g]);
  }
  auto pick = [opened](const std::string*& dst, const std::string* src,
                       bool less) {
    if (src == nullptr) {
      if (opened) dst = nullptr;
      return;
    }
    if (opened || dst == nullptr || (less ? *src < *dst : *src > *dst)) {
      dst = src;
    }
  };
  if (!into->smin.empty()) pick(into->smin[into_g], from.smin[g], true);
  if (!into->smax.empty()) pick(into->smax[into_g], from.smax[g], false);
}

/// Output column type for an aggregate over a source column type.
DataType AggOutputType(AggFunc func, DataType src) {
  switch (func) {
    case AggFunc::kCount:
    case AggFunc::kNunique:
      return DataType::kInt64;
    case AggFunc::kMean:
      return DataType::kDouble;
    case AggFunc::kSum:
      return (src == DataType::kInt64 || src == DataType::kBool)
                 ? DataType::kInt64
                 : DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (IsStringy(src)) return DataType::kString;
      return src == DataType::kDouble ? DataType::kDouble : src;
  }
  return DataType::kDouble;
}

void EmitAgg(ColumnBuilder* builder, const AggAcc& acc, size_t g,
             AggFunc func, DataType src) {
  switch (func) {
    case AggFunc::kCount:
      builder->AppendInt(acc.count[g]);
      return;
    case AggFunc::kNunique:
      return;  // counted by GroupNunique
    case AggFunc::kSum:
      if (builder->type() == DataType::kInt64) {
        builder->AppendInt(acc.isum[g]);
      } else {
        builder->AppendDouble(acc.sum[g].Total());
      }
      return;
    case AggFunc::kMean:
      if (acc.count[g] == 0) {
        builder->AppendNull();
      } else {
        builder->AppendDouble(acc.sum[g].Total() /
                              static_cast<double>(acc.count[g]));
      }
      return;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool is_min = func == AggFunc::kMin;
      if (IsStringy(src)) {
        const std::string* s = is_min ? acc.smin[g] : acc.smax[g];
        if (s == nullptr) {
          builder->AppendNull();
        } else {
          builder->AppendString(*s);
        }
        return;
      }
      if (acc.count[g] == 0) {
        builder->AppendNull();
        return;
      }
      const double v = is_min ? acc.dmin[g] : acc.dmax[g];
      if (builder->type() == DataType::kDouble) {
        builder->AppendDouble(v);
      } else if (builder->type() == DataType::kBool) {
        builder->AppendBool(v != 0.0);
      } else {
        builder->AppendInt(static_cast<int64_t>(v));
      }
      return;
    }
  }
}

/// One aggregate for every group: a partial per morsel over the morsel's
/// local ids, merged into the global ids in morsel order.
Result<AggAcc> AggregateGroups(const MorselGroups& groups, const Needs& nd,
                               const Column& col) {
  const bool stringy = IsStringy(col.type());
  std::vector<AggAcc> partials(std::max<size_t>(groups.num_morsels(), 1));
  for (size_t m = 0; m < groups.num_morsels(); ++m) {
    partials[m].Resize(nd, stringy, groups.local_groups[m]);
  }
  LAFP_RETURN_NOT_OK(RunMorsels(col.size(), [&](size_t begin, size_t end) {
    Accumulate(&partials[begin / groups.morsel_rows], nd, col, begin, end,
               [&groups](size_t r) { return groups.local[r]; });
    return Status::OK();
  }));
  AggAcc total = std::move(partials[0]);
  total.Resize(nd, stringy, groups.num_groups());
  const auto& first_rows = groups.first_rows();
  for (size_t m = 1; m < groups.num_morsels(); ++m) {
    const auto& to = groups.to_global[m];
    for (size_t g = 0; g < to.size(); ++g) {
      const bool opened =
          static_cast<size_t>(first_rows[to[g]]) >= groups.begin(m);
      MergeGroup(&total, to[g], partials[m], g, opened);
    }
  }
  return total;
}

/// Distinct non-null values of `col` within each group: the groups of the
/// (keys..., value) tuple index, credited to the group of their first row.
std::vector<int64_t> GroupNunique(const MorselGroups& groups,
                                  std::vector<const Column*> key_cols,
                                  const Column& col) {
  key_cols.push_back(&col);
  KeyIndex pairs(key_cols);
  std::vector<uint32_t> ids(col.size());
  pairs.Insert(0, col.size(), ids.data());
  std::vector<uint8_t> opens(col.size(), 0);
  for (int64_t r : pairs.first_rows()) {
    opens[r] = col.IsValid(static_cast<size_t>(r)) ? 1 : 0;
  }
  std::vector<int64_t> counts(groups.num_groups(), 0);
  groups.ForEachRow([&](size_t r, uint32_t g) { counts[g] += opens[r]; });
  return counts;
}

}  // namespace

Result<Scalar> Reduce(const Column& col, AggFunc func) {
  if (func == AggFunc::kNunique) {
    LAFP_ASSIGN_OR_RETURN(MorselGroups groups,
                          GroupMorsels({&col}, col.size()));
    const size_t null_group = col.null_count() > 0 ? 1 : 0;
    return Scalar::Int(static_cast<int64_t>(groups.num_groups() - null_group));
  }
  // A whole-column reduction is a groupby with one group: a partial per
  // morsel, merged in morsel order, so the result is bit-identical across
  // thread counts.
  const size_t n = col.size();
  const Needs nd = NeedsOf(func, col.type());
  const bool stringy = IsStringy(col.type());
  const size_t morsels = std::max<size_t>(NumMorsels(n), 1);
  const size_t morsel_rows = morsels > 1
                                 ? KernelContext::Current().morsel_rows()
                                 : std::max<size_t>(n, 1);
  std::vector<AggAcc> partials(morsels);
  for (AggAcc& p : partials) p.Resize(nd, stringy, 1);
  LAFP_RETURN_NOT_OK(RunMorsels(n, [&](size_t begin, size_t end) {
    Accumulate(&partials[begin / morsel_rows], nd, col, begin, end,
               [](size_t) { return uint32_t{0}; });
    return Status::OK();
  }));
  AggAcc& st = partials[0];
  for (size_t m = 1; m < morsels; ++m) {
    MergeGroup(&st, 0, partials[m], 0, /*opened=*/false);
  }
  switch (func) {
    case AggFunc::kCount:
      return Scalar::Int(st.count[0]);
    case AggFunc::kNunique:
      break;
    case AggFunc::kSum:
      if (col.type() == DataType::kInt64 || col.type() == DataType::kBool) {
        return Scalar::Int(st.isum[0]);
      }
      if (!IsNumeric(col.type())) {
        return Status::TypeError("sum on non-numeric column");
      }
      return Scalar::Double(st.sum[0].Total());
    case AggFunc::kMean:
      if (!IsNumeric(col.type())) {
        return Status::TypeError("mean on non-numeric column");
      }
      if (st.count[0] == 0) return Scalar::Null();
      return Scalar::Double(st.sum[0].Total() /
                            static_cast<double>(st.count[0]));
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool is_min = func == AggFunc::kMin;
      if (stringy) {
        const std::string* s = is_min ? st.smin[0] : st.smax[0];
        if (s == nullptr) return Scalar::Null();
        return Scalar::String(*s);
      }
      if (st.count[0] == 0) return Scalar::Null();
      const double v = is_min ? st.dmin[0] : st.dmax[0];
      if (col.type() == DataType::kInt64) {
        return Scalar::Int(static_cast<int64_t>(v));
      }
      if (col.type() == DataType::kTimestamp) {
        return Scalar::Timestamp(static_cast<int64_t>(v));
      }
      return Scalar::Double(v);
    }
  }
  return Status::Invalid("bad aggregate");
}

Result<DataFrame> GroupByAgg(const DataFrame& df,
                             const std::vector<std::string>& keys,
                             const std::vector<AggSpec>& aggs) {
  if (keys.empty()) return Status::Invalid("groupby requires key columns");
  std::vector<const Column*> key_cols;
  key_cols.reserve(keys.size());
  for (const auto& k : keys) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, df.column(k));
    key_cols.push_back(c.get());
  }
  std::vector<const Column*> agg_cols;
  agg_cols.reserve(aggs.size());
  for (const auto& spec : aggs) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, df.column(spec.column));
    agg_cols.push_back(c.get());
  }

  // Hash-aggregation scratch space is charged against the budget for the
  // duration of the kernel: whole-frame group-bys on huge inputs are a
  // real OOM source that partitioned two-phase aggregation avoids.
  ScopedReservation scratch;
  LAFP_RETURN_NOT_OK(ScopedReservation::Make(
      df.tracker(),
      static_cast<int64_t>(df.num_rows()) * kHashScratchBytesPerRow,
      &scratch));

  LAFP_ASSIGN_OR_RETURN(MorselGroups groups,
                        GroupMorsels(key_cols, df.num_rows()));
  const size_t num_groups = groups.num_groups();

  std::vector<std::string> out_names;
  std::vector<ColumnPtr> out_cols;
  // Key columns: gather each group's first row.
  for (size_t k = 0; k < keys.size(); ++k) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr keyed,
                          key_cols[k]->Take(groups.first_rows()));
    out_names.push_back(keys[k]);
    out_cols.push_back(std::move(keyed));
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggFunc func = aggs[a].func;
    const Column& col = *agg_cols[a];
    ColumnBuilder builder(AggOutputType(func, col.type()), df.tracker());
    builder.Reserve(num_groups);
    if (func == AggFunc::kNunique) {
      for (int64_t c : GroupNunique(groups, key_cols, col)) {
        builder.AppendInt(c);
      }
    } else {
      LAFP_ASSIGN_OR_RETURN(
          AggAcc acc, AggregateGroups(groups, NeedsOf(func, col.type()), col));
      for (size_t g = 0; g < num_groups; ++g) {
        EmitAgg(&builder, acc, g, func, col.type());
      }
    }
    LAFP_ASSIGN_OR_RETURN(ColumnPtr out, builder.Finish());
    out_names.push_back(aggs[a].out_name);
    out_cols.push_back(std::move(out));
  }
  return DataFrame::Make(std::move(out_names), std::move(out_cols));
}

Result<DataFrame> DropDuplicates(const DataFrame& df,
                                 const std::vector<std::string>& subset) {
  std::vector<const Column*> key_cols;
  if (subset.empty()) {
    for (size_t i = 0; i < df.num_columns(); ++i) {
      key_cols.push_back(df.column(i).get());
    }
  } else {
    for (const auto& k : subset) {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr c, df.column(k));
      key_cols.push_back(c.get());
    }
  }
  if (key_cols.empty()) return df;
  ScopedReservation scratch;
  LAFP_RETURN_NOT_OK(ScopedReservation::Make(
      df.tracker(),
      static_cast<int64_t>(df.num_rows()) * kHashScratchBytesPerRow,
      &scratch));
  LAFP_ASSIGN_OR_RETURN(MorselGroups groups,
                        GroupMorsels(key_cols, df.num_rows()));
  return df.TakeRows(groups.first_rows());
}

Result<ColumnPtr> Unique(const Column& col) {
  LAFP_ASSIGN_OR_RETURN(MorselGroups groups, GroupMorsels({&col}, col.size()));
  return col.Take(groups.first_rows());
}

Result<DataFrame> CountValues(const Column& col) {
  LAFP_ASSIGN_OR_RETURN(MorselGroups groups, GroupMorsels({&col}, col.size()));
  std::vector<int64_t> counts(groups.num_groups(), 0);
  groups.ForEachRow([&](size_t, uint32_t g) { ++counts[g]; });
  std::vector<int64_t> take, cnts;
  for (size_t g = 0; g < counts.size(); ++g) {
    const int64_t first = groups.first_rows()[g];
    // pandas value_counts drops NaN (here: null).
    if (!col.IsValid(static_cast<size_t>(first))) continue;
    take.push_back(first);
    cnts.push_back(counts[g]);
  }
  LAFP_ASSIGN_OR_RETURN(ColumnPtr values, col.Take(take));
  LAFP_ASSIGN_OR_RETURN(ColumnPtr count_col,
                        Column::MakeInt(std::move(cnts), {}, col.tracker()));
  return DataFrame::Make({"value", "count"},
                         {std::move(values), std::move(count_col)});
}

Result<DataFrame> SortValueCounts(const DataFrame& counts,
                                  const std::string& value_name) {
  // A stable sort: ties keep first-appearance order.
  LAFP_ASSIGN_OR_RETURN(DataFrame sorted,
                        SortValues(counts, {"count"}, {false}));
  return DataFrame::Make({value_name, "count"}, {sorted.column(size_t{0}),
                                                 sorted.column(size_t{1})});
}

Result<DataFrame> ValueCounts(const Column& col,
                              const std::string& value_name) {
  LAFP_ASSIGN_OR_RETURN(DataFrame counts, CountValues(col));
  return SortValueCounts(counts, value_name);
}

Status DescribeFold::Add(const DataFrame& df) {
  if (tracker_ == nullptr) {
    tracker_ = df.tracker();
    for (size_t i = 0; i < df.num_columns(); ++i) {
      if (IsNumeric(df.column(i)->type())) names_.push_back(df.names()[i]);
    }
    moments_.resize(names_.size());
  }
  for (size_t k = 0; k < names_.size(); ++k) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr col, df.column(names_[k]));
    Moments& m = moments_[k];
    for (size_t r = 0; r < col->size(); ++r) {
      if (!col->IsValid(r)) continue;
      LAFP_ASSIGN_OR_RETURN(double v, col->NumericAt(r));
      if (std::isnan(v)) continue;
      m.sum.Add(v);
      m.sumsq.Add(v * v);
      ++m.count;
      m.min = std::min(m.min, v);
      m.max = std::max(m.max, v);
    }
  }
  return Status::OK();
}

Result<DataFrame> DescribeFold::Finish() const {
  std::vector<std::string> out_names{"stat"};
  std::vector<ColumnPtr> out_cols;
  std::vector<std::string> stats{"count", "mean", "std", "min", "max"};
  {
    ColumnBuilder stat_col(DataType::kString, tracker_);
    for (const auto& s : stats) stat_col.AppendString(s);
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, stat_col.Finish());
    out_cols.push_back(std::move(c));
  }
  for (size_t k = 0; k < names_.size(); ++k) {
    const Moments& m = moments_[k];
    const int64_t count = m.count;
    double total = m.sum.Total();
    double total_sq = m.sumsq.Total();
    double mean = count > 0 ? total / count : std::nan("");
    double var =
        count > 1
            ? std::max(0.0, (total_sq - total * total / count) / (count - 1))
            : std::nan("");
    ColumnBuilder b(DataType::kDouble, tracker_);
    b.AppendDouble(static_cast<double>(count));
    b.AppendDouble(mean);
    b.AppendDouble(count > 1 ? std::sqrt(var) : std::nan(""));
    b.AppendDouble(count > 0 ? m.min : std::nan(""));
    b.AppendDouble(count > 0 ? m.max : std::nan(""));
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, b.Finish());
    out_names.push_back(names_[k]);
    out_cols.push_back(std::move(c));
  }
  return DataFrame::Make(std::move(out_names), std::move(out_cols));
}

Result<DataFrame> Describe(const DataFrame& df) {
  DescribeFold fold;
  LAFP_RETURN_NOT_OK(fold.Add(df));
  return fold.Finish();
}

}  // namespace lafp::df
