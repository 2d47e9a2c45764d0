#include <algorithm>

#include "common/macros.h"
#include "dataframe/key_index.h"
#include "dataframe/ops.h"

namespace lafp::df {

namespace {

/// Build an output column by taking `indices` from `src`, where -1 emits a
/// null (the unmatched side of a left join).
Result<ColumnPtr> TakeWithNulls(const Column& src,
                                const std::vector<int64_t>& indices) {
  DataType t = src.type();
  if (t == DataType::kCategory) t = DataType::kString;
  ColumnBuilder builder(t, src.tracker());
  builder.Reserve(indices.size());
  for (int64_t idx : indices) {
    if (idx < 0) {
      builder.AppendNull();
    } else {
      builder.AppendFrom(src, static_cast<size_t>(idx));
    }
  }
  return builder.Finish();
}

}  // namespace

Result<DataFrame> Merge(const DataFrame& left, const DataFrame& right,
                        const std::vector<std::string>& on, JoinType how) {
  if (on.empty()) return Status::Invalid("merge requires key columns");
  std::vector<const Column*> lkeys, rkeys;
  for (const auto& k : on) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr lc, left.column(k));
    LAFP_ASSIGN_OR_RETURN(ColumnPtr rc, right.column(k));
    lkeys.push_back(lc.get());
    rkeys.push_back(rc.get());
  }

  // Build phase on the right side: dense ids over the right keys, and the
  // rows of each id in row order. The hash table is charged against the
  // budget while the join runs (large build sides OOM, matching pandas).
  ScopedReservation scratch;
  LAFP_RETURN_NOT_OK(ScopedReservation::Make(
      right.tracker(), static_cast<int64_t>(right.num_rows()) * 56,
      &scratch));
  const size_t nr = right.num_rows();
  KeyIndex build(rkeys, lkeys);
  std::vector<uint32_t> ids(nr);
  build.Insert(0, nr, ids.data());
  std::vector<size_t> start(build.num_groups() + 1, 0);
  for (uint32_t id : ids) ++start[id + 1];
  for (size_t g = 0; g < build.num_groups(); ++g) start[g + 1] += start[g];
  std::vector<int64_t> rows_of(nr);
  {
    std::vector<size_t> next(start.begin(), start.end() - 1);
    for (size_t r = 0; r < nr; ++r) {
      rows_of[next[ids[r]]++] = static_cast<int64_t>(r);
    }
  }

  // Probe phase streaming the left side.
  ids.resize(left.num_rows());
  build.Find(lkeys, 0, left.num_rows(), ids.data());
  std::vector<int64_t> left_idx, right_idx;
  for (size_t r = 0; r < left.num_rows(); ++r) {
    const uint32_t id = ids[r];
    if (id == kNoGroup) {
      if (how == JoinType::kLeft) {
        left_idx.push_back(static_cast<int64_t>(r));
        right_idx.push_back(-1);
      }
      continue;
    }
    for (size_t k = start[id]; k < start[id + 1]; ++k) {
      left_idx.push_back(static_cast<int64_t>(r));
      right_idx.push_back(rows_of[k]);
    }
  }

  // Column naming: keys once, then left non-keys, then right non-keys;
  // overlapping non-key names get _x/_y suffixes (pandas default).
  auto is_key = [&](const std::string& n) {
    return std::find(on.begin(), on.end(), n) != on.end();
  };
  std::vector<std::string> out_names;
  std::vector<ColumnPtr> out_cols;
  for (const auto& k : on) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, left.column(k));
    LAFP_ASSIGN_OR_RETURN(ColumnPtr taken, c->Take(left_idx));
    out_names.push_back(k);
    out_cols.push_back(std::move(taken));
  }
  for (size_t i = 0; i < left.num_columns(); ++i) {
    const std::string& n = left.names()[i];
    if (is_key(n)) continue;
    std::string out_name = right.HasColumn(n) ? n + "_x" : n;
    LAFP_ASSIGN_OR_RETURN(ColumnPtr taken, left.column(i)->Take(left_idx));
    out_names.push_back(std::move(out_name));
    out_cols.push_back(std::move(taken));
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    const std::string& n = right.names()[i];
    if (is_key(n)) continue;
    std::string out_name = left.HasColumn(n) ? n + "_y" : n;
    LAFP_ASSIGN_OR_RETURN(ColumnPtr taken,
                          TakeWithNulls(*right.column(i), right_idx));
    out_names.push_back(std::move(out_name));
    out_cols.push_back(std::move(taken));
  }
  return DataFrame::Make(std::move(out_names), std::move(out_cols));
}

Result<DataFrame> Concat(const std::vector<DataFrame>& frames) {
  if (frames.empty()) return DataFrame();
  const DataFrame& first = frames[0];
  for (const auto& f : frames) {
    if (f.names() != first.names()) {
      return Status::Invalid("concat: schema mismatch");
    }
  }
  std::vector<std::string> out_names = first.names();
  std::vector<ColumnPtr> out_cols;
  for (size_t c = 0; c < first.num_columns(); ++c) {
    // Categories on one dictionary (the partitions of one LFC reader)
    // concatenate their codes and keep it.
    const DictionaryPtr& dict = first.column(c)->dictionary();
    if (first.column(c)->type() == DataType::kCategory &&
        std::all_of(frames.begin(), frames.end(), [&](const DataFrame& f) {
          return f.column(c)->dictionary() == dict;
        })) {
      const bool nulls =
          std::any_of(frames.begin(), frames.end(), [&](const DataFrame& f) {
            return f.column(c)->has_nulls();
          });
      std::vector<int32_t> codes;
      std::vector<uint8_t> validity;
      for (const auto& f : frames) {
        const Column& src = *f.column(c);
        codes.insert(codes.end(), src.codes().begin(), src.codes().end());
        if (!nulls) continue;
        if (src.has_nulls()) {
          validity.insert(validity.end(), src.validity().begin(),
                          src.validity().end());
        } else {
          validity.insert(validity.end(), src.size(), 1);
        }
      }
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col,
                            Column::MakeCategory(std::move(codes),
                                                 std::move(validity), dict,
                                                 first.tracker()));
      out_cols.push_back(std::move(col));
      continue;
    }
    DataType t = first.column(c)->type();
    // Widen int+double mixes to double; strings/categories to string.
    for (const auto& f : frames) {
      DataType ft = f.column(c)->type();
      if (ft == t) continue;
      if (IsNumeric(ft) && IsNumeric(t)) {
        t = DataType::kDouble;
      } else if ((ft == DataType::kCategory && t == DataType::kString) ||
                 (ft == DataType::kString && t == DataType::kCategory)) {
        t = DataType::kString;
      } else {
        return Status::TypeError("concat: column '" + out_names[c] +
                                 "' type mismatch");
      }
    }
    if (t == DataType::kCategory) t = DataType::kString;
    ColumnBuilder builder(t, first.tracker());
    size_t total = 0;
    for (const auto& f : frames) total += f.num_rows();
    builder.Reserve(total);
    for (const auto& f : frames) {
      const Column& src = *f.column(c);
      if (src.type() == t ||
          (t == DataType::kString && src.type() == DataType::kCategory)) {
        for (size_t r = 0; r < src.size(); ++r) {
          if (t == DataType::kString && src.type() == DataType::kCategory) {
            if (!src.IsValid(r)) {
              builder.AppendNull();
            } else {
              builder.AppendString(src.StringAt(r));
            }
          } else {
            builder.AppendFrom(src, r);
          }
        }
      } else {
        // Numeric widening path.
        for (size_t r = 0; r < src.size(); ++r) {
          if (!src.IsValid(r)) {
            builder.AppendNull();
            continue;
          }
          LAFP_ASSIGN_OR_RETURN(double v, src.NumericAt(r));
          builder.AppendDouble(v);
        }
      }
    }
    LAFP_ASSIGN_OR_RETURN(ColumnPtr col, builder.Finish());
    out_cols.push_back(std::move(col));
  }
  return DataFrame::Make(std::move(out_names), std::move(out_cols));
}

}  // namespace lafp::df
