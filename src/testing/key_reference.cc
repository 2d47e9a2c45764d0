#include "testing/key_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "common/macros.h"
#include "dataframe/kahan.h"

namespace lafp::testing {

using df::AggFunc;
using df::Column;
using df::ColumnPtr;
using df::DataFrame;
using df::DataType;

namespace {

enum CellKind { kNullCell, kBoolCell, kIntCell, kDoubleCell, kTextCell };

/// (kind, is NaN, int value, double value, text). A cell equals only a
/// cell of its own kind; -0.0 is stored as 0.0 and every NaN as one NaN.
using Cell = std::tuple<int, int, int64_t, double, std::string>;
using Key = std::vector<Cell>;

Cell DoubleCell(double v) {
  if (std::isnan(v)) return {kDoubleCell, 1, 0, 0.0, ""};
  return {kDoubleCell, 0, 0, v == 0.0 ? 0.0 : v, ""};
}

/// Row `r` of `col` as a key cell. `as_double` reads int64 and timestamp
/// values as doubles: an int key merged against a double key.
Cell CellAt(const Column& col, size_t r, bool as_double) {
  if (!col.IsValid(r)) return {kNullCell, 0, 0, 0.0, ""};
  switch (col.type()) {
    case DataType::kBool:
      return {kBoolCell, 0, col.BoolAt(r) ? 1 : 0, 0.0, ""};
    case DataType::kInt64:
    case DataType::kTimestamp:
      if (as_double) return DoubleCell(static_cast<double>(col.IntAt(r)));
      return {kIntCell, 0, col.IntAt(r), 0.0, ""};
    case DataType::kDouble:
      return DoubleCell(col.DoubleAt(r));
    case DataType::kString:
    case DataType::kCategory:
      return {kTextCell, 0, 0, 0.0, col.StringAt(r)};
    case DataType::kNull:
      break;
  }
  return {kNullCell, 0, 0, 0.0, ""};
}

Key KeyAt(const std::vector<const Column*>& cols,
          const std::vector<bool>& as_double, size_t r) {
  Key key;
  for (size_t k = 0; k < cols.size(); ++k) {
    key.push_back(CellAt(*cols[k], r, !as_double.empty() && as_double[k]));
  }
  return key;
}

Result<std::vector<const Column*>> Columns(
    const DataFrame& frame, const std::vector<std::string>& names) {
  std::vector<const Column*> cols;
  for (const auto& n : names) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, frame.column(n));
    cols.push_back(c.get());
  }
  return cols;
}

bool IsText(DataType t) {
  return t == DataType::kString || t == DataType::kCategory;
}

DataType OutputType(AggFunc func, DataType src) {
  switch (func) {
    case AggFunc::kCount:
    case AggFunc::kNunique:
      return DataType::kInt64;
    case AggFunc::kMean:
      return DataType::kDouble;
    case AggFunc::kSum:
      return src == DataType::kInt64 || src == DataType::kBool
                 ? DataType::kInt64
                 : DataType::kDouble;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return IsText(src) ? DataType::kString : src;
  }
  return DataType::kDouble;
}

/// One aggregate over `rows` of `col`, visited in row order. Nulls and
/// NaNs are skipped; numeric min/max compare as doubles; a string column
/// has no numeric values, so its sum is 0.0.
void AppendAggregate(df::ColumnBuilder* b, const Column& col,
                     const std::vector<int64_t>& rows, AggFunc func) {
  if (func == AggFunc::kNunique) {
    std::set<Cell> seen;
    for (int64_t r : rows) {
      if (col.IsValid(r)) seen.insert(CellAt(col, r, false));
    }
    b->AppendInt(static_cast<int64_t>(seen.size()));
    return;
  }
  int64_t count = 0;
  if (IsText(col.type())) {
    const std::string* lo = nullptr;
    const std::string* hi = nullptr;
    for (int64_t r : rows) {
      if (!col.IsValid(r)) continue;
      ++count;
      const std::string& s = col.StringAt(r);
      if (lo == nullptr || s < *lo) lo = &s;
      if (hi == nullptr || s > *hi) hi = &s;
    }
    const std::string* pick = func == AggFunc::kMin ? lo : hi;
    switch (func) {
      case AggFunc::kCount:
        b->AppendInt(count);
        return;
      case AggFunc::kSum:
        b->AppendDouble(0.0);
        return;
      case AggFunc::kMean:
        if (count == 0) {
          b->AppendNull();
        } else {
          b->AppendDouble(0.0 / static_cast<double>(count));
        }
        return;
      default:
        if (pick == nullptr) {
          b->AppendNull();
        } else {
          b->AppendString(*pick);
        }
        return;
    }
  }
  df::KahanSum sum;
  uint64_t isum = 0;  // wraps like NumPy's int64 sum
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (int64_t r : rows) {
    if (!col.IsValid(r)) continue;
    double v;
    int64_t x = 0;
    if (col.type() == DataType::kDouble) {
      v = col.DoubleAt(r);
      if (std::isnan(v)) continue;
    } else if (col.type() == DataType::kBool) {
      x = col.BoolAt(r) ? 1 : 0;
      v = static_cast<double>(x);
    } else {
      x = col.IntAt(r);
      v = static_cast<double>(x);
    }
    isum += static_cast<uint64_t>(x);
    sum.Add(v);
    ++count;
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  switch (func) {
    case AggFunc::kCount:
      b->AppendInt(count);
      return;
    case AggFunc::kSum:
      if (b->type() == DataType::kInt64) {
        b->AppendInt(static_cast<int64_t>(isum));
      } else {
        b->AppendDouble(sum.Total());
      }
      return;
    case AggFunc::kMean:
      if (count == 0) {
        b->AppendNull();
      } else {
        b->AppendDouble(sum.Total() / static_cast<double>(count));
      }
      return;
    default: {
      const double v = func == AggFunc::kMin ? lo : hi;
      if (count == 0) {
        b->AppendNull();
      } else if (b->type() == DataType::kDouble) {
        b->AppendDouble(v);
      } else if (b->type() == DataType::kBool) {
        b->AppendBool(v != 0.0);
      } else {
        b->AppendInt(static_cast<int64_t>(v));
      }
      return;
    }
  }
}

/// First row of each distinct key, in row order.
std::vector<int64_t> FirstRows(const std::vector<const Column*>& cols,
                               size_t n) {
  std::set<Key> seen;
  std::vector<int64_t> keep;
  for (size_t r = 0; r < n; ++r) {
    if (seen.insert(KeyAt(cols, {}, r)).second) {
      keep.push_back(static_cast<int64_t>(r));
    }
  }
  return keep;
}

}  // namespace

Result<DataFrame> ReferenceGroupByAgg(const DataFrame& frame,
                                      const std::vector<std::string>& keys,
                                      const std::vector<df::AggSpec>& aggs) {
  LAFP_ASSIGN_OR_RETURN(std::vector<const Column*> key_cols,
                        Columns(frame, keys));
  std::map<Key, size_t> ids;
  std::vector<std::vector<int64_t>> groups;  // rows of each group
  for (size_t r = 0; r < frame.num_rows(); ++r) {
    auto [it, added] = ids.emplace(KeyAt(key_cols, {}, r), groups.size());
    if (added) groups.emplace_back();
    groups[it->second].push_back(static_cast<int64_t>(r));
  }
  std::vector<int64_t> first;
  for (const auto& g : groups) first.push_back(g.front());
  std::vector<std::string> names;
  std::vector<ColumnPtr> cols;
  for (size_t k = 0; k < keys.size(); ++k) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, key_cols[k]->Take(first));
    names.push_back(keys[k]);
    cols.push_back(std::move(c));
  }
  for (const auto& spec : aggs) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr src, frame.column(spec.column));
    df::ColumnBuilder b(OutputType(spec.func, src->type()), frame.tracker());
    for (const auto& g : groups) AppendAggregate(&b, *src, g, spec.func);
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, b.Finish());
    names.push_back(spec.out_name);
    cols.push_back(std::move(c));
  }
  return DataFrame::Make(std::move(names), std::move(cols));
}

Result<DataFrame> ReferenceDropDuplicates(
    const DataFrame& frame, const std::vector<std::string>& subset) {
  std::vector<std::string> names = subset.empty() ? frame.names() : subset;
  LAFP_ASSIGN_OR_RETURN(std::vector<const Column*> cols,
                        Columns(frame, names));
  return frame.TakeRows(FirstRows(cols, frame.num_rows()));
}

Result<ColumnPtr> ReferenceUnique(const Column& col) {
  return col.Take(FirstRows({&col}, col.size()));
}

Result<DataFrame> ReferenceValueCounts(const Column& col,
                                       const std::string& value_name) {
  std::map<Cell, std::pair<int64_t, int64_t>> counts;  // first row, count
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsValid(r)) continue;
    auto [it, added] = counts.emplace(
        CellAt(col, r, false),
        std::make_pair(static_cast<int64_t>(r), int64_t{0}));
    ++it->second.second;
  }
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (const auto& [cell, rc] : counts) rows.push_back(rc);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::vector<int64_t> take, cnts;
  for (const auto& [first, count] : rows) {
    take.push_back(first);
    cnts.push_back(count);
  }
  LAFP_ASSIGN_OR_RETURN(ColumnPtr values, col.Take(take));
  LAFP_ASSIGN_OR_RETURN(ColumnPtr count_col,
                        Column::MakeInt(std::move(cnts), {}, col.tracker()));
  return DataFrame::Make({value_name, "count"}, {values, count_col});
}

int64_t ReferenceNunique(const Column& col) {
  std::set<Cell> seen;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsValid(r)) seen.insert(CellAt(col, r, false));
  }
  return static_cast<int64_t>(seen.size());
}

Result<DataFrame> ReferenceMerge(const DataFrame& left,
                                 const DataFrame& right,
                                 const std::vector<std::string>& on,
                                 df::JoinType how) {
  LAFP_ASSIGN_OR_RETURN(std::vector<const Column*> lkeys, Columns(left, on));
  LAFP_ASSIGN_OR_RETURN(std::vector<const Column*> rkeys, Columns(right, on));
  auto int_like = [](DataType t) {
    return t == DataType::kInt64 || t == DataType::kTimestamp;
  };
  std::vector<bool> as_double(on.size());
  for (size_t k = 0; k < on.size(); ++k) {
    const DataType lt = lkeys[k]->type();
    const DataType rt = rkeys[k]->type();
    as_double[k] = (int_like(lt) && rt == DataType::kDouble) ||
                   (lt == DataType::kDouble && int_like(rt));
  }
  std::map<Key, std::vector<int64_t>> table;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    table[KeyAt(rkeys, as_double, r)].push_back(static_cast<int64_t>(r));
  }
  std::vector<int64_t> left_idx, right_idx;
  for (size_t r = 0; r < left.num_rows(); ++r) {
    auto it = table.find(KeyAt(lkeys, as_double, r));
    if (it == table.end()) {
      if (how == df::JoinType::kLeft) {
        left_idx.push_back(static_cast<int64_t>(r));
        right_idx.push_back(-1);
      }
      continue;
    }
    for (int64_t rr : it->second) {
      left_idx.push_back(static_cast<int64_t>(r));
      right_idx.push_back(rr);
    }
  }
  auto is_key = [&](const std::string& n) {
    return std::find(on.begin(), on.end(), n) != on.end();
  };
  std::vector<std::string> names;
  std::vector<ColumnPtr> cols;
  for (size_t k = 0; k < on.size(); ++k) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, lkeys[k]->Take(left_idx));
    names.push_back(on[k]);
    cols.push_back(std::move(c));
  }
  for (size_t i = 0; i < left.num_columns(); ++i) {
    const std::string& n = left.names()[i];
    if (is_key(n)) continue;
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, left.column(i)->Take(left_idx));
    names.push_back(right.HasColumn(n) ? n + "_x" : n);
    cols.push_back(std::move(c));
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    const std::string& n = right.names()[i];
    if (is_key(n)) continue;
    const Column& src = *right.column(i);
    const DataType t =
        src.type() == DataType::kCategory ? DataType::kString : src.type();
    df::ColumnBuilder b(t, right.tracker());
    for (int64_t idx : right_idx) {
      if (idx < 0 || !src.IsValid(idx)) {
        b.AppendNull();
      } else if (t == DataType::kString) {
        b.AppendString(src.StringAt(idx));
      } else if (t == DataType::kDouble) {
        b.AppendDouble(src.DoubleAt(idx));
      } else if (t == DataType::kBool) {
        b.AppendBool(src.BoolAt(idx));
      } else {
        b.AppendInt(src.IntAt(idx));
      }
    }
    LAFP_ASSIGN_OR_RETURN(ColumnPtr c, b.Finish());
    names.push_back(left.HasColumn(n) ? n + "_y" : n);
    cols.push_back(std::move(c));
  }
  return DataFrame::Make(std::move(names), std::move(cols));
}

}  // namespace lafp::testing
