#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_set>

#include "common/macros.h"
#include "dataframe/kernel_context.h"
#include "dataframe/ops.h"

namespace lafp::df {

namespace {

template <typename T>
bool ApplyCmp(CompareOp op, const T& a, const T& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

bool IsStringy(DataType t) {
  return t == DataType::kString || t == DataType::kCategory;
}

/// Drive an elementwise bool-producing row loop over morsels of [0, n).
/// `body` must write only out-rows in its [begin, end) range.
Status ForEachRow(size_t n,
                  const std::function<Status(size_t, size_t)>& body) {
  return RunMorsels(n, body);
}

// ---------------------------------------------------------------------------
// Vectorization-friendly range loops: the CompareOp switch is hoisted out
// of the inner loop so each case is a tight branch-free compare over raw
// spans. Rows are computed unconditionally; invalid rows are patched to 0
// afterwards (identical to the legacy skip since `out` starts zeroed).
// NaN needs no special-casing except for kNe: IEEE comparisons with a NaN
// operand are false for every op but !=, and the kernels' contract is that
// NaN rows compare false everywhere — so kNe masks NaN via v == v.
// ---------------------------------------------------------------------------

/// out[i] = vals[i] <op> r over [b, e), double spans.
void CmpRangeDouble(CompareOp op, const double* vals, double r, uint8_t* out,
                    size_t b, size_t e) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = b; i < e; ++i) out[i] = vals[i] == r ? 1 : 0;
      break;
    case CompareOp::kNe:
      for (size_t i = b; i < e; ++i) {
        out[i] = (vals[i] != r) & (vals[i] == vals[i]) ? 1 : 0;
      }
      break;
    case CompareOp::kLt:
      for (size_t i = b; i < e; ++i) out[i] = vals[i] < r ? 1 : 0;
      break;
    case CompareOp::kLe:
      for (size_t i = b; i < e; ++i) out[i] = vals[i] <= r ? 1 : 0;
      break;
    case CompareOp::kGt:
      for (size_t i = b; i < e; ++i) out[i] = vals[i] > r ? 1 : 0;
      break;
    case CompareOp::kGe:
      for (size_t i = b; i < e; ++i) out[i] = vals[i] >= r ? 1 : 0;
      break;
  }
}

/// out[i] = (double)vals[i] <op> r over [b, e), int64 span vs double
/// scalar (the legacy loop widened per element; NaN is impossible here).
void CmpRangeIntVsDouble(CompareOp op, const int64_t* vals, double r,
                         uint8_t* out, size_t b, size_t e) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = b; i < e; ++i) {
        out[i] = static_cast<double>(vals[i]) == r ? 1 : 0;
      }
      break;
    case CompareOp::kNe:
      for (size_t i = b; i < e; ++i) {
        out[i] = static_cast<double>(vals[i]) != r ? 1 : 0;
      }
      break;
    case CompareOp::kLt:
      for (size_t i = b; i < e; ++i) {
        out[i] = static_cast<double>(vals[i]) < r ? 1 : 0;
      }
      break;
    case CompareOp::kLe:
      for (size_t i = b; i < e; ++i) {
        out[i] = static_cast<double>(vals[i]) <= r ? 1 : 0;
      }
      break;
    case CompareOp::kGt:
      for (size_t i = b; i < e; ++i) {
        out[i] = static_cast<double>(vals[i]) > r ? 1 : 0;
      }
      break;
    case CompareOp::kGe:
      for (size_t i = b; i < e; ++i) {
        out[i] = static_cast<double>(vals[i]) >= r ? 1 : 0;
      }
      break;
  }
}

/// out[i] = a[i] <op> b[i] over [lo, hi), double spans; either-NaN rows
/// compare false for every op (kNe included — legacy skipped NaN rows).
void CmpRangeCols(CompareOp op, const double* a, const double* b,
                  uint8_t* out, size_t lo, size_t hi) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = lo; i < hi; ++i) out[i] = a[i] == b[i] ? 1 : 0;
      break;
    case CompareOp::kNe:
      for (size_t i = lo; i < hi; ++i) {
        out[i] = (a[i] != b[i]) & (a[i] == a[i]) & (b[i] == b[i]) ? 1 : 0;
      }
      break;
    case CompareOp::kLt:
      for (size_t i = lo; i < hi; ++i) out[i] = a[i] < b[i] ? 1 : 0;
      break;
    case CompareOp::kLe:
      for (size_t i = lo; i < hi; ++i) out[i] = a[i] <= b[i] ? 1 : 0;
      break;
    case CompareOp::kGt:
      for (size_t i = lo; i < hi; ++i) out[i] = a[i] > b[i] ? 1 : 0;
      break;
    case CompareOp::kGe:
      for (size_t i = lo; i < hi; ++i) out[i] = a[i] >= b[i] ? 1 : 0;
      break;
  }
}

/// Zero out rows whose validity byte is unset over [b, e); no-op when the
/// column is all-valid. Branch-free select so the loop vectorizes.
void PatchInvalidToZero(const Column& col, uint8_t* out, size_t b,
                        size_t e) {
  const uint8_t* valid = col.validity_data();
  if (valid == nullptr) return;
  for (size_t i = b; i < e; ++i) out[i] = valid[i] != 0 ? out[i] : 0;
}

}  // namespace

Result<ColumnPtr> Compare(const Column& col, CompareOp op,
                          const Scalar& rhs) {
  const size_t n = col.size();
  std::vector<uint8_t> out(n, 0);
  if (rhs.is_null()) {
    // Comparisons against null are all-false (pandas NaN semantics),
    // except != which pandas makes all-true for non-null entries.
    if (op == CompareOp::kNe) {
      LAFP_RETURN_NOT_OK(ForEachRow(n, [&](size_t b, size_t e) {
        const uint8_t* valid = col.validity_data();
        if (valid == nullptr) {
          std::memset(out.data() + b, 1, e - b);
        } else {
          for (size_t i = b; i < e; ++i) out[i] = valid[i] != 0 ? 1 : 0;
        }
        return Status::OK();
      }));
    }
    return Column::MakeBool(std::move(out), {}, col.tracker());
  }
  if (IsStringy(col.type())) {
    if (rhs.type() != DataType::kString) {
      return Status::TypeError("comparing string column with non-string");
    }
    const std::string& needle = rhs.string_value();
    LAFP_RETURN_NOT_OK(ForEachRow(n, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        if (!col.IsValid(i)) continue;
        out[i] = ApplyCmp<std::string>(op, col.StringAt(i), needle) ? 1 : 0;
      }
      return Status::OK();
    }));
    return Column::MakeBool(std::move(out), {}, col.tracker());
  }
  if (col.type() == DataType::kTimestamp &&
      rhs.type() == DataType::kString) {
    LAFP_ASSIGN_OR_RETURN(int64_t ts, ParseTimestamp(rhs.string_value()));
    const int64_t* vals = col.int_data();
    LAFP_RETURN_NOT_OK(ForEachRow(n, [&](size_t b, size_t e) {
      switch (op) {
        case CompareOp::kEq:
          for (size_t i = b; i < e; ++i) out[i] = vals[i] == ts ? 1 : 0;
          break;
        case CompareOp::kNe:
          for (size_t i = b; i < e; ++i) out[i] = vals[i] != ts ? 1 : 0;
          break;
        case CompareOp::kLt:
          for (size_t i = b; i < e; ++i) out[i] = vals[i] < ts ? 1 : 0;
          break;
        case CompareOp::kLe:
          for (size_t i = b; i < e; ++i) out[i] = vals[i] <= ts ? 1 : 0;
          break;
        case CompareOp::kGt:
          for (size_t i = b; i < e; ++i) out[i] = vals[i] > ts ? 1 : 0;
          break;
        case CompareOp::kGe:
          for (size_t i = b; i < e; ++i) out[i] = vals[i] >= ts ? 1 : 0;
          break;
      }
      PatchInvalidToZero(col, out.data(), b, e);
      return Status::OK();
    }));
    return Column::MakeBool(std::move(out), {}, col.tracker());
  }
  LAFP_ASSIGN_OR_RETURN(double r, rhs.AsDouble());
  // Fast paths for the common typed columns.
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      const int64_t* vals = col.int_data();
      LAFP_RETURN_NOT_OK(ForEachRow(n, [&](size_t b, size_t e) {
        CmpRangeIntVsDouble(op, vals, r, out.data(), b, e);
        PatchInvalidToZero(col, out.data(), b, e);
        return Status::OK();
      }));
      break;
    }
    case DataType::kDouble: {
      const double* vals = col.double_data();
      LAFP_RETURN_NOT_OK(ForEachRow(n, [&](size_t b, size_t e) {
        CmpRangeDouble(op, vals, r, out.data(), b, e);
        PatchInvalidToZero(col, out.data(), b, e);
        return Status::OK();
      }));
      break;
    }
    case DataType::kBool: {
      const uint8_t* vals = col.bool_data();
      LAFP_RETURN_NOT_OK(ForEachRow(n, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          if (!col.IsValid(i)) continue;
          out[i] = ApplyCmp<double>(op, vals[i] ? 1.0 : 0.0, r) ? 1 : 0;
        }
        return Status::OK();
      }));
      break;
    }
    default:
      return Status::TypeError("cannot compare column of type " +
                               std::string(DataTypeName(col.type())));
  }
  return Column::MakeBool(std::move(out), {}, col.tracker());
}

Result<ColumnPtr> CompareColumns(const Column& lhs, CompareOp op,
                                 const Column& rhs) {
  if (lhs.size() != rhs.size()) {
    return Status::Invalid("compare: length mismatch");
  }
  const size_t n = lhs.size();
  std::vector<uint8_t> out(n, 0);
  if (IsStringy(lhs.type()) && IsStringy(rhs.type())) {
    LAFP_RETURN_NOT_OK(ForEachRow(n, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) {
        if (!lhs.IsValid(i) || !rhs.IsValid(i)) continue;
        out[i] = ApplyCmp<std::string>(op, lhs.StringAt(i), rhs.StringAt(i))
                     ? 1
                     : 0;
      }
      return Status::OK();
    }));
    return Column::MakeBool(std::move(out), {}, lhs.tracker());
  }
  if (!IsNumeric(lhs.type()) || !IsNumeric(rhs.type())) {
    return Status::TypeError("cannot compare columns of types " +
                             std::string(DataTypeName(lhs.type())) + " and " +
                             DataTypeName(rhs.type()));
  }
  if (lhs.type() == DataType::kDouble && rhs.type() == DataType::kDouble) {
    // Both contiguous doubles: compare straight off the spans, then zero
    // rows where either side is invalid.
    const double* a = lhs.double_data();
    const double* b = rhs.double_data();
    LAFP_RETURN_NOT_OK(ForEachRow(n, [&](size_t lo, size_t hi) {
      CmpRangeCols(op, a, b, out.data(), lo, hi);
      PatchInvalidToZero(lhs, out.data(), lo, hi);
      PatchInvalidToZero(rhs, out.data(), lo, hi);
      return Status::OK();
    }));
    return Column::MakeBool(std::move(out), {}, lhs.tracker());
  }
  LAFP_RETURN_NOT_OK(ForEachRow(n, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      if (!lhs.IsValid(i) || !rhs.IsValid(i)) continue;
      LAFP_ASSIGN_OR_RETURN(double a, lhs.NumericAt(i));
      LAFP_ASSIGN_OR_RETURN(double bv, rhs.NumericAt(i));
      if (std::isnan(a) || std::isnan(bv)) continue;
      out[i] = ApplyCmp<double>(op, a, bv) ? 1 : 0;
    }
    return Status::OK();
  }));
  return Column::MakeBool(std::move(out), {}, lhs.tracker());
}

namespace {

Status CheckBoolPair(const Column& a, const Column& b) {
  if (a.type() != DataType::kBool || b.type() != DataType::kBool) {
    return Status::TypeError("boolean op requires bool columns");
  }
  if (a.size() != b.size()) {
    return Status::Invalid("boolean op: length mismatch");
  }
  return Status::OK();
}

}  // namespace

Result<ColumnPtr> BooleanAnd(const Column& a, const Column& b) {
  LAFP_RETURN_NOT_OK(CheckBoolPair(a, b));
  std::vector<uint8_t> out(a.size());
  const uint8_t* ad = a.bool_data();
  const uint8_t* bd = b.bool_data();
  const uint8_t* av = a.validity_data();
  const uint8_t* bv = b.validity_data();
  LAFP_RETURN_NOT_OK(ForEachRow(a.size(), [&](size_t begin, size_t end) {
    if (av == nullptr && bv == nullptr) {
      for (size_t i = begin; i < end; ++i) {
        out[i] = (ad[i] != 0) & (bd[i] != 0) ? 1 : 0;
      }
    } else {
      for (size_t i = begin; i < end; ++i) {
        const bool lok = (av == nullptr || av[i] != 0) && ad[i] != 0;
        const bool rok = (bv == nullptr || bv[i] != 0) && bd[i] != 0;
        out[i] = lok && rok ? 1 : 0;
      }
    }
    return Status::OK();
  }));
  return Column::MakeBool(std::move(out), {}, a.tracker());
}

Result<ColumnPtr> BooleanOr(const Column& a, const Column& b) {
  LAFP_RETURN_NOT_OK(CheckBoolPair(a, b));
  std::vector<uint8_t> out(a.size());
  const uint8_t* ad = a.bool_data();
  const uint8_t* bd = b.bool_data();
  const uint8_t* av = a.validity_data();
  const uint8_t* bv = b.validity_data();
  LAFP_RETURN_NOT_OK(ForEachRow(a.size(), [&](size_t begin, size_t end) {
    if (av == nullptr && bv == nullptr) {
      for (size_t i = begin; i < end; ++i) {
        out[i] = (ad[i] != 0) | (bd[i] != 0) ? 1 : 0;
      }
    } else {
      for (size_t i = begin; i < end; ++i) {
        const bool lok = (av == nullptr || av[i] != 0) && ad[i] != 0;
        const bool rok = (bv == nullptr || bv[i] != 0) && bd[i] != 0;
        out[i] = lok || rok ? 1 : 0;
      }
    }
    return Status::OK();
  }));
  return Column::MakeBool(std::move(out), {}, a.tracker());
}

Result<ColumnPtr> BooleanNot(const Column& a) {
  if (a.type() != DataType::kBool) {
    return Status::TypeError("boolean not requires a bool column");
  }
  std::vector<uint8_t> out(a.size());
  const uint8_t* ad = a.bool_data();
  const uint8_t* av = a.validity_data();
  LAFP_RETURN_NOT_OK(ForEachRow(a.size(), [&](size_t begin, size_t end) {
    if (av == nullptr) {
      for (size_t i = begin; i < end; ++i) out[i] = ad[i] != 0 ? 0 : 1;
    } else {
      for (size_t i = begin; i < end; ++i) {
        out[i] = (av[i] != 0) & (ad[i] != 0) ? 0 : 1;
      }
    }
    return Status::OK();
  }));
  return Column::MakeBool(std::move(out), {}, a.tracker());
}

Result<ColumnPtr> IsNull(const Column& a) {
  std::vector<uint8_t> out(a.size(), 0);
  const uint8_t* av = a.validity_data();
  LAFP_RETURN_NOT_OK(ForEachRow(a.size(), [&](size_t begin, size_t end) {
    if (a.type() == DataType::kDouble) {
      const double* v = a.double_data();
      for (size_t i = begin; i < end; ++i) {
        out[i] = ((av != nullptr && av[i] == 0) | (v[i] != v[i])) ? 1 : 0;
      }
    } else if (av != nullptr) {
      for (size_t i = begin; i < end; ++i) out[i] = av[i] != 0 ? 0 : 1;
    }
    return Status::OK();
  }));
  return Column::MakeBool(std::move(out), {}, a.tracker());
}

Result<ColumnPtr> StrContains(const Column& col, const std::string& needle) {
  if (!IsStringy(col.type())) {
    return Status::TypeError("str.contains requires a string column");
  }
  std::vector<uint8_t> out(col.size(), 0);
  LAFP_RETURN_NOT_OK(ForEachRow(col.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (!col.IsValid(i)) continue;
      out[i] = col.StringAt(i).find(needle) != std::string::npos ? 1 : 0;
    }
    return Status::OK();
  }));
  return Column::MakeBool(std::move(out), {}, col.tracker());
}

Result<ColumnPtr> IsIn(const Column& col,
                       const std::vector<Scalar>& values) {
  std::vector<uint8_t> out(col.size(), 0);
  if (IsStringy(col.type())) {
    std::unordered_set<std::string> members;
    for (const auto& v : values) {
      if (v.type() == DataType::kString || v.type() == DataType::kCategory) {
        members.insert(v.string_value());
      }
    }
    // The membership set is built once, then only read: morsel bodies may
    // probe it concurrently.
    LAFP_RETURN_NOT_OK(ForEachRow(col.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (!col.IsValid(i)) continue;
        out[i] = members.count(col.StringAt(i)) > 0 ? 1 : 0;
      }
      return Status::OK();
    }));
    return Column::MakeBool(std::move(out), {}, col.tracker());
  }
  if (!IsNumeric(col.type())) {
    return Status::TypeError("isin on unsupported column type");
  }
  std::unordered_set<double> members;
  for (const auto& v : values) {
    auto d = v.AsDouble();
    if (d.ok()) members.insert(*d);
  }
  LAFP_RETURN_NOT_OK(ForEachRow(col.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (!col.IsValid(i)) continue;
      LAFP_ASSIGN_OR_RETURN(double v, col.NumericAt(i));
      if (std::isnan(v)) continue;
      out[i] = members.count(v) > 0 ? 1 : 0;
    }
    return Status::OK();
  }));
  return Column::MakeBool(std::move(out), {}, col.tracker());
}

namespace {

/// Filter's mask -> ascending row-index selection vector (nulls deselect),
/// morsel-parallelized in two passes: count selected rows per morsel,
/// exclusive-prefix-sum the counts into write offsets, then fill each
/// morsel's disjoint output range. Output order is ascending row order —
/// exactly the serial push_back result — for every thread count.
Result<std::vector<int64_t>> MaskToIndices(const Column& mask) {
  const size_t n = mask.size();
  const size_t morsels = NumMorsels(n);
  const uint8_t* vals = mask.bool_data();
  const uint8_t* valid = mask.validity_data();
  auto selected = [vals, valid](size_t i) {
    return (valid == nullptr || valid[i] != 0) && vals[i] != 0;
  };
  if (morsels <= 1) {
    std::vector<int64_t> indices;
    indices.reserve(n / 2);
    for (size_t i = 0; i < n; ++i) {
      if (selected(i)) indices.push_back(static_cast<int64_t>(i));
    }
    return indices;
  }
  const size_t morsel_rows = KernelContext::Current().morsel_rows();
  std::vector<size_t> counts(morsels, 0);
  LAFP_RETURN_NOT_OK(RunMorsels(n, [&](size_t begin, size_t end) {
    // Branchless popcount-style pass: sums of 0/1 bytes autovectorize.
    size_t c = 0;
    if (valid == nullptr) {
      for (size_t i = begin; i < end; ++i) c += vals[i] != 0 ? 1 : 0;
    } else {
      for (size_t i = begin; i < end; ++i) {
        c += (valid[i] != 0) & (vals[i] != 0) ? 1 : 0;
      }
    }
    counts[begin / morsel_rows] = c;
    return Status::OK();
  }));
  std::vector<size_t> offsets(morsels, 0);
  std::exclusive_scan(counts.begin(), counts.end(), offsets.begin(),
                      size_t{0});
  std::vector<int64_t> indices(offsets.back() + counts.back());
  LAFP_RETURN_NOT_OK(RunMorsels(n, [&](size_t begin, size_t end) {
    size_t w = offsets[begin / morsel_rows];
    for (size_t i = begin; i < end; ++i) {
      if (selected(i)) indices[w++] = static_cast<int64_t>(i);
    }
    return Status::OK();
  }));
  return indices;
}

}  // namespace

Result<DataFrame> Filter(const DataFrame& df, const Column& mask) {
  if (mask.type() != DataType::kBool) {
    return Status::TypeError("filter mask must be bool");
  }
  if (mask.size() != df.num_rows()) {
    return Status::Invalid("filter mask length mismatch");
  }
  LAFP_ASSIGN_OR_RETURN(std::vector<int64_t> indices, MaskToIndices(mask));
  return df.TakeRows(indices);
}

Result<DataFrame> Head(const DataFrame& df, size_t n) {
  return df.SliceRows(0, std::min(n, df.num_rows()));
}

}  // namespace lafp::df
