#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "dataframe/ops.h"

namespace lafp::df {

namespace {

/// Three-way comparison of two rows of one column. Nulls sort last
/// regardless of direction (pandas na_position='last' is handled by the
/// caller; here nulls are "greatest").
int CompareCell(const Column& col, size_t a, size_t b) {
  bool va = col.IsValid(a), vb = col.IsValid(b);
  if (!va && !vb) return 0;
  if (!va) return 1;
  if (!vb) return -1;
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      int64_t x = col.IntAt(a), y = col.IntAt(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDouble: {
      double x = col.DoubleAt(a), y = col.DoubleAt(b);
      bool nx = std::isnan(x), ny = std::isnan(y);
      if (nx && ny) return 0;
      if (nx) return 1;
      if (ny) return -1;
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kBool: {
      int x = col.BoolAt(a) ? 1 : 0, y = col.BoolAt(b) ? 1 : 0;
      return x - y;
    }
    case DataType::kString:
    case DataType::kCategory:
      return col.StringAt(a).compare(col.StringAt(b));
    case DataType::kNull:
      return 0;
  }
  return 0;
}

/// sort_values' order on row indices: a strict weak order over the `by`
/// columns, each ascending or descending, with nulls and NaNs last in
/// either direction (pandas na_position='last'). Rows it calls equivalent
/// keep their input order (the stable sort, top-k's tie rule).
class RowOrder {
 public:
  static Result<RowOrder> Make(const DataFrame& df,
                               const std::vector<std::string>& by,
                               const std::vector<bool>& ascending) {
    if (by.empty()) return Status::Invalid("sort_values requires keys");
    RowOrder order;
    order.asc_ = ascending;
    if (order.asc_.empty()) order.asc_.assign(by.size(), true);
    if (order.asc_.size() == 1 && by.size() > 1) {
      order.asc_.assign(by.size(), order.asc_[0]);
    }
    if (order.asc_.size() != by.size()) {
      return Status::Invalid("sort_values: ascending arity mismatch");
    }
    for (const auto& k : by) {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr c, df.column(k));
      order.keys_.push_back(c.get());
    }
    return order;
  }

  bool operator()(int64_t a, int64_t b) const {
    for (size_t k = 0; k < keys_.size(); ++k) {
      const bool na = IsNa(*keys_[k], a);
      const bool nb = IsNa(*keys_[k], b);
      if (na != nb) return nb;
      if (na && nb) continue;
      int c = CompareCell(*keys_[k], a, b);
      if (c != 0) return asc_[k] ? c < 0 : c > 0;
    }
    return false;
  }

 private:
  static bool IsNa(const Column& col, size_t r) {
    if (!col.IsValid(r)) return true;
    return col.type() == DataType::kDouble && std::isnan(col.DoubleAt(r));
  }

  std::vector<const Column*> keys_;  // owned by the frame being ordered
  std::vector<bool> asc_;
};

}  // namespace

Result<DataFrame> SortValues(const DataFrame& df,
                             const std::vector<std::string>& by,
                             const std::vector<bool>& ascending) {
  LAFP_ASSIGN_OR_RETURN(RowOrder less, RowOrder::Make(df, by, ascending));
  std::vector<int64_t> order(df.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // By reference: the sort copies its comparator, and RowOrder owns
  // vectors.
  std::stable_sort(order.begin(), order.end(),
                   [&less](int64_t a, int64_t b) { return less(a, b); });
  return df.TakeRows(order);
}

Result<DataFrame> TopK(const DataFrame& df,
                       const std::vector<std::string>& by,
                       const std::vector<bool>& ascending, size_t n) {
  LAFP_ASSIGN_OR_RETURN(RowOrder less, RowOrder::Make(df, by, ascending));
  // The stable sort's order as a total one: equivalent rows by index.
  auto before = [&](int64_t a, int64_t b) {
    if (less(a, b)) return true;
    if (less(b, a)) return false;
    return a < b;
  };
  const size_t keep = std::min(n, df.num_rows());
  // A max-heap under `before`: its front is the last row kept so far.
  std::vector<int64_t> heap;
  heap.reserve(keep);
  for (int64_t r = 0; r < static_cast<int64_t>(df.num_rows()); ++r) {
    if (heap.size() < keep) {
      heap.push_back(r);
      std::push_heap(heap.begin(), heap.end(), before);
    } else if (keep > 0 && less(r, heap.front())) {
      // A row equivalent to the front comes after it, so only a strictly
      // smaller key displaces it.
      std::pop_heap(heap.begin(), heap.end(), before);
      heap.back() = r;
      std::push_heap(heap.begin(), heap.end(), before);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), before);
  return df.TakeRows(heap);
}

}  // namespace lafp::df
