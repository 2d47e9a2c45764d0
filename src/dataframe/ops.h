#ifndef LAFP_DATAFRAME_OPS_H_
#define LAFP_DATAFRAME_OPS_H_

#include <limits>
#include <string>
#include <vector>

#include "dataframe/dataframe.h"
#include "dataframe/kahan.h"

namespace lafp::df {

// ---------------- Comparison and boolean kernels ----------------

/// Elementwise `col <op> rhs` producing a bool column. Nulls compare false.
/// Numeric scalars compare against numeric columns with widening; strings
/// against string/category columns.
Result<ColumnPtr> Compare(const Column& col, CompareOp op, const Scalar& rhs);

/// Elementwise column-vs-column comparison (both numeric, or both string).
Result<ColumnPtr> CompareColumns(const Column& lhs, CompareOp op,
                                 const Column& rhs);

Result<ColumnPtr> BooleanAnd(const Column& a, const Column& b);
Result<ColumnPtr> BooleanOr(const Column& a, const Column& b);
Result<ColumnPtr> BooleanNot(const Column& a);

/// True where the value is null (or NaN for doubles) — pandas isna().
Result<ColumnPtr> IsNull(const Column& a);

/// Bool column: string column contains `needle` as a substring.
Result<ColumnPtr> StrContains(const Column& col, const std::string& needle);

/// Bool column: value membership in `values` (pandas isin). Numeric
/// values compare with widening; nulls are never members.
Result<ColumnPtr> IsIn(const Column& col, const std::vector<Scalar>& values);

// ---------------- Row selection ----------------

/// Keep rows where `mask` is true (nulls drop the row).
Result<DataFrame> Filter(const DataFrame& df, const Column& mask);

Result<DataFrame> Head(const DataFrame& df, size_t n);

// ---------------- Arithmetic ----------------

Result<ColumnPtr> Arith(const Column& lhs, ArithOp op, const Scalar& rhs);
Result<ColumnPtr> ArithScalarLeft(const Scalar& lhs, ArithOp op,
                                  const Column& rhs);
Result<ColumnPtr> ArithColumns(const Column& lhs, ArithOp op,
                               const Column& rhs);
Result<ColumnPtr> Abs(const Column& col);
Result<ColumnPtr> Round(const Column& col, int digits);

// ---------------- Null handling and casting ----------------

Result<ColumnPtr> FillNaColumn(const Column& col, const Scalar& value);
Result<DataFrame> FillNa(const DataFrame& df, const Scalar& value);
/// Drop rows that contain any null.
Result<DataFrame> DropNa(const DataFrame& df);

/// Cast a column. Supported directions: numeric<->numeric, anything->str,
/// str->numeric (parse, null on failure), str<->category, str->datetime.
Result<ColumnPtr> AsType(const Column& col, DataType to);

// ---------------- Datetime ----------------

/// Parse strings (or pass through timestamps / reinterpret ints as epoch
/// seconds) into a timestamp column; unparseable values become null.
Result<ColumnPtr> ToDatetime(const Column& col);

enum class DtField { kDayOfWeek, kHour, kMonth, kYear, kDay };
Result<DtField> DtFieldFromName(const std::string& name);
const char* DtFieldName(DtField f);

/// Extract an integer field from a timestamp column.
Result<ColumnPtr> DtAccessor(const Column& col, DtField field);

// ---------------- Reductions and aggregation ----------------

/// Whole-column reduction. sum/mean/min/max skip nulls and NaNs; count is
/// the number of non-null values; min/max on strings compare
/// lexicographically.
Result<Scalar> Reduce(const Column& col, AggFunc func);

/// One output aggregate: `out_name = func(column)` within each group.
struct AggSpec {
  std::string column;
  AggFunc func;
  std::string out_name;
};

/// Hash group-by. Output: key columns (first-appearance order) followed by
/// one column per AggSpec. Null keys form their own group (simplification
/// vs pandas' dropna default; deterministic either way).
Result<DataFrame> GroupByAgg(const DataFrame& df,
                             const std::vector<std::string>& keys,
                             const std::vector<AggSpec>& aggs);

// ---------------- Sorting and duplicates ----------------

/// Stable multi-key sort. `ascending` is per-key (size 1 broadcasts).
Result<DataFrame> SortValues(const DataFrame& df,
                             const std::vector<std::string>& by,
                             const std::vector<bool>& ascending);

/// Head(SortValues(df, by, ascending), n), byte for byte, in
/// O(rows·log n): a bounded heap over row indices keeps the first n rows
/// of the stable order, and one TakeRows gathers them.
Result<DataFrame> TopK(const DataFrame& df, const std::vector<std::string>& by,
                       const std::vector<bool>& ascending, size_t n);

/// First occurrence of each distinct key tuple. Empty subset = all columns.
Result<DataFrame> DropDuplicates(const DataFrame& df,
                                 const std::vector<std::string>& subset);

Result<ColumnPtr> Unique(const Column& col);

/// value_counts' first step: each distinct non-null value of `col` in
/// first-appearance order, with its count; columns {"value", "count"}.
/// Counts of row ranges fold in row order by summing "count" per "value".
Result<DataFrame> CountValues(const Column& col);

/// value_counts' last step: CountValues output by descending count, ties
/// in first-appearance order; columns named {value_name, "count"}.
Result<DataFrame> SortValueCounts(const DataFrame& counts,
                                  const std::string& value_name);

/// SortValueCounts(CountValues(col), value_name).
Result<DataFrame> ValueCounts(const Column& col,
                              const std::string& value_name);

// ---------------- Join ----------------

enum class JoinType { kInner, kLeft };

/// Hash join on equal-named key columns. Overlapping non-key columns get
/// pandas' "_x"/"_y" suffixes. Builds a hash table on `right`, streams
/// `left` (the Dask backend relies on this asymmetry to broadcast the
/// smaller side).
Result<DataFrame> Merge(const DataFrame& left, const DataFrame& right,
                        const std::vector<std::string>& on, JoinType how);

// ---------------- Assembly ----------------

/// Vertical concatenation; frames must have identical schemas.
Result<DataFrame> Concat(const std::vector<DataFrame>& frames);

/// describe's fold: per numeric column (the first frame added picks
/// them), the count, Kahan sums of the values and their squares, and the
/// min and max, skipping nulls and NaN. Adding a frame's row ranges in
/// order gives the bits of one pass over the whole frame.
class DescribeFold {
 public:
  Status Add(const DataFrame& df);

  /// First column "stat" holds the row labels count/mean/std/min/max,
  /// then one double column per numeric column.
  Result<DataFrame> Finish() const;

 private:
  struct Moments {
    int64_t count = 0;
    KahanSum sum, sumsq;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  MemoryTracker* tracker_ = nullptr;  // set by the first Add
  std::vector<std::string> names_;
  std::vector<Moments> moments_;
};

/// Numeric summary (count/mean/std/min/max) — pandas describe(): one
/// DescribeFold over `df`.
Result<DataFrame> Describe(const DataFrame& df);

}  // namespace lafp::df

#endif  // LAFP_DATAFRAME_OPS_H_
