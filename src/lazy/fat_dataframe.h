#ifndef LAFP_LAZY_FAT_DATAFRAME_H_
#define LAFP_LAZY_FAT_DATAFRAME_H_

#include <map>
#include <string>
#include <vector>

#include "lazy/session.h"

namespace lafp::lazy {

/// A lazily computed scalar (a sum/mean/len result, §3.3's "lazy
/// integer"): participates in further lazy expressions and is only
/// evaluated when Value() is called (or when a print referencing it
/// flushes).
class LazyScalar {
 public:
  LazyScalar() = default;
  LazyScalar(Session* session, TaskNodePtr node)
      : session_(session), node_(std::move(node)) {}

  Session* session() const { return session_; }
  const TaskNodePtr& node() const { return node_; }
  bool valid() const { return session_ != nullptr && node_ != nullptr; }

  /// Force evaluation.
  Result<df::Scalar> Value() const;

 private:
  Session* session_ = nullptr;
  TaskNodePtr node_;
};

/// The lazy dataframe handle (the paper's LaFPDataFrame / FatDataFrame,
/// §2.5): every method records an operator node in the session's task
/// graph and returns a new handle. Nothing executes until Compute() — or
/// until the session decides results are required (prints under
/// non-lazy-print modes, program end). In an eager-mode session the same
/// API materializes per call, giving plain-Pandas semantics.
///
/// A "series" (single column) is represented as a one-column frame, so
/// the same type covers pandas DataFrame and Series usage.
class FatDataFrame {
 public:
  FatDataFrame() = default;
  FatDataFrame(Session* session, TaskNodePtr node)
      : session_(session), node_(std::move(node)) {}

  Session* session() const { return session_; }
  const TaskNodePtr& node() const { return node_; }
  bool valid() const { return session_ != nullptr && node_ != nullptr; }

  /// pd.read_csv(path, usecols=..., dtype=...). When `path` is actually
  /// an LFC columnar file (magic sniff), the scan dispatches to ReadLfc
  /// with the shared knobs (usecols/nrows, category dtypes) carried over —
  /// scripts can point an unchanged read_csv call at a converted file.
  static Result<FatDataFrame> ReadCsv(Session* session,
                                      const std::string& path,
                                      io::CsvReadOptions options = {});

  /// pd.read_lfc(path, usecols=..., nrows=..., dtype=...) — native
  /// columnar scan; `options.categories` are the dtype's category hints.
  static Result<FatDataFrame> ReadLfc(Session* session,
                                      const std::string& path,
                                      io::LfcReadOptions options = {});

  /// pd.concat([a, b, ...]) — vertical concatenation.
  static Result<FatDataFrame> Concat(Session* session,
                                     const std::vector<FatDataFrame>& parts);

  // ---- selection ----
  Result<FatDataFrame> Col(const std::string& name) const;       // df["a"]
  Result<FatDataFrame> Select(std::vector<std::string> names) const;
  Result<FatDataFrame> FilterBy(const FatDataFrame& mask) const;  // df[mask]
  Result<FatDataFrame> Head(size_t n = 5) const;
  Result<FatDataFrame> Drop(std::vector<std::string> names) const;
  Result<FatDataFrame> Rename(
      std::map<std::string, std::string> mapping) const;

  // ---- predicates ----
  Result<FatDataFrame> CompareTo(df::CompareOp op,
                                 const df::Scalar& rhs) const;
  Result<FatDataFrame> CompareCol(df::CompareOp op,
                                  const FatDataFrame& rhs) const;
  Result<FatDataFrame> CompareLazy(df::CompareOp op,
                                   const LazyScalar& rhs) const;
  Result<FatDataFrame> And(const FatDataFrame& rhs) const;
  Result<FatDataFrame> Or(const FatDataFrame& rhs) const;
  Result<FatDataFrame> Not() const;
  Result<FatDataFrame> IsNull() const;
  Result<FatDataFrame> StrContains(const std::string& needle) const;
  /// col.isin([...]) — a pushdown-eligible membership predicate.
  Result<FatDataFrame> IsIn(std::vector<df::Scalar> values) const;

  // ---- assignment & arithmetic ----
  Result<FatDataFrame> SetCol(const std::string& name,
                              const FatDataFrame& value) const;
  Result<FatDataFrame> SetColScalar(const std::string& name,
                                    const df::Scalar& value) const;
  Result<FatDataFrame> SetColLazy(const std::string& name,
                                  const LazyScalar& value) const;
  Result<FatDataFrame> ArithScalar(df::ArithOp op, const df::Scalar& rhs,
                                   bool scalar_on_left = false) const;
  Result<FatDataFrame> ArithCol(df::ArithOp op,
                                const FatDataFrame& rhs) const;
  Result<FatDataFrame> ArithLazy(df::ArithOp op, const LazyScalar& rhs,
                                 bool scalar_on_left = false) const;
  Result<FatDataFrame> Abs() const;
  Result<FatDataFrame> Round(int digits) const;

  // ---- cleaning & casting ----
  Result<FatDataFrame> FillNa(const df::Scalar& value) const;
  Result<FatDataFrame> DropNa() const;
  Result<FatDataFrame> AsType(df::DataType type) const;
  Result<FatDataFrame> ToDatetime() const;
  Result<FatDataFrame> Dt(df::DtField field) const;

  // ---- relational ----
  Result<FatDataFrame> GroupByAgg(std::vector<std::string> keys,
                                  std::vector<df::AggSpec> aggs) const;
  Result<FatDataFrame> Merge(const FatDataFrame& right,
                             std::vector<std::string> on,
                             df::JoinType how) const;
  Result<FatDataFrame> SortValues(std::vector<std::string> by,
                                  std::vector<bool> ascending) const;
  Result<FatDataFrame> DropDuplicates(
      std::vector<std::string> subset) const;
  Result<FatDataFrame> UniqueValues() const;
  Result<FatDataFrame> ValueCounts() const;
  Result<FatDataFrame> Describe() const;

  // ---- reductions (lazy scalars, §3.3's lazy len included) ----
  Result<LazyScalar> Reduce(df::AggFunc func) const;
  Result<LazyScalar> Sum() const { return Reduce(df::AggFunc::kSum); }
  Result<LazyScalar> Mean() const { return Reduce(df::AggFunc::kMean); }
  Result<LazyScalar> Min() const { return Reduce(df::AggFunc::kMin); }
  Result<LazyScalar> Max() const { return Reduce(df::AggFunc::kMax); }
  Result<LazyScalar> Count() const { return Reduce(df::AggFunc::kCount); }
  Result<LazyScalar> Nunique() const {
    return Reduce(df::AggFunc::kNunique);
  }
  Result<LazyScalar> Len() const;

  // ---- materialization ----
  /// Force computation (paper's df.compute(live_df=[...])).
  Result<exec::EagerValue> Compute(
      const std::vector<FatDataFrame>& live_df = {}) const;
  /// Compute and return the eager engine frame.
  Result<df::DataFrame> ToEager(
      const std::vector<FatDataFrame>& live_df = {}) const;

  /// DOT dump of this value's task graph (cf. paper Figures 6 and 9).
  std::string DebugDot() const;

 private:
  Result<FatDataFrame> Unary(exec::OpDesc desc) const;
  Result<FatDataFrame> Binary(exec::OpDesc desc,
                              const FatDataFrame& rhs) const;

  Session* session_ = nullptr;
  TaskNodePtr node_;
};

}  // namespace lafp::lazy

#endif  // LAFP_LAZY_FAT_DATAFRAME_H_
