#ifndef LAFP_DATAFRAME_COLUMN_H_
#define LAFP_DATAFRAME_COLUMN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "dataframe/types.h"

namespace lafp::df {

class Column;
using ColumnPtr = std::shared_ptr<const Column>;
using Dictionary = std::vector<std::string>;
using DictionaryPtr = std::shared_ptr<const Dictionary>;

/// An immutable, typed, nullable column. Storage is one contiguous typed
/// vector plus an optional validity vector (empty == all valid, else one
/// byte per row). Category columns store int32 codes into a shared
/// dictionary (paper §3.6).
///
/// Every column registers its footprint with a MemoryTracker at
/// construction and releases it on destruction, which is how the benchmark
/// harness observes "peak memory" and how ops hit the budget (OOM).
class Column {
 public:
  ~Column();

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  // ---- Factories. Fail with kOutOfMemory if the tracker budget is hit. ----
  static Result<ColumnPtr> MakeInt(std::vector<int64_t> values,
                                   std::vector<uint8_t> validity,
                                   MemoryTracker* tracker);
  static Result<ColumnPtr> MakeTimestamp(std::vector<int64_t> values,
                                         std::vector<uint8_t> validity,
                                         MemoryTracker* tracker);
  static Result<ColumnPtr> MakeDouble(std::vector<double> values,
                                      std::vector<uint8_t> validity,
                                      MemoryTracker* tracker);
  static Result<ColumnPtr> MakeString(std::vector<std::string> values,
                                      std::vector<uint8_t> validity,
                                      MemoryTracker* tracker);
  static Result<ColumnPtr> MakeBool(std::vector<uint8_t> values,
                                    std::vector<uint8_t> validity,
                                    MemoryTracker* tracker);
  static Result<ColumnPtr> MakeCategory(std::vector<int32_t> codes,
                                        std::vector<uint8_t> validity,
                                        DictionaryPtr dictionary,
                                        MemoryTracker* tracker);

  /// Column of `n` copies of `value` (used by setitem with a scalar).
  static Result<ColumnPtr> MakeConstant(const Scalar& value, size_t n,
                                        MemoryTracker* tracker);

  DataType type() const { return type_; }
  size_t size() const { return size_; }
  MemoryTracker* tracker() const { return tracker_; }
  int64_t footprint_bytes() const { return reservation_.bytes(); }

  bool has_nulls() const { return !validity_.empty(); }
  bool IsValid(size_t i) const {
    return validity_.empty() || validity_[i] != 0;
  }
  size_t null_count() const;

  // ---- Typed accessors; caller must respect type(). ----
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  bool BoolAt(size_t i) const { return bools_[i] != 0; }
  /// For kString returns the string; for kCategory resolves the code.
  const std::string& StringAt(size_t i) const {
    return type_ == DataType::kCategory ? (*dictionary_)[codes_[i]]
                                        : strings_[i];
  }
  int32_t CodeAt(size_t i) const { return codes_[i]; }
  const DictionaryPtr& dictionary() const { return dictionary_; }

  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<int32_t>& codes() const { return codes_; }
  const std::vector<uint8_t>& validity() const { return validity_; }

  // ---- Raw contiguous spans for the vectorized kernels. The typed data
  // pointers alias the vectors above; validity_data() is nullptr when the
  // column has no nulls, which is the kernels' all-valid fast-path gate. ----
  const int64_t* int_data() const { return ints_.data(); }
  const double* double_data() const { return doubles_.data(); }
  const uint8_t* bool_data() const { return bools_.data(); }
  const int32_t* code_data() const { return codes_.data(); }
  const uint8_t* validity_data() const {
    return validity_.empty() ? nullptr : validity_.data();
  }

  /// Value at `i` boxed as a Scalar (null-aware).
  Scalar ScalarAt(size_t i) const;

  /// Numeric value widened to double. Fails on string/category columns.
  /// Null rows yield NaN; check IsValid first where it matters.
  Result<double> NumericAt(size_t i) const;

  /// Take rows by index (the gather kernel behind filter/sort/join).
  Result<ColumnPtr> Take(const std::vector<int64_t>& indices) const;

  /// Contiguous row slice [offset, offset+length).
  Result<ColumnPtr> Slice(size_t offset, size_t length) const;

  /// Value repr used by print / CSV / hashing ("NaN" for nulls).
  std::string ValueString(size_t i) const;

 private:
  Column() = default;

  /// Compute footprint and reserve it; called once by factories.
  Status FinishConstruction(MemoryTracker* tracker);
  int64_t ComputeFootprint() const;

  DataType type_ = DataType::kNull;
  size_t size_ = 0;
  std::vector<uint8_t> validity_;  // empty == all valid
  std::vector<int64_t> ints_;      // kInt64 and kTimestamp
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> bools_;
  std::vector<int32_t> codes_;  // kCategory
  DictionaryPtr dictionary_;
  MemoryTracker* tracker_ = nullptr;
  ScopedReservation reservation_;
};

/// Append-oriented builder producing a Column of a fixed type. CSV parsing
/// and most kernels build outputs through this.
class ColumnBuilder {
 public:
  ColumnBuilder(DataType type, MemoryTracker* tracker);

  void Reserve(size_t n);

  void AppendNull();
  void AppendInt(int64_t v);        // kInt64 / kTimestamp
  void AppendDouble(double v);      // kDouble
  void AppendBool(bool v);          // kBool
  void AppendString(std::string v); // kString (not kCategory)

  /// Append any scalar, converting between numeric widths; null appends
  /// null. Fails on an impossible conversion (e.g. string -> int).
  Status AppendScalar(const Scalar& v);

  /// Append row `i` of `src` (types must match exactly).
  void AppendFrom(const Column& src, size_t i);

  size_t size() const { return count_; }
  DataType type() const { return type_; }

  /// Build the column, registering its footprint. The builder is consumed.
  Result<ColumnPtr> Finish();

 private:
  DataType type_;
  MemoryTracker* tracker_;
  size_t count_ = 0;
  bool saw_null_ = false;
  std::vector<uint8_t> validity_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> bools_;
};

/// The one string factorize (KeyIndex), behind astype('category') and
/// LFC dictionaries: returns the distinct valid values of a kString
/// column in first-appearance order and fills `codes` with each row's
/// index into them (0 at null rows).
DictionaryPtr FactorizeStrings(const Column& strings,
                               std::vector<int32_t>* codes);

/// Dictionary-encode a string column into a category column
/// (FactorizeStrings).
Result<ColumnPtr> CategorizeStrings(const Column& strings,
                                    MemoryTracker* tracker);

/// Decode a category column back to plain strings (used when an op does not
/// support categories, and by the Pandas-fallback path).
Result<ColumnPtr> DecategorizeToStrings(const Column& cat,
                                        MemoryTracker* tracker);

}  // namespace lafp::df

#endif  // LAFP_DATAFRAME_COLUMN_H_
