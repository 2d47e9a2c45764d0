#include "dataframe/column.h"

#include <cmath>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "dataframe/kernel_context.h"
#include "dataframe/key_index.h"

namespace lafp::df {

namespace {
// Per-std::string bookkeeping overhead charged against the budget, on top
// of character payload (approximates libstdc++ SSO + heap headers).
constexpr int64_t kStringOverhead = 16;
}  // namespace

Column::~Column() = default;  // reservation_ releases via RAII

Status Column::FinishConstruction(MemoryTracker* tracker) {
  if (tracker == nullptr) tracker = MemoryTracker::Default();
  tracker_ = tracker;
  return ScopedReservation::Make(tracker, ComputeFootprint(), &reservation_);
}

int64_t Column::ComputeFootprint() const {
  int64_t bytes = static_cast<int64_t>(validity_.size());
  bytes += static_cast<int64_t>(ints_.size()) * 8;
  bytes += static_cast<int64_t>(doubles_.size()) * 8;
  bytes += static_cast<int64_t>(bools_.size());
  bytes += static_cast<int64_t>(codes_.size()) * 4;
  for (const auto& s : strings_) {
    bytes += static_cast<int64_t>(s.size()) + kStringOverhead;
  }
  // The dictionary is shared; charge it once per referencing column, which
  // is conservative but keeps accounting local.
  if (dictionary_) {
    for (const auto& s : *dictionary_) {
      bytes += static_cast<int64_t>(s.size()) + kStringOverhead;
    }
  }
  return bytes;
}

#define LAFP_COLUMN_FACTORY_BODY(field, dtype)                     \
  auto col = std::shared_ptr<Column>(new Column());                \
  col->type_ = (dtype);                                            \
  col->size_ = values.size();                                      \
  col->field = std::move(values);                                  \
  col->validity_ = std::move(validity);                            \
  LAFP_CHECK(col->validity_.empty() ||                             \
             col->validity_.size() == col->size_);                 \
  LAFP_RETURN_NOT_OK(col->FinishConstruction(tracker));            \
  return ColumnPtr(col)

Result<ColumnPtr> Column::MakeInt(std::vector<int64_t> values,
                                  std::vector<uint8_t> validity,
                                  MemoryTracker* tracker) {
  LAFP_COLUMN_FACTORY_BODY(ints_, DataType::kInt64);
}

Result<ColumnPtr> Column::MakeTimestamp(std::vector<int64_t> values,
                                        std::vector<uint8_t> validity,
                                        MemoryTracker* tracker) {
  LAFP_COLUMN_FACTORY_BODY(ints_, DataType::kTimestamp);
}

Result<ColumnPtr> Column::MakeDouble(std::vector<double> values,
                                     std::vector<uint8_t> validity,
                                     MemoryTracker* tracker) {
  LAFP_COLUMN_FACTORY_BODY(doubles_, DataType::kDouble);
}

Result<ColumnPtr> Column::MakeString(std::vector<std::string> values,
                                     std::vector<uint8_t> validity,
                                     MemoryTracker* tracker) {
  LAFP_COLUMN_FACTORY_BODY(strings_, DataType::kString);
}

Result<ColumnPtr> Column::MakeBool(std::vector<uint8_t> values,
                                   std::vector<uint8_t> validity,
                                   MemoryTracker* tracker) {
  LAFP_COLUMN_FACTORY_BODY(bools_, DataType::kBool);
}

#undef LAFP_COLUMN_FACTORY_BODY

Result<ColumnPtr> Column::MakeCategory(std::vector<int32_t> codes,
                                       std::vector<uint8_t> validity,
                                       DictionaryPtr dictionary,
                                       MemoryTracker* tracker) {
  auto col = std::shared_ptr<Column>(new Column());
  col->type_ = DataType::kCategory;
  col->size_ = codes.size();
  col->codes_ = std::move(codes);
  col->validity_ = std::move(validity);
  col->dictionary_ = std::move(dictionary);
  LAFP_CHECK(col->dictionary_ != nullptr);
  LAFP_CHECK(col->validity_.empty() ||
             col->validity_.size() == col->size_);
  LAFP_RETURN_NOT_OK(col->FinishConstruction(tracker));
  return ColumnPtr(col);
}

Result<ColumnPtr> Column::MakeConstant(const Scalar& value, size_t n,
                                       MemoryTracker* tracker) {
  switch (value.type()) {
    case DataType::kNull: {
      // Represent an all-null column as double NaNs with null validity.
      return MakeDouble(std::vector<double>(n, 0.0),
                        std::vector<uint8_t>(n, 0), tracker);
    }
    case DataType::kBool:
      return MakeBool(std::vector<uint8_t>(n, value.bool_value() ? 1 : 0), {},
                      tracker);
    case DataType::kInt64:
      return MakeInt(std::vector<int64_t>(n, value.int_value()), {}, tracker);
    case DataType::kTimestamp:
      return MakeTimestamp(std::vector<int64_t>(n, value.int_value()), {},
                           tracker);
    case DataType::kDouble:
      return MakeDouble(std::vector<double>(n, value.double_value()), {},
                        tracker);
    case DataType::kString:
    case DataType::kCategory:
      return MakeString(std::vector<std::string>(n, value.string_value()),
                        {}, tracker);
  }
  return Status::Invalid("bad scalar type");
}

size_t Column::null_count() const {
  if (validity_.empty()) return 0;
  size_t n = 0;
  for (uint8_t v : validity_) n += (v == 0);
  return n;
}

Scalar Column::ScalarAt(size_t i) const {
  if (!IsValid(i)) return Scalar::Null();
  switch (type_) {
    case DataType::kBool:
      return Scalar::Bool(BoolAt(i));
    case DataType::kInt64:
      return Scalar::Int(IntAt(i));
    case DataType::kTimestamp:
      return Scalar::Timestamp(IntAt(i));
    case DataType::kDouble:
      return Scalar::Double(DoubleAt(i));
    case DataType::kString:
    case DataType::kCategory:
      return Scalar::String(StringAt(i));
    case DataType::kNull:
      break;
  }
  return Scalar::Null();
}

Result<double> Column::NumericAt(size_t i) const {
  if (!IsValid(i)) return std::nan("");
  switch (type_) {
    case DataType::kBool:
      return BoolAt(i) ? 1.0 : 0.0;
    case DataType::kInt64:
    case DataType::kTimestamp:
      return static_cast<double>(IntAt(i));
    case DataType::kDouble:
      return DoubleAt(i);
    default:
      return Status::TypeError(std::string("column of type ") +
                               DataTypeName(type_) + " is not numeric");
  }
}

namespace {

/// Morsel-parallel gather of `indices` from `src` into a fresh vector.
/// Each morsel writes a disjoint range of the output, so the result is
/// positionally identical for any thread count.
template <typename T>
Result<std::vector<T>> GatherRows(const std::vector<T>& src,
                                  const std::vector<int64_t>& indices) {
  std::vector<T> out(indices.size());
  LAFP_RETURN_NOT_OK(
      RunMorsels(indices.size(), [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) out[k] = src[indices[k]];
        return Status::OK();
      }));
  return out;
}

}  // namespace

Result<ColumnPtr> Column::Take(const std::vector<int64_t>& indices) const {
  std::vector<uint8_t> validity;
  if (!validity_.empty()) {
    LAFP_ASSIGN_OR_RETURN(validity, GatherRows(validity_, indices));
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      LAFP_ASSIGN_OR_RETURN(std::vector<int64_t> out,
                            GatherRows(ints_, indices));
      return type_ == DataType::kInt64
                 ? MakeInt(std::move(out), std::move(validity), tracker_)
                 : MakeTimestamp(std::move(out), std::move(validity),
                                 tracker_);
    }
    case DataType::kDouble: {
      LAFP_ASSIGN_OR_RETURN(std::vector<double> out,
                            GatherRows(doubles_, indices));
      return MakeDouble(std::move(out), std::move(validity), tracker_);
    }
    case DataType::kString: {
      LAFP_ASSIGN_OR_RETURN(std::vector<std::string> out,
                            GatherRows(strings_, indices));
      return MakeString(std::move(out), std::move(validity), tracker_);
    }
    case DataType::kBool: {
      LAFP_ASSIGN_OR_RETURN(std::vector<uint8_t> out,
                            GatherRows(bools_, indices));
      return MakeBool(std::move(out), std::move(validity), tracker_);
    }
    case DataType::kCategory: {
      LAFP_ASSIGN_OR_RETURN(std::vector<int32_t> out,
                            GatherRows(codes_, indices));
      return MakeCategory(std::move(out), std::move(validity), dictionary_,
                          tracker_);
    }
    case DataType::kNull:
      break;
  }
  return Status::Invalid("Take on null-typed column");
}

Result<ColumnPtr> Column::Slice(size_t offset, size_t length) const {
  LAFP_CHECK(offset + length <= size_);
  std::vector<uint8_t> validity;
  if (!validity_.empty()) {
    validity.assign(validity_.begin() + offset,
                    validity_.begin() + offset + length);
  }
  switch (type_) {
    case DataType::kInt64:
      return MakeInt({ints_.begin() + offset, ints_.begin() + offset + length},
                     std::move(validity), tracker_);
    case DataType::kTimestamp:
      return MakeTimestamp(
          {ints_.begin() + offset, ints_.begin() + offset + length},
          std::move(validity), tracker_);
    case DataType::kDouble:
      return MakeDouble(
          {doubles_.begin() + offset, doubles_.begin() + offset + length},
          std::move(validity), tracker_);
    case DataType::kString:
      return MakeString(
          {strings_.begin() + offset, strings_.begin() + offset + length},
          std::move(validity), tracker_);
    case DataType::kBool:
      return MakeBool(
          {bools_.begin() + offset, bools_.begin() + offset + length},
          std::move(validity), tracker_);
    case DataType::kCategory:
      return MakeCategory(
          {codes_.begin() + offset, codes_.begin() + offset + length},
          std::move(validity), dictionary_, tracker_);
    case DataType::kNull:
      break;
  }
  return Status::Invalid("Slice on null-typed column");
}

std::string Column::ValueString(size_t i) const {
  if (!IsValid(i)) return "NaN";
  switch (type_) {
    case DataType::kBool:
      return BoolAt(i) ? "True" : "False";
    case DataType::kInt64:
      return std::to_string(IntAt(i));
    case DataType::kTimestamp:
      return FormatTimestamp(IntAt(i));
    case DataType::kDouble: {
      double v = DoubleAt(i);
      if (std::isnan(v)) return "NaN";
      return FormatDouble(v);
    }
    case DataType::kString:
    case DataType::kCategory:
      return StringAt(i);
    case DataType::kNull:
      break;
  }
  return "NaN";
}

// ---- ColumnBuilder ----

ColumnBuilder::ColumnBuilder(DataType type, MemoryTracker* tracker)
    : type_(type),
      tracker_(tracker != nullptr ? tracker : MemoryTracker::Default()) {
  LAFP_CHECK(type != DataType::kNull && type != DataType::kCategory)
      << "build strings then CategorizeStrings()";
}

void ColumnBuilder::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
    case DataType::kBool:
      bools_.reserve(n);
      break;
    default:
      break;
  }
}

void ColumnBuilder::AppendNull() {
  saw_null_ = true;
  if (validity_.size() < count_) validity_.resize(count_, 1);
  validity_.push_back(0);
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(std::nan(""));
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
    case DataType::kBool:
      bools_.push_back(0);
      break;
    default:
      break;
  }
  ++count_;
}

void ColumnBuilder::AppendInt(int64_t v) {
  LAFP_DCHECK(type_ == DataType::kInt64 || type_ == DataType::kTimestamp);
  if (saw_null_) validity_.push_back(1);
  ints_.push_back(v);
  ++count_;
}

void ColumnBuilder::AppendDouble(double v) {
  LAFP_DCHECK(type_ == DataType::kDouble);
  if (saw_null_) validity_.push_back(1);
  doubles_.push_back(v);
  ++count_;
}

void ColumnBuilder::AppendBool(bool v) {
  LAFP_DCHECK(type_ == DataType::kBool);
  if (saw_null_) validity_.push_back(1);
  bools_.push_back(v ? 1 : 0);
  ++count_;
}

void ColumnBuilder::AppendString(std::string v) {
  LAFP_DCHECK(type_ == DataType::kString);
  if (saw_null_) validity_.push_back(1);
  strings_.push_back(std::move(v));
  ++count_;
}

Status ColumnBuilder::AppendScalar(const Scalar& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp: {
      LAFP_ASSIGN_OR_RETURN(double d, v.AsDouble());
      AppendInt(static_cast<int64_t>(d));
      return Status::OK();
    }
    case DataType::kDouble: {
      LAFP_ASSIGN_OR_RETURN(double d, v.AsDouble());
      AppendDouble(d);
      return Status::OK();
    }
    case DataType::kBool: {
      if (v.type() != DataType::kBool) {
        return Status::TypeError("cannot append non-bool to bool column");
      }
      AppendBool(v.bool_value());
      return Status::OK();
    }
    case DataType::kString: {
      if (v.type() == DataType::kString || v.type() == DataType::kCategory) {
        AppendString(v.string_value());
      } else {
        AppendString(v.ToString());
      }
      return Status::OK();
    }
    default:
      return Status::Invalid("bad builder type");
  }
}

void ColumnBuilder::AppendFrom(const Column& src, size_t i) {
  if (!src.IsValid(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      AppendInt(src.IntAt(i));
      break;
    case DataType::kDouble:
      AppendDouble(src.DoubleAt(i));
      break;
    case DataType::kBool:
      AppendBool(src.BoolAt(i));
      break;
    case DataType::kString:
      AppendString(src.StringAt(i));
      break;
    default:
      break;
  }
}

Result<ColumnPtr> ColumnBuilder::Finish() {
  if (saw_null_ && validity_.size() < count_) {
    validity_.resize(count_, 1);
  }
  switch (type_) {
    case DataType::kInt64:
      return Column::MakeInt(std::move(ints_), std::move(validity_),
                             tracker_);
    case DataType::kTimestamp:
      return Column::MakeTimestamp(std::move(ints_), std::move(validity_),
                                   tracker_);
    case DataType::kDouble:
      return Column::MakeDouble(std::move(doubles_), std::move(validity_),
                                tracker_);
    case DataType::kString:
      return Column::MakeString(std::move(strings_), std::move(validity_),
                                tracker_);
    case DataType::kBool:
      return Column::MakeBool(std::move(bools_), std::move(validity_),
                              tracker_);
    default:
      return Status::Invalid("bad builder type");
  }
}

DictionaryPtr FactorizeStrings(const Column& strings,
                               std::vector<int32_t>* codes) {
  const size_t n = strings.size();
  std::vector<uint32_t> ids(n);
  KeyIndex index({&strings});
  index.Insert(0, n, ids.data());
  // The null rows form one group of their own, which the dictionary skips.
  uint32_t null_id = kNoGroup;
  for (size_t i = 0; i < n && strings.has_nulls(); ++i) {
    if (!strings.IsValid(i)) {
      null_id = ids[i];
      break;
    }
  }
  auto dict = std::make_shared<Dictionary>();
  dict->reserve(index.num_groups());
  for (size_t g = 0; g < index.num_groups(); ++g) {
    if (g != null_id) dict->push_back(strings.StringAt(index.first_rows()[g]));
  }
  codes->assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] == null_id) continue;
    (*codes)[i] = static_cast<int32_t>(ids[i] < null_id ? ids[i] : ids[i] - 1);
  }
  return dict;
}

Result<ColumnPtr> CategorizeStrings(const Column& strings,
                                    MemoryTracker* tracker) {
  if (strings.type() == DataType::kCategory) {
    // Already categorical: rebuild with the same dictionary (registers a
    // fresh reservation under `tracker`).
    return Column::MakeCategory(strings.codes(), strings.validity(),
                                strings.dictionary(), tracker);
  }
  if (strings.type() != DataType::kString) {
    return Status::TypeError("categorize requires a string column");
  }
  std::vector<int32_t> codes;
  DictionaryPtr dict = FactorizeStrings(strings, &codes);
  return Column::MakeCategory(std::move(codes), strings.validity(),
                              std::move(dict), tracker);
}

Result<ColumnPtr> DecategorizeToStrings(const Column& cat,
                                        MemoryTracker* tracker) {
  if (cat.type() == DataType::kString) {
    return Column::MakeString(cat.strings(), cat.validity(), tracker);
  }
  if (cat.type() != DataType::kCategory) {
    return Status::TypeError("decategorize requires a category column");
  }
  std::vector<std::string> out(cat.size());
  for (size_t i = 0; i < cat.size(); ++i) {
    if (cat.IsValid(i)) out[i] = cat.StringAt(i);
  }
  return Column::MakeString(std::move(out), cat.validity(), tracker);
}

}  // namespace lafp::df
