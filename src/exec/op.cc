#include "exec/op.h"

#include <iterator>
#include <type_traits>
#include <utility>

#include "common/macros.h"

namespace lafp::exec {

namespace {

using F = OpField;
using CE = ColumnEffect;
using ON = OutputNames;

template <typename... Fields>
constexpr uint32_t FieldSet(Fields... fields) {
  return (0u | ... | (1u << static_cast<int>(fields)));
}

constexpr uint32_t kMap = OpTraits::kMap;
constexpr uint32_t kRowwise = OpTraits::kRowwiseInvariant;
constexpr uint32_t kScalarResult = OpTraits::kScalarResult;
constexpr uint32_t kScalarOperand = OpTraits::kScalarOperand;

// The operator schema: one row per OpKind, in enum order.
// clang-format off
constexpr OpTraits kTraits[] = {
    // kind, name, arity, flags, column effect, output names, fields
    {OpKind::kReadCsv, "read_csv", 0, 0, CE::kOpaque, ON::kCustom,
     FieldSet(F::kPath, F::kCsvOptions)},
    {OpKind::kSelect, "select", 1, kMap | kRowwise, CE::kPreserves, ON::kCustom,
     FieldSet(F::kColumns)},
    {OpKind::kGetColumn, "get_item", 1, kMap | kRowwise, CE::kOpaque, ON::kCustom,
     FieldSet(F::kColumn)},
    {OpKind::kFilter, "filter", 2, kMap | kRowwise, CE::kOpaque, ON::kInput, 0},
    {OpKind::kCompare, "compare", 2, kMap | kRowwise | kScalarOperand,
     CE::kOpaque, ON::kSeries, FieldSet(F::kCompareOp, F::kHasScalar, F::kScalar)},
    {OpKind::kBooleanAnd, "and", 2, kMap | kRowwise, CE::kOpaque, ON::kSeries, 0},
    {OpKind::kBooleanOr, "or", 2, kMap | kRowwise, CE::kOpaque, ON::kSeries, 0},
    {OpKind::kBooleanNot, "not", 1, kMap | kRowwise, CE::kOpaque, ON::kSeries, 0},
    {OpKind::kIsNull, "isna", 1, kMap | kRowwise, CE::kOpaque, ON::kSeries, 0},
    {OpKind::kStrContains, "str_contains", 1, kMap | kRowwise, CE::kOpaque,
     ON::kSeries, FieldSet(F::kStrArg)},
    {OpKind::kSetColumn, "set_item", 2, kMap | kRowwise | kScalarOperand,
     CE::kWrites, ON::kCustom, FieldSet(F::kColumn, F::kHasScalar, F::kScalar)},
    {OpKind::kDropColumns, "drop", 1, kMap | kRowwise, CE::kPreserves,
     ON::kCustom, FieldSet(F::kColumns)},
    {OpKind::kRename, "rename", 1, kMap | kRowwise, CE::kRenames, ON::kCustom,
     FieldSet(F::kRename)},
    {OpKind::kArith, "arith", 2, kMap | kRowwise | kScalarOperand,
     CE::kOpaque, ON::kSeries,
     FieldSet(F::kArithOp, F::kScalarOnLeft, F::kHasScalar, F::kScalar)},
    {OpKind::kAbs, "abs", 1, kMap | kRowwise, CE::kOpaque, ON::kSeries, 0},
    {OpKind::kRound, "round", 1, kMap | kRowwise, CE::kOpaque, ON::kSeries,
     FieldSet(F::kDigits)},
    {OpKind::kFillNa, "fillna", 1, kMap | kRowwise, CE::kOpaque, ON::kInput,
     FieldSet(F::kHasScalar, F::kScalar)},
    {OpKind::kDropNa, "dropna", 1, kMap, CE::kOpaque, ON::kInput, 0},
    {OpKind::kAsType, "astype", 1, kMap | kRowwise, CE::kOpaque, ON::kSeries,
     FieldSet(F::kDtype)},
    {OpKind::kToDatetime, "to_datetime", 1, kMap | kRowwise, CE::kOpaque,
     ON::kSeries, 0},
    {OpKind::kDtAccessor, "dt", 1, kMap | kRowwise, CE::kOpaque, ON::kSeries,
     FieldSet(F::kDtField)},
    {OpKind::kGroupByAgg, "groupby_agg", 1, 0, CE::kOpaque, ON::kCustom,
     FieldSet(F::kColumns, F::kAggs)},
    {OpKind::kReduce, "reduce", 1, kScalarResult, CE::kOpaque, ON::kScalar,
     FieldSet(F::kAggFunc)},
    {OpKind::kMerge, "merge", 2, 0, CE::kOpaque, ON::kEngine,
     FieldSet(F::kColumns, F::kJoinType)},
    {OpKind::kSortValues, "sort_values", 1, kRowwise, CE::kPreserves,
     ON::kInput, FieldSet(F::kColumns, F::kAscending)},
    {OpKind::kDropDuplicates, "drop_duplicates", 1, kRowwise, CE::kPreserves,
     ON::kInput, FieldSet(F::kColumns)},
    {OpKind::kUnique, "unique", 1, 0, CE::kOpaque, ON::kSeries, 0},
    {OpKind::kValueCounts, "value_counts", 1, 0, CE::kOpaque, ON::kEngine, 0},
    {OpKind::kDescribe, "describe", 1, 0, CE::kOpaque, ON::kEngine, 0},
    {OpKind::kHead, "head", 1, 0, CE::kOpaque, ON::kInput, FieldSet(F::kN)},
    {OpKind::kPrint, "print", -1, 0, CE::kOpaque, ON::kNone, 0},
    {OpKind::kLen, "len", 1, kScalarResult, CE::kOpaque, ON::kScalar, 0},
    {OpKind::kIsIn, "isin", 1, kMap | kRowwise, CE::kOpaque, ON::kSeries,
     FieldSet(F::kScalarList)},
    {OpKind::kConcat, "concat", -1, 0, CE::kOpaque, ON::kEngine, 0},
    {OpKind::kReadLfc, "read_lfc", 0, 0, CE::kOpaque, ON::kCustom,
     FieldSet(F::kPath, F::kLfcOptions)},
    {OpKind::kTopK, "top_k", 1, 0, CE::kOpaque, ON::kInput,
     FieldSet(F::kColumns, F::kAscending, F::kN)},
    {OpKind::kMaterialized, "materialized", 0, 0, CE::kOpaque, ON::kNone, 0},
};
// clang-format on

constexpr bool RowsFollowKindOrder() {
  for (size_t i = 0; i < std::size(kTraits); ++i) {
    if (static_cast<size_t>(kTraits[i].kind) != i) return false;
  }
  return true;
}
static_assert(std::size(kTraits) == static_cast<size_t>(kLastOpKind) + 1,
              "one trait row per OpKind");
static_assert(RowsFollowKindOrder(), "trait rows must follow OpKind order");

// In OpField order.
constexpr const char* kFieldNames[] = {
    "path", "csv_options", "lfc_options", "columns", "column", "compare_op",
    "arith_op", "scalar_on_left", "has_scalar", "scalar", "aggs", "agg_func",
    "ascending", "join_type", "dtype", "dt_field", "n", "rename", "str_arg",
    "scalar_list", "digits"};
static_assert(std::size(kFieldNames) == static_cast<size_t>(F::kDigits) + 1,
              "one name per OpField");

// ---- Codec: one Put/Get pair per field value type. ----

constexpr uint8_t LastValue(df::CompareOp) {
  return static_cast<uint8_t>(df::CompareOp::kGe);
}
constexpr uint8_t LastValue(df::ArithOp) {
  return static_cast<uint8_t>(df::ArithOp::kMod);
}
constexpr uint8_t LastValue(df::AggFunc) {
  return static_cast<uint8_t>(df::AggFunc::kNunique);
}
constexpr uint8_t LastValue(df::JoinType) {
  return static_cast<uint8_t>(df::JoinType::kLeft);
}
constexpr uint8_t LastValue(df::DataType) {
  return static_cast<uint8_t>(df::DataType::kCategory);
}
constexpr uint8_t LastValue(df::DtField) {
  return static_cast<uint8_t>(df::DtField::kDay);
}

void Put(WireWriter* w, const std::string& v) { w->Str(v); }
void Put(WireWriter* w, bool v) { w->U8(v ? 1 : 0); }
void Put(WireWriter* w, char v) { w->U8(static_cast<uint8_t>(v)); }
void Put(WireWriter* w, int v) { w->I64(v); }
void Put(WireWriter* w, size_t v) { w->U64(v); }
void Put(WireWriter* w, const df::Scalar& v) { EncodeScalar(v, w); }
template <typename E>
  requires std::is_enum_v<E>
void Put(WireWriter* w, E v) {
  w->U8(static_cast<uint8_t>(v));
}

bool Get(WireReader* r, std::string* v) { return r->Str(v); }
bool Get(WireReader* r, bool* v) {
  uint8_t raw = 0;
  if (!r->U8(&raw)) return false;
  *v = raw != 0;
  return true;
}
bool Get(WireReader* r, char* v) {
  uint8_t raw = 0;
  if (!r->U8(&raw)) return false;
  *v = static_cast<char>(raw);
  return true;
}
bool Get(WireReader* r, int* v) {
  int64_t raw = 0;
  if (!r->I64(&raw)) return false;
  *v = static_cast<int>(raw);
  return true;
}
bool Get(WireReader* r, size_t* v) {
  uint64_t raw = 0;
  if (!r->U64(&raw)) return false;
  *v = static_cast<size_t>(raw);
  return true;
}
bool Get(WireReader* r, df::Scalar* v) { return DecodeScalar(r, v).ok(); }
/// Range-checked: a corrupt fragment must not put an out-of-range enum in
/// front of the kernels.
template <typename E>
  requires std::is_enum_v<E>
bool Get(WireReader* r, E* v) {
  uint8_t raw = 0;
  if (!r->U8(&raw) || raw > LastValue(E{})) return false;
  *v = static_cast<E>(raw);
  return true;
}

void Put(WireWriter* w, const io::LfcPredicate& v);
bool Get(WireReader* r, df::AggSpec* v);
bool Get(WireReader* r, io::LfcPredicate* v);

template <typename T>
void Put(WireWriter* w, const std::vector<T>& v) {
  w->U32(static_cast<uint32_t>(v.size()));
  for (const auto& x : v) Put(w, x);
}

template <typename K, typename V>
void Put(WireWriter* w, const std::map<K, V>& v) {
  w->U32(static_cast<uint32_t>(v.size()));
  for (const auto& [key, value] : v) {
    Put(w, key);
    Put(w, value);
  }
}

/// Reads a u32 element count. Every element costs at least one byte, so a
/// count above the bytes left is corrupt, not merely large.
bool GetCount(WireReader* r, uint32_t* n) {
  return r->U32(n) && *n <= r->remaining();
}

template <typename T>
bool Get(WireReader* r, std::vector<T>* v) {
  uint32_t n = 0;
  if (!GetCount(r, &n)) return false;
  v->clear();
  for (uint32_t i = 0; i < n; ++i) {
    T x{};
    if (!Get(r, &x)) return false;
    v->push_back(std::move(x));
  }
  return true;
}

template <typename K, typename V>
bool Get(WireReader* r, std::map<K, V>* v) {
  uint32_t n = 0;
  if (!GetCount(r, &n)) return false;
  v->clear();
  for (uint32_t i = 0; i < n; ++i) {
    K key{};
    V value{};
    if (!Get(r, &key) || !Get(r, &value)) return false;
    (*v)[std::move(key)] = std::move(value);
  }
  return true;
}

void Put(WireWriter* w, const io::LfcPredicate& v) {
  Put(w, v.column);
  Put(w, v.op);
  Put(w, v.scalar);
}
bool Get(WireReader* r, io::LfcPredicate* v) {
  return Get(r, &v->column) && Get(r, &v->op) && Get(r, &v->scalar);
}
bool Get(WireReader* r, df::AggSpec* v) {
  return Get(r, &v->column) && Get(r, &v->func) && Get(r, &v->out_name);
}

void Put(WireWriter* w, const io::CsvReadOptions& v) {
  Put(w, v.usecols);
  Put(w, v.dtypes);
  Put(w, v.delimiter);
  Put(w, v.nrows);
  Put(w, v.infer_rows);
}
bool Get(WireReader* r, io::CsvReadOptions* v) {
  return Get(r, &v->usecols) && Get(r, &v->dtypes) && Get(r, &v->delimiter) &&
         Get(r, &v->nrows) && Get(r, &v->infer_rows);
}

void Put(WireWriter* w, const io::LfcReadOptions& v) {
  Put(w, v.usecols);
  Put(w, v.nrows);
  Put(w, v.categories);
  Put(w, v.prune);
  Put(w, v.prune_enabled);
}
bool Get(WireReader* r, io::LfcReadOptions* v) {
  return Get(r, &v->usecols) && Get(r, &v->nrows) &&
         Get(r, &v->categories) && Get(r, &v->prune) &&
         Get(r, &v->prune_enabled);
}

/// Encodes the kind, then its fields. With a name map, every input-column
/// reference is written as the map resolves it.
class FieldEncoder {
 public:
  FieldEncoder(WireWriter* w, const ColumnNameMap* map) : w_(w), map_(map) {}

  bool ok() const { return ok_; }

  void Encode(const OpDesc& d) {
    w_->U32(static_cast<uint32_t>(d.kind));
    VisitFields(d, *this);
  }

  void operator()(OpField f, const std::string& v) {
    if (f == F::kColumn) {
      Name(v);
    } else {
      Put(w_, v);
    }
  }
  void operator()(OpField f, const std::vector<std::string>& v) {
    if (f != F::kColumns) return Put(w_, v);
    w_->U32(static_cast<uint32_t>(v.size()));
    for (const auto& name : v) Name(name);
  }
  void operator()(OpField, const std::vector<df::AggSpec>& v) {
    w_->U32(static_cast<uint32_t>(v.size()));
    for (const auto& a : v) {
      Name(a.column);
      Put(w_, a.func);
      Put(w_, a.out_name);
    }
  }
  template <typename T>
  void operator()(OpField, const T& v) {
    Put(w_, v);
  }

 private:
  void Name(const std::string& name) {
    const std::string* out = map_ == nullptr ? &name : (*map_)(name);
    if (out == nullptr) {
      ok_ = false;
      return;
    }
    w_->Str(*out);
  }

  WireWriter* w_;
  const ColumnNameMap* map_;
  bool ok_ = true;
};

class FieldDecoder {
 public:
  static Status Decode(WireReader* r, OpDesc* out) {
    uint32_t kind = 0;
    if (!r->U32(&kind)) return r->Error("op kind");
    if (kind > static_cast<uint32_t>(kLastOpKind)) {
      return Status::IOError("wire: unknown op kind " + std::to_string(kind));
    }
    OpDesc d;
    d.kind = static_cast<OpKind>(kind);
    FieldDecoder fields(r);
    VisitFields(d, fields);
    LAFP_RETURN_NOT_OK(fields.status_);
    *out = std::move(d);
    return Status::OK();
  }

  template <typename T>
  void operator()(OpField f, T& v) {
    if (status_.ok() && !Get(r_, &v)) status_ = Malformed(f);
  }

 private:
  explicit FieldDecoder(WireReader* r) : r_(r) {}

  static Status Malformed(OpField f) {
    return Status::IOError(
        std::string("wire: truncated or out-of-range op field ") +
        OpFieldName(f));
  }

  WireReader* r_;
  Status status_;
};

// ---- Display: the compact text ToString shows for a field value. ----

std::string Display(const std::string& v) { return v; }
std::string Display(bool v) { return v ? "1" : "0"; }
std::string Display(int v) { return std::to_string(v); }
std::string Display(size_t v) { return std::to_string(v); }
std::string Display(const df::Scalar& v) { return v.ToString(); }
std::string Display(df::CompareOp v) { return df::CompareOpSymbol(v); }
std::string Display(df::ArithOp v) { return df::ArithOpSymbol(v); }
std::string Display(df::AggFunc v) { return df::AggFuncName(v); }
std::string Display(df::DataType v) { return df::DataTypeName(v); }
std::string Display(df::DtField v) { return df::DtFieldName(v); }
std::string Display(df::JoinType v) {
  return v == df::JoinType::kInner ? "inner" : "left";
}
std::string Display(const df::AggSpec& v) {
  return df::AggFuncName(v.func) + ("(" + v.column + ")");
}
std::string Display(const io::LfcPredicate& v) {
  return v.column + df::CompareOpSymbol(v.op) + v.scalar.ToString();
}
std::string Display(const std::pair<const std::string, std::string>& v) {
  return v.first + ":" + v.second;
}
template <typename Container>
std::string DisplayList(const Container& v) {
  std::string out;
  for (const auto& x : v) {
    out += out.empty() ? "[" : ",";
    out += Display(x);
  }
  return out.empty() ? "[]" : out + "]";
}

/// Renders `name[column](field, ...)`: empty fields are left out, a set
/// bool prints as its field name, and `has_scalar` shows as the scalar it
/// enables.
class FieldPrinter {
 public:
  explicit FieldPrinter(const OpDesc& d) : d_(d) {}

  std::string Render() const {
    std::string out = Traits(d_.kind).name + subscript_;
    if (parts_.empty()) return out;
    out += "(";
    for (size_t i = 0; i < parts_.size(); ++i) {
      if (i > 0) out += ", ";
      out += parts_[i];
    }
    return out + ")";
  }

  template <typename T>
  void operator()(OpField, const T& v) {
    parts_.push_back(Display(v));
  }
  template <typename T>
  void operator()(OpField, const std::vector<T>& v) {
    if (!v.empty()) parts_.push_back(DisplayList(v));
  }
  void operator()(OpField, const std::map<std::string, std::string>& v) {
    if (!v.empty()) parts_.push_back(DisplayList(v));
  }
  void operator()(OpField f, const std::string& v) {
    if (v.empty()) return;
    if (f == F::kColumn) {
      subscript_ = "[" + v + "]";
    } else {
      parts_.push_back(v);
    }
  }
  void operator()(OpField f, bool v) {
    if (v && f != F::kHasScalar) parts_.push_back(OpFieldName(f));
  }
  void operator()(OpField, const df::Scalar& v) {
    if (d_.has_scalar) parts_.push_back(v.ToString());
  }
  void operator()(OpField, const io::CsvReadOptions& v) {
    Option("usecols", v.usecols);
    if (!v.dtypes.empty()) {
      parts_.push_back("dtypes=" + std::to_string(v.dtypes.size()));
    }
    if (v.nrows != 0) parts_.push_back("nrows=" + Display(v.nrows));
  }
  void operator()(OpField, const io::LfcReadOptions& v) {
    Option("usecols", v.usecols);
    Option("categories", v.categories);
    Option("prune", v.prune);
    if (v.nrows != 0) parts_.push_back("nrows=" + Display(v.nrows));
  }

 private:
  template <typename T>
  void Option(const char* name, const std::vector<T>& v) {
    if (!v.empty()) parts_.push_back(name + ("=" + DisplayList(v)));
  }

  const OpDesc& d_;
  std::string subscript_;
  std::vector<std::string> parts_;
};

}  // namespace

const OpTraits& Traits(OpKind kind) {
  return kTraits[static_cast<size_t>(kind)];
}

const char* OpFieldName(OpField field) {
  return kFieldNames[static_cast<size_t>(field)];
}

std::string OpDesc::ToString() const {
  FieldPrinter printer(*this);
  VisitFields(*this, printer);
  return printer.Render();
}

std::string OpDesc::Fingerprint() const {
  WireWriter w;
  EncodeOpDesc(*this, &w);
  return w.Take();
}

int ExpectedArity(const OpDesc& desc) {
  const OpTraits& traits = Traits(desc.kind);
  if (traits.Is(OpTraits::kScalarOperand) && desc.has_scalar) {
    return traits.arity - 1;
  }
  return traits.arity;
}

void EncodeOpDesc(const OpDesc& desc, WireWriter* w) {
  FieldEncoder(w, nullptr).Encode(desc);
}

bool EncodeOpDesc(const OpDesc& desc, WireWriter* w,
                  const ColumnNameMap& map) {
  FieldEncoder encoder(w, &map);
  encoder.Encode(desc);
  return encoder.ok();
}

Status DecodeOpDesc(WireReader* r, OpDesc* out) {
  return FieldDecoder::Decode(r, out);
}

void EncodeScalar(const df::Scalar& s, WireWriter* w) {
  switch (s.type()) {
    case df::DataType::kNull:
      w->U8(0);
      return;
    case df::DataType::kBool:
      w->U8(1);
      w->U8(s.bool_value() ? 1 : 0);
      return;
    case df::DataType::kInt64:
      w->U8(2);
      w->I64(s.int_value());
      return;
    case df::DataType::kDouble:
      w->U8(3);
      w->F64(s.double_value());
      return;
    case df::DataType::kTimestamp:
      w->U8(4);
      w->I64(s.int_value());
      return;
    case df::DataType::kString:
    case df::DataType::kCategory:
      w->U8(5);
      w->Str(s.string_value());
      return;
  }
  w->U8(0);
}

Status DecodeScalar(WireReader* r, df::Scalar* out) {
  uint8_t tag = 0;
  if (!r->U8(&tag)) return r->Error("scalar tag");
  switch (tag) {
    case 0:
      *out = df::Scalar::Null();
      return Status::OK();
    case 1: {
      uint8_t v = 0;
      if (!r->U8(&v)) return r->Error("bool scalar");
      *out = df::Scalar::Bool(v != 0);
      return Status::OK();
    }
    case 2: {
      int64_t v = 0;
      if (!r->I64(&v)) return r->Error("int scalar");
      *out = df::Scalar::Int(v);
      return Status::OK();
    }
    case 3: {
      double v = 0;
      if (!r->F64(&v)) return r->Error("double scalar");
      *out = df::Scalar::Double(v);
      return Status::OK();
    }
    case 4: {
      int64_t v = 0;
      if (!r->I64(&v)) return r->Error("timestamp scalar");
      *out = df::Scalar::Timestamp(v);
      return Status::OK();
    }
    case 5: {
      std::string v;
      if (!r->Str(&v)) return r->Error("string scalar");
      *out = df::Scalar::String(std::move(v));
      return Status::OK();
    }
    default:
      return Status::IOError("wire: unknown scalar tag " +
                             std::to_string(tag));
  }
}

}  // namespace lafp::exec
