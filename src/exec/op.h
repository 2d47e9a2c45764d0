#ifndef LAFP_EXEC_OP_H_
#define LAFP_EXEC_OP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/wire.h"
#include "dataframe/ops.h"
#include "io/columnar.h"
#include "io/csv.h"

namespace lafp::exec {

/// The operator vocabulary of the LaFP task graph (paper §2.5). Each node
/// of the graph is one OpDesc plus edges to its inputs. Every kind has one
/// row in the operator schema (Traits below).
enum class OpKind : int {
  kReadCsv = 0,     // leaf; path + CsvReadOptions
  kSelect,          // df[["a","b"]]         (frame -> frame)
  kGetColumn,       // df["a"] / df.a        (frame -> series)
  kFilter,          // df[mask]              (frame, mask -> frame)
  kCompare,         // col <op> scalar|col   (series[,series] -> bool series)
  kBooleanAnd,      // mask & mask
  kBooleanOr,       // mask | mask
  kBooleanNot,      // ~mask
  kIsNull,          // col.isna()
  kStrContains,     // col.str.contains(s)
  kSetColumn,       // df["x"] = series|scalar (frame[,series] -> frame)
  kDropColumns,     // df.drop(columns=[...])
  kRename,          // df.rename(columns={...})
  kArith,           // series <op> scalar|series
  kAbs,             // series.abs()
  kRound,           // series.round(d)
  kFillNa,          // df/series.fillna(v)
  kDropNa,          // df.dropna()
  kAsType,          // series.astype(t)
  kToDatetime,      // to_datetime(series)
  kDtAccessor,      // series.dt.<field>
  kGroupByAgg,      // df.groupby(keys).agg(...)
  kReduce,          // series.sum()/mean()/... (series -> scalar)
  kMerge,           // merge(left, right, on=...)
  kSortValues,      // df.sort_values(by=...)
  kDropDuplicates,  // df.drop_duplicates(subset=...)
  kUnique,          // series.unique()
  kValueCounts,     // series.value_counts()
  kDescribe,        // df.describe()
  kHead,            // df.head(n)
  kPrint,           // lazy print (paper §3.3); side effect, returns none
  kLen,             // len(df) -> scalar (lazy integer)
  kIsIn,            // col.isin([...]) -> bool series
  kConcat,          // pd.concat([a, b, ...]) (variadic)
  kReadLfc,         // leaf; path + LfcReadOptions (native columnar scan)
  kTopK,            // head(sort_values(...)), as the optimizer writes it
  kMaterialized,    // leaf carrying a cached result (cache splice); the
                    // payload lives on the TaskNode, never in OpDesc
};

constexpr OpKind kLastOpKind = OpKind::kMaterialized;

/// The OpDesc fields, in declaration order. A kind's trait row names the
/// fields it reads; only those are printed, keyed and sent over the wire.
enum class OpField : uint8_t {
  kPath,
  kCsvOptions,
  kLfcOptions,
  kColumns,
  kColumn,
  kCompareOp,
  kArithOp,
  kScalarOnLeft,
  kHasScalar,
  kScalar,
  kAggs,
  kAggFunc,
  kAscending,
  kJoinType,
  kDtype,
  kDtField,
  kN,
  kRename,
  kStrArg,
  kScalarList,
  kDigits,
};

const char* OpFieldName(OpField field);

/// What a frame-to-frame operator does to its input's columns: condition
/// (1) of predicate pushdown (§3.2), which sinks a filter only below ops
/// whose effect is known.
enum class ColumnEffect : uint8_t {
  kOpaque,     // unknown, or not frame-to-frame: pushdown stops here
  kPreserves,  // every column it passes on keeps its values
  kWrites,     // creates or overwrites the column named by `column`
  kRenames,    // renames columns per `rename`; values unchanged
};

/// How an operator's output column names follow from its inputs: the
/// schema rule of the cross-query plan fingerprint (lazy/plan_fingerprint).
enum class OutputNames : uint8_t {
  kNone,    // nothing cacheable (print, spliced payloads)
  kCustom,  // op-specific (scans, select, get/set/drop, rename, groupby)
  kInput,   // the primary input's columns, unchanged
  kSeries,  // one column, named after the first column-valued input
  kScalar,  // a scalar
  kEngine,  // engine-derived names (join suffixes, unions, stats rows)
};

/// One row of the operator schema: what generic code (printing, keying,
/// the wire codec, the partitioned backends, the optimizer and the plan
/// fingerprint) knows about a kind. A new operator is one row plus its
/// kernel in eager_ops.cc.
struct OpTraits {
  enum Flag : uint32_t {
    kMap = 1u << 0,               // applies independently per partition
    kRowwiseInvariant = 1u << 1,  // filtering its input first cannot change
                                  // the output on surviving rows (§3.2 (2))
    kScalarResult = 1u << 2,      // produces a scalar, not a frame
    kScalarOperand = 1u << 3,     // `has_scalar` replaces the second input
  };

  OpKind kind;
  const char* name;
  int arity;  // dataframe inputs; -1 = variadic
  uint32_t flags;
  ColumnEffect effect;
  OutputNames names;
  uint32_t fields;  // bit i set: OpField i is meaningful for this kind

  bool Is(Flag flag) const { return (flags & flag) != 0; }
  bool Has(OpField field) const {
    return ((fields >> static_cast<int>(field)) & 1u) != 0;
  }
};

const OpTraits& Traits(OpKind kind);

/// Full description of one operator instance. A plain struct: only the
/// fields the kind's trait row names are meaningful (documented per field).
struct OpDesc {
  OpKind kind = OpKind::kReadCsv;

  std::string path;                 // kReadCsv / kReadLfc
  io::CsvReadOptions csv_options;   // kReadCsv (usecols/dtypes carry the
                                    // column-selection & metadata rewrites)
  io::LfcReadOptions lfc_options;   // kReadLfc (usecols/nrows mirror the
                                    // CSV knobs; prune holds zone-map
                                    // predicates attached by the optimizer)

  std::vector<std::string> columns;  // kSelect / kDropColumns /
                                     // kGroupByAgg keys / kMerge on /
                                     // kSortValues, kTopK by /
                                     // kDropDuplicates subset
  std::string column;                // kGetColumn / kSetColumn target

  df::CompareOp compare_op = df::CompareOp::kEq;  // kCompare
  df::ArithOp arith_op = df::ArithOp::kAdd;       // kArith
  bool scalar_on_left = false;                    // kArith: scalar <op> col
  bool has_scalar = false;     // kCompare/kArith/kSetColumn/kFillNa use
                               // `scalar` instead of a second input
  df::Scalar scalar;           // see has_scalar

  std::vector<df::AggSpec> aggs;       // kGroupByAgg
  df::AggFunc agg_func = df::AggFunc::kSum;  // kReduce
  std::vector<bool> ascending;         // kSortValues / kTopK
  df::JoinType join_type = df::JoinType::kInner;  // kMerge
  df::DataType dtype = df::DataType::kString;     // kAsType
  df::DtField dt_field = df::DtField::kDayOfWeek; // kDtAccessor
  size_t n = 5;                        // kHead / kTopK
  std::map<std::string, std::string> rename;  // kRename
  std::string str_arg;                 // kStrContains needle
  std::vector<df::Scalar> scalar_list;  // kIsIn membership values
  int digits = 0;                      // kRound

  /// Human-readable summary for debug dumps, DOT output and execution
  /// reports: the kind name, `[column]`, then the other meaningful fields.
  std::string ToString() const;

  /// Structural key for common-subexpression detection (§3.5): the
  /// operator codec's bytes (EncodeOpDesc), so two nodes with equal keys
  /// and equal input nodes compute the same value.
  std::string Fingerprint() const;
};

/// The one field visitor: calls `v(field, value)` for each field the
/// kind's trait row names, in OpField order. `Desc` is OpDesc or const
/// OpDesc; printing, keying and the wire codec all walk it.
template <typename Desc, typename Visitor>
void VisitFields(Desc& d, Visitor&& v) {
  const OpTraits& traits = Traits(d.kind);
  auto field = [&](OpField f, auto& value) {
    if (traits.Has(f)) v(f, value);
  };
  field(OpField::kPath, d.path);
  field(OpField::kCsvOptions, d.csv_options);
  field(OpField::kLfcOptions, d.lfc_options);
  field(OpField::kColumns, d.columns);
  field(OpField::kColumn, d.column);
  field(OpField::kCompareOp, d.compare_op);
  field(OpField::kArithOp, d.arith_op);
  field(OpField::kScalarOnLeft, d.scalar_on_left);
  field(OpField::kHasScalar, d.has_scalar);
  field(OpField::kScalar, d.scalar);
  field(OpField::kAggs, d.aggs);
  field(OpField::kAggFunc, d.agg_func);
  field(OpField::kAscending, d.ascending);
  field(OpField::kJoinType, d.join_type);
  field(OpField::kDtype, d.dtype);
  field(OpField::kDtField, d.dt_field);
  field(OpField::kN, d.n);
  field(OpField::kRename, d.rename);
  field(OpField::kStrArg, d.str_arg);
  field(OpField::kScalarList, d.scalar_list);
  field(OpField::kDigits, d.digits);
}

/// Number of dataframe inputs `desc` consumes (-1 = variadic).
int ExpectedArity(const OpDesc& desc);

/// Operator codec: the kind, then each meaningful field in OpField order.
/// Byte-exact and reversible; it is both the shard plan-fragment format
/// and the CSE key.
void EncodeOpDesc(const OpDesc& desc, WireWriter* w);

/// Resolves an input-column reference to the name to encode, or nullptr
/// when the reference cannot be resolved.
using ColumnNameMap =
    std::function<const std::string*(const std::string& name)>;

/// EncodeOpDesc with every input-column reference (`columns`, `column`
/// and aggregate source columns) replaced by `map(name)`. Returns false,
/// leaving `w` partially written, as soon as `map` returns nullptr.
bool EncodeOpDesc(const OpDesc& desc, WireWriter* w, const ColumnNameMap& map);

/// Decodes one EncodeOpDesc fragment. Truncation, an unknown kind or an
/// out-of-range enum is a clean IOError.
Status DecodeOpDesc(WireReader* r, OpDesc* out);

/// Scalar codec: u8 type tag + value.
void EncodeScalar(const df::Scalar& s, WireWriter* w);
Status DecodeScalar(WireReader* r, df::Scalar* out);

}  // namespace lafp::exec

#endif  // LAFP_EXEC_OP_H_
