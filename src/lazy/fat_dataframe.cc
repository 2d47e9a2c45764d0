#include "lazy/fat_dataframe.h"

#include <algorithm>

#include "common/macros.h"

namespace lafp::lazy {

using exec::OpDesc;
using exec::OpKind;

Result<FatDataFrame> FatDataFrame::ReadCsv(Session* session,
                                           const std::string& path,
                                           io::CsvReadOptions options) {
  if (io::IsLfcFile(path)) {
    // Transparent dispatch: a read_csv pointed at a converted file scans
    // natively. The usecols/nrows contracts are identical; of the dtype
    // hints only categories apply, as LFC stores every other type.
    io::LfcReadOptions lfc;
    lfc.usecols = std::move(options.usecols);
    lfc.nrows = options.nrows;
    for (const auto& [column, type] : options.dtypes) {
      if (type == df::DataType::kCategory) lfc.categories.push_back(column);
    }
    return ReadLfc(session, path, std::move(lfc));
  }
  OpDesc desc;
  desc.kind = OpKind::kReadCsv;
  desc.path = path;
  desc.csv_options = std::move(options);
  LAFP_ASSIGN_OR_RETURN(TaskNodePtr node,
                        session->AddNode(std::move(desc), {}));
  return FatDataFrame(session, std::move(node));
}

Result<FatDataFrame> FatDataFrame::ReadLfc(Session* session,
                                           const std::string& path,
                                           io::LfcReadOptions options) {
  // One spelling per hint set, so equal reads share a CSE and cache key.
  std::vector<std::string>& categories = options.categories;
  std::sort(categories.begin(), categories.end());
  categories.erase(std::unique(categories.begin(), categories.end()),
                   categories.end());
  OpDesc desc;
  desc.kind = OpKind::kReadLfc;
  desc.path = path;
  desc.lfc_options = std::move(options);
  LAFP_ASSIGN_OR_RETURN(TaskNodePtr node,
                        session->AddNode(std::move(desc), {}));
  return FatDataFrame(session, std::move(node));
}

Result<FatDataFrame> FatDataFrame::Unary(OpDesc desc) const {
  if (!valid()) return Status::Invalid("operation on an empty FatDataFrame");
  LAFP_ASSIGN_OR_RETURN(TaskNodePtr node,
                        session_->AddNode(std::move(desc), {node_}));
  return FatDataFrame(session_, std::move(node));
}

Result<FatDataFrame> FatDataFrame::Binary(OpDesc desc,
                                          const FatDataFrame& rhs) const {
  if (!valid() || !rhs.valid()) {
    return Status::Invalid("operation on an empty FatDataFrame");
  }
  if (rhs.session_ != session_) {
    return Status::Invalid("operands belong to different sessions");
  }
  LAFP_ASSIGN_OR_RETURN(
      TaskNodePtr node,
      session_->AddNode(std::move(desc), {node_, rhs.node_}));
  return FatDataFrame(session_, std::move(node));
}

Result<FatDataFrame> FatDataFrame::Col(const std::string& name) const {
  OpDesc desc;
  desc.kind = OpKind::kGetColumn;
  desc.column = name;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::Select(
    std::vector<std::string> names) const {
  OpDesc desc;
  desc.kind = OpKind::kSelect;
  desc.columns = std::move(names);
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::FilterBy(const FatDataFrame& mask) const {
  OpDesc desc;
  desc.kind = OpKind::kFilter;
  return Binary(std::move(desc), mask);
}

Result<FatDataFrame> FatDataFrame::Head(size_t n) const {
  OpDesc desc;
  desc.kind = OpKind::kHead;
  desc.n = n;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::Drop(
    std::vector<std::string> names) const {
  OpDesc desc;
  desc.kind = OpKind::kDropColumns;
  desc.columns = std::move(names);
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::Rename(
    std::map<std::string, std::string> mapping) const {
  OpDesc desc;
  desc.kind = OpKind::kRename;
  desc.rename = std::move(mapping);
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::CompareTo(df::CompareOp op,
                                             const df::Scalar& rhs) const {
  OpDesc desc;
  desc.kind = OpKind::kCompare;
  desc.compare_op = op;
  desc.has_scalar = true;
  desc.scalar = rhs;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::CompareCol(df::CompareOp op,
                                              const FatDataFrame& rhs) const {
  OpDesc desc;
  desc.kind = OpKind::kCompare;
  desc.compare_op = op;
  return Binary(std::move(desc), rhs);
}

Result<FatDataFrame> FatDataFrame::CompareLazy(df::CompareOp op,
                                               const LazyScalar& rhs) const {
  OpDesc desc;
  desc.kind = OpKind::kCompare;
  desc.compare_op = op;
  return Binary(std::move(desc), FatDataFrame(rhs.session(), rhs.node()));
}

Result<FatDataFrame> FatDataFrame::And(const FatDataFrame& rhs) const {
  OpDesc desc;
  desc.kind = OpKind::kBooleanAnd;
  return Binary(std::move(desc), rhs);
}

Result<FatDataFrame> FatDataFrame::Or(const FatDataFrame& rhs) const {
  OpDesc desc;
  desc.kind = OpKind::kBooleanOr;
  return Binary(std::move(desc), rhs);
}

Result<FatDataFrame> FatDataFrame::Not() const {
  OpDesc desc;
  desc.kind = OpKind::kBooleanNot;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::IsNull() const {
  OpDesc desc;
  desc.kind = OpKind::kIsNull;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::StrContains(
    const std::string& needle) const {
  OpDesc desc;
  desc.kind = OpKind::kStrContains;
  desc.str_arg = needle;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::IsIn(std::vector<df::Scalar> values) const {
  OpDesc desc;
  desc.kind = OpKind::kIsIn;
  desc.scalar_list = std::move(values);
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::Concat(
    Session* session, const std::vector<FatDataFrame>& parts) {
  if (parts.empty()) return Status::Invalid("concat of nothing");
  OpDesc desc;
  desc.kind = OpKind::kConcat;
  std::vector<TaskNodePtr> inputs;
  for (const auto& p : parts) {
    if (!p.valid() || p.session() != session) {
      return Status::Invalid("concat operands must share the session");
    }
    inputs.push_back(p.node());
  }
  LAFP_ASSIGN_OR_RETURN(TaskNodePtr node,
                        session->AddNode(std::move(desc), std::move(inputs)));
  return FatDataFrame(session, std::move(node));
}

Result<FatDataFrame> FatDataFrame::SetCol(const std::string& name,
                                          const FatDataFrame& value) const {
  OpDesc desc;
  desc.kind = OpKind::kSetColumn;
  desc.column = name;
  return Binary(std::move(desc), value);
}

Result<FatDataFrame> FatDataFrame::SetColScalar(
    const std::string& name, const df::Scalar& value) const {
  OpDesc desc;
  desc.kind = OpKind::kSetColumn;
  desc.column = name;
  desc.has_scalar = true;
  desc.scalar = value;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::SetColLazy(const std::string& name,
                                              const LazyScalar& value) const {
  OpDesc desc;
  desc.kind = OpKind::kSetColumn;
  desc.column = name;
  return Binary(std::move(desc),
                FatDataFrame(value.session(), value.node()));
}

Result<FatDataFrame> FatDataFrame::ArithScalar(df::ArithOp op,
                                               const df::Scalar& rhs,
                                               bool scalar_on_left) const {
  OpDesc desc;
  desc.kind = OpKind::kArith;
  desc.arith_op = op;
  desc.has_scalar = true;
  desc.scalar = rhs;
  desc.scalar_on_left = scalar_on_left;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::ArithCol(df::ArithOp op,
                                            const FatDataFrame& rhs) const {
  OpDesc desc;
  desc.kind = OpKind::kArith;
  desc.arith_op = op;
  return Binary(std::move(desc), rhs);
}

Result<FatDataFrame> FatDataFrame::ArithLazy(df::ArithOp op,
                                             const LazyScalar& rhs,
                                             bool scalar_on_left) const {
  OpDesc desc;
  desc.kind = OpKind::kArith;
  desc.arith_op = op;
  if (scalar_on_left) {
    // scalar <op> column: the scalar node comes first as input 0? The
    // kernel expects the column as input 0 in the two-input form, so we
    // encode side via scalar_on_left and keep the column first.
    desc.scalar_on_left = true;
  }
  return Binary(std::move(desc),
                FatDataFrame(rhs.session(), rhs.node()));
}

Result<FatDataFrame> FatDataFrame::Abs() const {
  OpDesc desc;
  desc.kind = OpKind::kAbs;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::Round(int digits) const {
  OpDesc desc;
  desc.kind = OpKind::kRound;
  desc.digits = digits;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::FillNa(const df::Scalar& value) const {
  OpDesc desc;
  desc.kind = OpKind::kFillNa;
  desc.has_scalar = true;
  desc.scalar = value;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::DropNa() const {
  OpDesc desc;
  desc.kind = OpKind::kDropNa;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::AsType(df::DataType type) const {
  OpDesc desc;
  desc.kind = OpKind::kAsType;
  desc.dtype = type;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::ToDatetime() const {
  OpDesc desc;
  desc.kind = OpKind::kToDatetime;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::Dt(df::DtField field) const {
  OpDesc desc;
  desc.kind = OpKind::kDtAccessor;
  desc.dt_field = field;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::GroupByAgg(
    std::vector<std::string> keys, std::vector<df::AggSpec> aggs) const {
  OpDesc desc;
  desc.kind = OpKind::kGroupByAgg;
  desc.columns = std::move(keys);
  desc.aggs = std::move(aggs);
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::Merge(const FatDataFrame& right,
                                         std::vector<std::string> on,
                                         df::JoinType how) const {
  OpDesc desc;
  desc.kind = OpKind::kMerge;
  desc.columns = std::move(on);
  desc.join_type = how;
  return Binary(std::move(desc), right);
}

Result<FatDataFrame> FatDataFrame::SortValues(
    std::vector<std::string> by, std::vector<bool> ascending) const {
  OpDesc desc;
  desc.kind = OpKind::kSortValues;
  desc.columns = std::move(by);
  desc.ascending = std::move(ascending);
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::DropDuplicates(
    std::vector<std::string> subset) const {
  OpDesc desc;
  desc.kind = OpKind::kDropDuplicates;
  desc.columns = std::move(subset);
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::UniqueValues() const {
  OpDesc desc;
  desc.kind = OpKind::kUnique;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::ValueCounts() const {
  OpDesc desc;
  desc.kind = OpKind::kValueCounts;
  return Unary(std::move(desc));
}

Result<FatDataFrame> FatDataFrame::Describe() const {
  OpDesc desc;
  desc.kind = OpKind::kDescribe;
  return Unary(std::move(desc));
}

Result<LazyScalar> FatDataFrame::Reduce(df::AggFunc func) const {
  OpDesc desc;
  desc.kind = OpKind::kReduce;
  desc.agg_func = func;
  LAFP_ASSIGN_OR_RETURN(FatDataFrame out, Unary(std::move(desc)));
  return LazyScalar(out.session(), out.node());
}

Result<LazyScalar> FatDataFrame::Len() const {
  OpDesc desc;
  desc.kind = OpKind::kLen;
  LAFP_ASSIGN_OR_RETURN(FatDataFrame out, Unary(std::move(desc)));
  return LazyScalar(out.session(), out.node());
}

Result<exec::EagerValue> FatDataFrame::Compute(
    const std::vector<FatDataFrame>& live_df) const {
  if (!valid()) return Status::Invalid("compute on an empty FatDataFrame");
  std::vector<TaskNodePtr> live;
  live.reserve(live_df.size());
  for (const auto& f : live_df) {
    if (f.valid()) live.push_back(f.node());
  }
  return session_->Compute(node_, live);
}

Result<df::DataFrame> FatDataFrame::ToEager(
    const std::vector<FatDataFrame>& live_df) const {
  LAFP_ASSIGN_OR_RETURN(exec::EagerValue v, Compute(live_df));
  if (v.is_scalar) {
    return Status::TypeError("value is a scalar, not a dataframe");
  }
  return v.frame;
}

std::string FatDataFrame::DebugDot() const {
  if (!valid()) return "digraph lafp {}\n";
  return TaskGraph::ToDot({node_});
}

Result<df::Scalar> LazyScalar::Value() const {
  if (!valid()) return Status::Invalid("value of an empty LazyScalar");
  // A scalar an earlier round computed (`n = len(df).compute(...)`) needs
  // no round of its own, unless prints wait to be emitted before it. A
  // lazy backend holds it on its persisted plan node.
  exec::EagerValue v;
  if (node_->has_result() && !session_->has_pending_prints()) {
    LAFP_ASSIGN_OR_RETURN(v, session_->backend()->Materialize(node_->result));
  } else {
    LAFP_ASSIGN_OR_RETURN(v, session_->Compute(node_, {}));
  }
  if (!v.is_scalar) {
    return Status::TypeError("lazy scalar evaluated to a frame");
  }
  return v.scalar;
}

}  // namespace lafp::lazy
