#include "exec/eager_ops.h"

#include <sstream>

#include "common/macros.h"

namespace lafp::exec {

using df::Column;
using df::ColumnPtr;
using df::DataFrame;

Result<ColumnPtr> EagerValue::AsColumn() const {
  if (is_scalar) return Status::TypeError("expected a series, got a scalar");
  if (frame.num_columns() != 1) {
    return Status::TypeError("expected a series (1 column), got " +
                             std::to_string(frame.num_columns()));
  }
  return frame.column(size_t{0});
}

std::string EagerValue::ToDisplayString() const {
  if (is_scalar) return scalar.ToString();
  return frame.ToString(10);
}

namespace {

Status CheckArity(const OpDesc& desc, const std::vector<EagerValue>& inputs) {
  int expected = ExpectedArity(desc);
  if (expected >= 0 && static_cast<int>(inputs.size()) != expected) {
    return Status::Invalid(std::string("op ") + Traits(desc.kind).name +
                           " expects " + std::to_string(expected) +
                           " inputs, got " + std::to_string(inputs.size()));
  }
  return Status::OK();
}

/// Wrap a column as a series (one-column frame) named `name`.
Result<EagerValue> SeriesOf(ColumnPtr col, const std::string& name) {
  LAFP_ASSIGN_OR_RETURN(DataFrame frame,
                        DataFrame::Make({name}, {std::move(col)}));
  return EagerValue::Frame(std::move(frame));
}

std::string SeriesName(const EagerValue& v) {
  if (v.is_scalar || v.frame.num_columns() != 1) return "value";
  return v.frame.names()[0];
}

}  // namespace

Result<EagerValue> ExecuteEagerOp(const OpDesc& desc,
                                  const std::vector<EagerValue>& inputs,
                                  MemoryTracker* tracker) {
  LAFP_RETURN_NOT_OK(CheckArity(desc, inputs));
  switch (desc.kind) {
    case OpKind::kReadCsv: {
      LAFP_ASSIGN_OR_RETURN(
          DataFrame frame, io::ReadCsv(desc.path, desc.csv_options, tracker));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kReadLfc: {
      LAFP_ASSIGN_OR_RETURN(
          DataFrame frame,
          io::ReadLfcFile(desc.path, desc.lfc_options, tracker));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kSelect: {
      LAFP_ASSIGN_OR_RETURN(DataFrame frame,
                            inputs[0].frame.Select(desc.columns));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kGetColumn: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col,
                            inputs[0].frame.column(desc.column));
      return SeriesOf(std::move(col), desc.column);
    }
    case OpKind::kFilter: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr mask, inputs[1].AsColumn());
      LAFP_ASSIGN_OR_RETURN(DataFrame frame,
                            df::Filter(inputs[0].frame, *mask));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kCompare: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr lhs, inputs[0].AsColumn());
      ColumnPtr out;
      if (desc.has_scalar) {
        LAFP_ASSIGN_OR_RETURN(out,
                              df::Compare(*lhs, desc.compare_op, desc.scalar));
      } else if (inputs[1].is_scalar) {
        // Runtime scalar (e.g. a lazily computed mean) as the rhs.
        LAFP_ASSIGN_OR_RETURN(
            out, df::Compare(*lhs, desc.compare_op, inputs[1].scalar));
      } else {
        LAFP_ASSIGN_OR_RETURN(ColumnPtr rhs, inputs[1].AsColumn());
        LAFP_ASSIGN_OR_RETURN(
            out, df::CompareColumns(*lhs, desc.compare_op, *rhs));
      }
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kBooleanAnd:
    case OpKind::kBooleanOr: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr a, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr b, inputs[1].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out,
                            desc.kind == OpKind::kBooleanAnd
                                ? df::BooleanAnd(*a, *b)
                                : df::BooleanOr(*a, *b));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kBooleanNot: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr a, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out, df::BooleanNot(*a));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kIsNull: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr a, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out, df::IsNull(*a));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kStrContains: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr a, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out, df::StrContains(*a, desc.str_arg));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kIsIn: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr a, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out, df::IsIn(*a, desc.scalar_list));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kConcat: {
      std::vector<DataFrame> frames;
      for (const auto& in : inputs) {
        if (in.is_scalar) {
          return Status::TypeError("concat expects dataframes");
        }
        frames.push_back(in.frame);
      }
      LAFP_ASSIGN_OR_RETURN(DataFrame out, df::Concat(frames));
      return EagerValue::Frame(std::move(out));
    }
    case OpKind::kSetColumn: {
      ColumnPtr value;
      if (desc.has_scalar) {
        LAFP_ASSIGN_OR_RETURN(
            value, Column::MakeConstant(desc.scalar,
                                        inputs[0].frame.num_rows(), tracker));
      } else if (inputs[1].is_scalar) {
        LAFP_ASSIGN_OR_RETURN(
            value, Column::MakeConstant(inputs[1].scalar,
                                        inputs[0].frame.num_rows(), tracker));
      } else {
        LAFP_ASSIGN_OR_RETURN(value, inputs[1].AsColumn());
      }
      LAFP_ASSIGN_OR_RETURN(
          DataFrame frame,
          inputs[0].frame.WithColumn(desc.column, std::move(value)));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kDropColumns: {
      LAFP_ASSIGN_OR_RETURN(DataFrame frame,
                            inputs[0].frame.Drop(desc.columns));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kRename: {
      LAFP_ASSIGN_OR_RETURN(DataFrame frame,
                            inputs[0].frame.Rename(desc.rename));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kArith: {
      if (inputs[0].is_scalar &&
          (desc.has_scalar || inputs.size() < 2 || inputs[1].is_scalar)) {
        return Status::TypeError("scalar-scalar arithmetic handled upstream");
      }
      if (desc.has_scalar) {
        LAFP_ASSIGN_OR_RETURN(ColumnPtr col, inputs[0].AsColumn());
        LAFP_ASSIGN_OR_RETURN(
            ColumnPtr out,
            desc.scalar_on_left
                ? df::ArithScalarLeft(desc.scalar, desc.arith_op, *col)
                : df::Arith(*col, desc.arith_op, desc.scalar));
        return SeriesOf(std::move(out), SeriesName(inputs[0]));
      }
      // Column-column, or a scalar that arrived as a runtime input.
      if (inputs[0].is_scalar) {
        LAFP_ASSIGN_OR_RETURN(ColumnPtr rhs, inputs[1].AsColumn());
        LAFP_ASSIGN_OR_RETURN(
            ColumnPtr out,
            df::ArithScalarLeft(inputs[0].scalar, desc.arith_op, *rhs));
        return SeriesOf(std::move(out), SeriesName(inputs[1]));
      }
      if (inputs[1].is_scalar) {
        LAFP_ASSIGN_OR_RETURN(ColumnPtr lhs, inputs[0].AsColumn());
        LAFP_ASSIGN_OR_RETURN(
            ColumnPtr out,
            desc.scalar_on_left
                ? df::ArithScalarLeft(inputs[1].scalar, desc.arith_op, *lhs)
                : df::Arith(*lhs, desc.arith_op, inputs[1].scalar));
        return SeriesOf(std::move(out), SeriesName(inputs[0]));
      }
      LAFP_ASSIGN_OR_RETURN(ColumnPtr lhs, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr rhs, inputs[1].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out,
                            df::ArithColumns(*lhs, desc.arith_op, *rhs));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kAbs: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out, df::Abs(*col));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kRound: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out, df::Round(*col, desc.digits));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kFillNa: {
      LAFP_ASSIGN_OR_RETURN(DataFrame frame,
                            df::FillNa(inputs[0].frame, desc.scalar));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kDropNa: {
      LAFP_ASSIGN_OR_RETURN(DataFrame frame, df::DropNa(inputs[0].frame));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kAsType: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out, df::AsType(*col, desc.dtype));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kToDatetime: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out, df::ToDatetime(*col));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kDtAccessor: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out,
                            df::DtAccessor(*col, desc.dt_field));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kGroupByAgg: {
      LAFP_ASSIGN_OR_RETURN(
          DataFrame frame,
          df::GroupByAgg(inputs[0].frame, desc.columns, desc.aggs));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kReduce: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(df::Scalar out, df::Reduce(*col, desc.agg_func));
      return EagerValue::FromScalar(std::move(out));
    }
    case OpKind::kMerge: {
      LAFP_ASSIGN_OR_RETURN(
          DataFrame frame, df::Merge(inputs[0].frame, inputs[1].frame,
                                     desc.columns, desc.join_type));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kSortValues: {
      LAFP_ASSIGN_OR_RETURN(
          DataFrame frame,
          df::SortValues(inputs[0].frame, desc.columns, desc.ascending));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kTopK: {
      LAFP_ASSIGN_OR_RETURN(DataFrame frame,
                            df::TopK(inputs[0].frame, desc.columns,
                                     desc.ascending, desc.n));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kDropDuplicates: {
      LAFP_ASSIGN_OR_RETURN(
          DataFrame frame,
          df::DropDuplicates(inputs[0].frame, desc.columns));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kUnique: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(ColumnPtr out, df::Unique(*col));
      return SeriesOf(std::move(out), SeriesName(inputs[0]));
    }
    case OpKind::kValueCounts: {
      LAFP_ASSIGN_OR_RETURN(ColumnPtr col, inputs[0].AsColumn());
      LAFP_ASSIGN_OR_RETURN(
          DataFrame frame, df::ValueCounts(*col, SeriesName(inputs[0])));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kDescribe: {
      LAFP_ASSIGN_OR_RETURN(DataFrame frame, df::Describe(inputs[0].frame));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kHead: {
      LAFP_ASSIGN_OR_RETURN(DataFrame frame, df::Head(inputs[0].frame, desc.n));
      return EagerValue::Frame(std::move(frame));
    }
    case OpKind::kLen: {
      if (inputs[0].is_scalar) {
        return Status::TypeError("len() of a scalar");
      }
      return EagerValue::FromScalar(
          df::Scalar::Int(static_cast<int64_t>(inputs[0].frame.num_rows())));
    }
    case OpKind::kPrint:
      return Status::Invalid("print is executed by the session, not a kernel");
  }
  return Status::NotImplemented(std::string("op ") + Traits(desc.kind).name);
}

}  // namespace lafp::exec
