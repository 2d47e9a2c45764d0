#include "exec/fused.h"

#include <cmath>
#include <cstring>

#include "common/macros.h"
#include "dataframe/arith_semantics.h"
#include "dataframe/kernel_context.h"

namespace lafp::exec {

namespace {

using df::Column;
using df::ColumnPtr;
using df::DataFrame;
using df::DataType;

/// One resolved per-element transform of the fused pass. The OpDesc steps
/// are lowered to these at plan time so the morsel loop carries no type
/// dispatch, no Scalar unboxing, and no validity branching beyond what the
/// semantics require.
struct MicroOp {
  enum Kind {
    kIntArith,    // int64 lane: v = ApplyArithInt(op, v, ir)
    kDblArithR,   // widen -> double lane: v = ApplyArith(op, v, d); null->NaN
    kDblArithL,   // widen -> double lane: v = ApplyArith(op, d, v); null->NaN
    kNullArith,   // arith with a null scalar: all-NaN, validity all-0
    kCmpDbl,      // widen -> bool lane: ApplyCmp(v, d); NaN/null -> 0
    kCmpNull,     // compare with null scalar: kNe -> validity, else all-0
    kAbsInt,      // int64 lane: WrapAbs, all rows
    kAbsDbl,      // double lane: fabs, all rows
    kRoundDbl,    // double lane: round(v*scale)/scale, all rows
    kIdentity,    // round on int64: no-op copy
    kNotBool,     // bool lane: (valid && v) ? 0 : 1; clears validity
    kIsNull,      // any lane -> bool: !valid || (double && isnan)
  };
  Kind kind = kIdentity;
  df::ArithOp aop = df::ArithOp::kAdd;
  df::CompareOp cop = df::CompareOp::kEq;
  double d = 0.0;      // kDblArith*/kCmpDbl operand, kRoundDbl scale
  int64_t ir = 0;      // kIntArith operand
  bool ne = false;     // kCmpNull: true for !=
};

/// Value-type/validity state the chain is in before or after a micro-op —
/// a pure function of the step descriptors and the input column's
/// metadata, never of row data.
struct LaneState {
  DataType dtype = DataType::kInt64;  // kInt64 / kTimestamp / kDouble / kBool
  bool has_vvec = false;  // would the unfused column carry a validity vector?
};

/// Lower the step list to micro-ops. Returns false when some step cannot
/// run on lanes (string data, non-numeric scalars, type errors mid-chain):
/// the caller then composes the ordinary kernels instead, which reproduces
/// the unfused behavior — including its error — exactly.
bool PlanChain(const std::vector<OpDesc>& steps, LaneState state,
               std::vector<MicroOp>* plan, LaneState* final_state) {
  plan->clear();
  if (state.dtype != DataType::kInt64 && state.dtype != DataType::kDouble &&
      state.dtype != DataType::kBool && state.dtype != DataType::kTimestamp) {
    return false;
  }
  for (const OpDesc& s : steps) {
    MicroOp m;
    switch (s.kind) {
      case OpKind::kArith: {
        if (!s.has_scalar) return false;
        if (s.scalar.is_null()) {
          m.kind = MicroOp::kNullArith;
          state = {DataType::kDouble, true};
          break;
        }
        auto rd = s.scalar.AsDouble();
        if (!rd.ok()) return false;  // non-numeric scalar: TypeError path
        m.aop = s.arith_op;
        if (s.scalar_on_left) {
          // ArithScalarLeft always takes the double path.
          m.kind = MicroOp::kDblArithL;
          m.d = *rd;
          state.dtype = DataType::kDouble;
        } else if (state.dtype == DataType::kInt64 &&
                   s.scalar.type() == DataType::kInt64 &&
                   s.arith_op != df::ArithOp::kDiv) {
          m.kind = MicroOp::kIntArith;
          m.ir = s.scalar.int_value();
          // int fast path: dtype and validity pass through unchanged.
        } else {
          m.kind = MicroOp::kDblArithR;
          m.d = *rd;
          state.dtype = DataType::kDouble;
        }
        break;
      }
      case OpKind::kCompare: {
        if (!s.has_scalar) return false;
        if (s.scalar.is_null()) {
          m.kind = MicroOp::kCmpNull;
          m.ne = s.compare_op == df::CompareOp::kNe;
        } else {
          // The ts-vs-string parse path and string needles are not
          // lane-representable; the fusion pass never emits them, and the
          // fallback handles them if one slips through.
          auto rd = s.scalar.AsDouble();
          if (!rd.ok()) return false;
          if (state.dtype == DataType::kTimestamp &&
              s.scalar.type() == DataType::kString) {
            return false;
          }
          m.kind = MicroOp::kCmpDbl;
          m.cop = s.compare_op;
          m.d = *rd;
        }
        state = {DataType::kBool, false};
        break;
      }
      case OpKind::kAbs:
        if (state.dtype == DataType::kInt64) {
          m.kind = MicroOp::kAbsInt;
        } else if (state.dtype == DataType::kDouble) {
          m.kind = MicroOp::kAbsDbl;
        } else {
          return false;  // abs on bool/timestamp: TypeError
        }
        break;
      case OpKind::kRound:
        if (state.dtype == DataType::kInt64) {
          m.kind = MicroOp::kIdentity;
        } else if (state.dtype == DataType::kDouble) {
          m.kind = MicroOp::kRoundDbl;
          m.d = std::pow(10.0, s.digits);
        } else {
          return false;  // round on bool/timestamp: TypeError
        }
        break;
      case OpKind::kBooleanNot:
        if (state.dtype != DataType::kBool) return false;
        m.kind = MicroOp::kNotBool;
        state.has_vvec = false;
        break;
      case OpKind::kIsNull:
        m.kind = MicroOp::kIsNull;
        state = {DataType::kBool, false};
        break;
      default:
        return false;
    }
    plan->push_back(m);
  }
  *final_state = state;
  return true;
}

/// Morsel-local lane buffers. Only the lane matching the current dtype is
/// live; transitions (widening, compares) move values across lanes.
struct Lanes {
  std::vector<int64_t> i;
  std::vector<double> d;
  std::vector<uint8_t> b;
  std::vector<uint8_t> v;  // validity bytes; live iff state.has_vvec
};

/// Widen the live lane into the double lane for rows [0, m). Matches
/// Column::NumericAt on stored values (validity handled by the caller).
void WidenLanes(Lanes* L, DataType from, size_t m) {
  if (from == DataType::kDouble) return;
  L->d.resize(m);
  if (from == DataType::kBool) {
    for (size_t k = 0; k < m; ++k) L->d[k] = L->b[k] != 0 ? 1.0 : 0.0;
  } else {
    for (size_t k = 0; k < m; ++k) L->d[k] = static_cast<double>(L->i[k]);
  }
}

/// Apply one micro-op to the lanes over rows [0, m), updating `state`.
/// Each body is a tight branch-free loop (the same shapes as the
/// vectorized kernels), so fusing does not cost vectorization.
void ApplyMicroOp(const MicroOp& m, Lanes* L, LaneState* state, size_t m_rows) {
  const size_t n = m_rows;
  const uint8_t* valid = state->has_vvec ? L->v.data() : nullptr;
  switch (m.kind) {
    case MicroOp::kIntArith:
      for (size_t k = 0; k < n; ++k) {
        L->i[k] = df::ApplyArithInt(m.aop, L->i[k], m.ir);
      }
      break;
    case MicroOp::kDblArithR: {
      WidenLanes(L, state->dtype, n);
      double* d = L->d.data();
      switch (m.aop) {
        case df::ArithOp::kAdd:
          for (size_t k = 0; k < n; ++k) d[k] = d[k] + m.d;
          break;
        case df::ArithOp::kSub:
          for (size_t k = 0; k < n; ++k) d[k] = d[k] - m.d;
          break;
        case df::ArithOp::kMul:
          for (size_t k = 0; k < n; ++k) d[k] = d[k] * m.d;
          break;
        case df::ArithOp::kDiv:
          for (size_t k = 0; k < n; ++k) d[k] = d[k] / m.d;
          break;
        case df::ArithOp::kMod:
          for (size_t k = 0; k < n; ++k) d[k] = df::FlooredModDouble(d[k], m.d);
          break;
      }
      if (valid != nullptr) {
        const double nan = std::nan("");
        for (size_t k = 0; k < n; ++k) d[k] = valid[k] != 0 ? d[k] : nan;
      }
      state->dtype = DataType::kDouble;
      break;
    }
    case MicroOp::kDblArithL: {
      WidenLanes(L, state->dtype, n);
      double* d = L->d.data();
      for (size_t k = 0; k < n; ++k) d[k] = df::ApplyArith(m.aop, m.d, d[k]);
      if (valid != nullptr) {
        const double nan = std::nan("");
        for (size_t k = 0; k < n; ++k) d[k] = valid[k] != 0 ? d[k] : nan;
      }
      state->dtype = DataType::kDouble;
      break;
    }
    case MicroOp::kNullArith:
      L->d.assign(n, std::nan(""));
      L->v.assign(n, 0);
      *state = {DataType::kDouble, true};
      break;
    case MicroOp::kCmpDbl: {
      WidenLanes(L, state->dtype, n);
      L->b.resize(n);
      const double* d = L->d.data();
      uint8_t* b = L->b.data();
      switch (m.cop) {
        case df::CompareOp::kEq:
          for (size_t k = 0; k < n; ++k) b[k] = d[k] == m.d ? 1 : 0;
          break;
        case df::CompareOp::kNe:
          // NaN rows compare false even for != (pandas skips NaN).
          for (size_t k = 0; k < n; ++k) {
            b[k] = (d[k] != m.d) & (d[k] == d[k]) ? 1 : 0;
          }
          break;
        case df::CompareOp::kLt:
          for (size_t k = 0; k < n; ++k) b[k] = d[k] < m.d ? 1 : 0;
          break;
        case df::CompareOp::kLe:
          for (size_t k = 0; k < n; ++k) b[k] = d[k] <= m.d ? 1 : 0;
          break;
        case df::CompareOp::kGt:
          for (size_t k = 0; k < n; ++k) b[k] = d[k] > m.d ? 1 : 0;
          break;
        case df::CompareOp::kGe:
          for (size_t k = 0; k < n; ++k) b[k] = d[k] >= m.d ? 1 : 0;
          break;
      }
      if (valid != nullptr) {
        for (size_t k = 0; k < n; ++k) b[k] = valid[k] != 0 ? b[k] : 0;
      }
      *state = {DataType::kBool, false};
      break;
    }
    case MicroOp::kCmpNull: {
      L->b.assign(n, 0);
      if (m.ne) {
        if (valid == nullptr) {
          std::memset(L->b.data(), 1, n);
        } else {
          for (size_t k = 0; k < n; ++k) L->b[k] = valid[k] != 0 ? 1 : 0;
        }
      }
      *state = {DataType::kBool, false};
      break;
    }
    case MicroOp::kAbsInt:
      for (size_t k = 0; k < n; ++k) L->i[k] = df::WrapAbs(L->i[k]);
      break;
    case MicroOp::kAbsDbl:
      for (size_t k = 0; k < n; ++k) L->d[k] = std::fabs(L->d[k]);
      break;
    case MicroOp::kRoundDbl:
      // Rounds stored values at every row (the unfused kernel ignores
      // validity here too).
      for (size_t k = 0; k < n; ++k) {
        L->d[k] = std::round(L->d[k] * m.d) / m.d;
      }
      break;
    case MicroOp::kIdentity:
      break;
    case MicroOp::kNotBool:
      if (valid == nullptr) {
        for (size_t k = 0; k < n; ++k) L->b[k] = L->b[k] != 0 ? 0 : 1;
      } else {
        for (size_t k = 0; k < n; ++k) {
          L->b[k] = (valid[k] != 0) & (L->b[k] != 0) ? 0 : 1;
        }
      }
      state->has_vvec = false;
      break;
    case MicroOp::kIsNull: {
      L->b.resize(n);
      if (state->dtype == DataType::kDouble) {
        const double* d = L->d.data();
        for (size_t k = 0; k < n; ++k) {
          L->b[k] =
              ((valid != nullptr && valid[k] == 0) | (d[k] != d[k])) ? 1 : 0;
        }
      } else if (valid == nullptr) {
        std::memset(L->b.data(), 0, n);
      } else {
        for (size_t k = 0; k < n; ++k) L->b[k] = valid[k] != 0 ? 0 : 1;
      }
      *state = {DataType::kBool, false};
      break;
    }
  }
}

/// Run the fused chain over `src` (already filtered when a mask variant):
/// one morsel pass, lanes in, final column out.
Result<ColumnPtr> RunFusedChain(const Column& src,
                                const std::vector<MicroOp>& plan,
                                const LaneState& init,
                                const LaneState& fin,
                                MemoryTracker* tracker) {
  const size_t n = src.size();
  // Full-length output storage for the final lane.
  std::vector<int64_t> out_i;
  std::vector<double> out_d;
  std::vector<uint8_t> out_b;
  std::vector<uint8_t> out_v;
  switch (fin.dtype) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      out_i.resize(n);
      break;
    case DataType::kDouble:
      out_d.resize(n);
      break;
    case DataType::kBool:
      out_b.resize(n);
      break;
    default:
      return Status::Invalid("bad fused output type");
  }
  if (fin.has_vvec) out_v.resize(n);

  LAFP_RETURN_NOT_OK(df::RunMorsels(n, [&](size_t begin, size_t end) {
    const size_t m = end - begin;
    Lanes L;
    LaneState state = init;
    // Load the live lane from the source spans.
    switch (src.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        L.i.assign(src.int_data() + begin, src.int_data() + end);
        break;
      case DataType::kDouble:
        L.d.assign(src.double_data() + begin, src.double_data() + end);
        break;
      case DataType::kBool:
        L.b.assign(src.bool_data() + begin, src.bool_data() + end);
        break;
      default:
        return Status::Invalid("bad fused input type");
    }
    if (init.has_vvec) {
      const uint8_t* v = src.validity_data();
      L.v.assign(v + begin, v + end);
    }
    for (const MicroOp& mo : plan) ApplyMicroOp(mo, &L, &state, m);
    // Store the final lane into the output range.
    switch (fin.dtype) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        std::memcpy(out_i.data() + begin, L.i.data(), m * sizeof(int64_t));
        break;
      case DataType::kDouble:
        std::memcpy(out_d.data() + begin, L.d.data(), m * sizeof(double));
        break;
      default:
        std::memcpy(out_b.data() + begin, L.b.data(), m);
        break;
    }
    if (fin.has_vvec) {
      if (state.has_vvec) {
        std::memcpy(out_v.data() + begin, L.v.data(), m);
      } else {
        std::memset(out_v.data() + begin, 1, m);
      }
    }
    return Status::OK();
  }));
  switch (fin.dtype) {
    case DataType::kInt64:
      return Column::MakeInt(std::move(out_i), std::move(out_v), tracker);
    case DataType::kTimestamp:
      return Column::MakeTimestamp(std::move(out_i), std::move(out_v),
                                   tracker);
    case DataType::kDouble:
      return Column::MakeDouble(std::move(out_d), std::move(out_v), tracker);
    default:
      return Column::MakeBool(std::move(out_b), std::move(out_v), tracker);
  }
}

/// Wrap a column as a one-column frame named `name`.
Result<EagerValue> SeriesOf(ColumnPtr col, const std::string& name) {
  LAFP_ASSIGN_OR_RETURN(DataFrame frame,
                        DataFrame::Make({name}, {std::move(col)}));
  return EagerValue::Frame(std::move(frame));
}

}  // namespace

Result<EagerValue> ExecuteFusedMap(const OpDesc& desc,
                                   const std::vector<EagerValue>& inputs,
                                   MemoryTracker* tracker) {
  ColumnPtr cur;
  std::string out_name;
  if (!desc.column.empty()) {
    // Filter+project variant: gather only the projected column through the
    // selection vector. Byte-identical to Filter(df)[column] because
    // TakeRows applies the same Take to every column.
    if (inputs[0].is_scalar) {
      return Status::TypeError("fused_map expects a frame input");
    }
    LAFP_ASSIGN_OR_RETURN(ColumnPtr mask, inputs[1].AsColumn());
    if (mask->type() != DataType::kBool) {
      return Status::TypeError("filter mask must be bool");
    }
    if (mask->size() != inputs[0].frame.num_rows()) {
      return Status::Invalid("filter mask length mismatch");
    }
    LAFP_ASSIGN_OR_RETURN(ColumnPtr src, inputs[0].frame.column(desc.column));
    LAFP_ASSIGN_OR_RETURN(std::vector<int64_t> indices,
                          df::MaskToIndices(*mask));
    LAFP_ASSIGN_OR_RETURN(cur, src->Take(indices));
    out_name = desc.column;
  } else {
    LAFP_ASSIGN_OR_RETURN(cur, inputs[0].AsColumn());
    out_name = inputs[0].frame.names()[0];
  }
  if (!desc.fused.empty()) {
    std::vector<MicroOp> plan;
    LaneState init{cur->type(), cur->has_nulls()};
    LaneState fin;
    if (PlanChain(desc.fused, init, &plan, &fin)) {
      LAFP_ASSIGN_OR_RETURN(cur,
                            RunFusedChain(*cur, plan, init, fin, tracker));
    } else {
      // Unsupported lane shape (strings, type errors): run each step as its
      // own eager op, which is the unfused plan by construction (same
      // kernels, same error strings).
      LAFP_ASSIGN_OR_RETURN(EagerValue value,
                            SeriesOf(std::move(cur), out_name));
      for (const OpDesc& step : desc.fused) {
        LAFP_ASSIGN_OR_RETURN(value, ExecuteEagerOp(step, {value}, tracker));
      }
      return value;
    }
  }
  return SeriesOf(std::move(cur), out_name);
}

}  // namespace lafp::exec
