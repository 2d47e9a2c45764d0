#include "script/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "dataframe/arith_semantics.h"

namespace lafp::script {

namespace {

using df::AggFunc;
using df::ArithOp;
using df::CompareOp;
using df::Scalar;
using lazy::FatDataFrame;
using lazy::LazyScalar;
using lazy::Session;

Result<CompareOp> CompareOpFromText(const std::string& op) {
  if (op == "==") return CompareOp::kEq;
  if (op == "!=") return CompareOp::kNe;
  if (op == "<") return CompareOp::kLt;
  if (op == "<=") return CompareOp::kLe;
  if (op == ">") return CompareOp::kGt;
  if (op == ">=") return CompareOp::kGe;
  return Status::Invalid("bad compare op: " + op);
}

Result<ArithOp> ArithOpFromText(const std::string& op) {
  if (op == "+") return ArithOp::kAdd;
  if (op == "-") return ArithOp::kSub;
  if (op == "*") return ArithOp::kMul;
  if (op == "/") return ArithOp::kDiv;
  if (op == "%") return ArithOp::kMod;
  return Status::Invalid("bad arithmetic op: " + op);
}

/// The keywords each DataFrame method reads; an unlisted method reads
/// none. `compute`'s live_df is the rewriter's §3.5 hint.
const std::vector<std::string>& FrameMethodKwargs(const std::string& method) {
  static const std::map<std::string, std::vector<std::string>> kRead{
      {"compute", {"live_df"}},
      {"drop", {"columns"}},
      {"drop_duplicates", {"subset"}},
      {"head", {"n"}},
      {"merge", {"on", "how"}},
      {"rename", {"columns"}},
      {"sort_values", {"by", "ascending"}},
  };
  static const std::vector<std::string> kNone;
  auto it = kRead.find(method);
  return it == kRead.end() ? kNone : it->second;
}

/// Refuses any keyword of `expr` that `call` does not read, as read_csv
/// and read_lfc do: ignoring one (head(n=3), keep="last") would silently
/// change the answer.
Status CheckKwargs(const std::string& call, const IRExpr& expr,
                   const std::vector<std::string>& read) {
  for (const auto& [name, _] : expr.kwargs) {
    if (std::find(read.begin(), read.end(), name) == read.end()) {
      return Status::NotImplemented(call + " kwarg '" + name + "'");
    }
  }
  return Status::OK();
}

class Interpreter {
 public:
  Interpreter(const IRProgram& program, const ProgramModel& model,
              Session* session, InterpreterStats* stats)
      : program_(program), model_(model), session_(session), stats_(stats) {}

  Status Run() {
    // Label resolution.
    for (size_t i = 0; i < program_.stmts.size(); ++i) {
      if (program_.stmts[i].kind == IRStmtKind::kLabel) {
        labels_[program_.stmts[i].label] = i;
      }
    }
    size_t pc = 0;
    int64_t executed = 0;
    while (pc < program_.stmts.size()) {
      const IRStmt& stmt = program_.stmts[pc];
      if (++executed > 2'000'000) {
        return Status::ExecutionError("statement budget exhausted (loop?)");
      }
      if (stats_ != nullptr) ++stats_->statements_executed;
      computing_ = false;
      switch (stmt.kind) {
        case IRStmtKind::kLabel:
        case IRStmtKind::kNop:
        case IRStmtKind::kImport:
          ++pc;
          break;
        case IRStmtKind::kGoto: {
          auto it = labels_.find(stmt.label);
          if (it == labels_.end()) {
            return Status::ExecutionError("unknown label " + stmt.label);
          }
          pc = it->second;
          break;
        }
        case IRStmtKind::kBranch: {
          LAFP_ASSIGN_OR_RETURN(Value cond, Load(stmt.cond));
          LAFP_ASSIGN_OR_RETURN(bool truth, Truthy(cond));
          auto it = labels_.find(truth ? stmt.true_label
                                       : stmt.false_label);
          if (it == labels_.end()) {
            return Status::ExecutionError("unknown branch label");
          }
          pc = it->second;
          break;
        }
        case IRStmtKind::kAssign: {
          LAFP_ASSIGN_OR_RETURN(Value v, Eval(stmt.expr));
          env_[stmt.target] = std::move(v);
          ++pc;
          break;
        }
        case IRStmtKind::kExprStmt: {
          LAFP_ASSIGN_OR_RETURN(Value v, Eval(stmt.expr));
          (void)v;
          ++pc;
          break;
        }
        case IRStmtKind::kStoreItem: {
          LAFP_RETURN_NOT_OK(ExecStoreItem(stmt));
          ++pc;
          break;
        }
      }
      // A computed value serves the statement after its compute only.
      if (!computing_) computed_.reset();
    }
    return Status::OK();
  }

 private:
  Result<Value> Load(const IRValue& v) {
    if (v.is_var()) {
      auto it = env_.find(v.var);
      if (it == env_.end()) {
        // Imported module aliases resolve through the model.
        const VarInfo* info = model_.Find(v.var);
        if (info != nullptr && info->kind == VarKind::kModule) {
          Value out;
          out.kind = Value::Kind::kModule;
          out.s = v.var;
          return out;
        }
        return Status::ExecutionError("undefined variable '" + v.var + "'");
      }
      return it->second;
    }
    switch (v.ctype) {
      case IRValue::ConstType::kInt:
        return Value::Int(v.int_value);
      case IRValue::ConstType::kFloat:
        return Value::Float(v.float_value);
      case IRValue::ConstType::kStr:
        return Value::Str(v.str_value);
      case IRValue::ConstType::kBool:
        return Value::Bool(v.bool_value);
      case IRValue::ConstType::kNone:
        return Value::None();
    }
    return Value::None();
  }

  Result<bool> Truthy(const Value& v) {
    switch (v.kind) {
      case Value::Kind::kBool:
        return v.b;
      case Value::Kind::kInt:
        return v.i != 0;
      case Value::Kind::kFloat:
        return v.f != 0.0;
      case Value::Kind::kStr:
        return !v.s.empty();
      case Value::Kind::kNone:
        return false;
      case Value::Kind::kLazyScalar: {
        LAFP_ASSIGN_OR_RETURN(Scalar s, v.lazy_scalar.Value());
        if (s.is_null()) return false;
        LAFP_ASSIGN_OR_RETURN(double d, s.AsDouble());
        return d != 0.0;
      }
      default:
        return Status::TypeError("value has no truthiness");
    }
  }

  /// Convert a native value to a kernel Scalar.
  Result<Scalar> ToScalar(const Value& v) {
    switch (v.kind) {
      case Value::Kind::kInt:
        return Scalar::Int(v.i);
      case Value::Kind::kFloat:
        return Scalar::Double(v.f);
      case Value::Kind::kBool:
        return Scalar::Bool(v.b);
      case Value::Kind::kStr:
        return Scalar::String(v.s);
      case Value::Kind::kNone:
        return Scalar::Null();
      case Value::Kind::kLazyScalar: {
        return v.lazy_scalar.Value();
      }
      default:
        return Status::TypeError("expected a scalar value");
    }
  }

  Result<std::vector<std::string>> ToStringList(const Value& v) {
    if (v.kind == Value::Kind::kStr) return std::vector<std::string>{v.s};
    if (v.kind != Value::Kind::kList) {
      return Status::TypeError("expected a list of strings");
    }
    std::vector<std::string> out;
    for (const auto& elem : v.list) {
      if (elem.kind != Value::Kind::kStr) {
        return Status::TypeError("expected string list elements");
      }
      out.push_back(elem.s);
    }
    return out;
  }

  /// A read's `dtype={column: "type"}` mapping.
  Result<std::map<std::string, df::DataType>> ToDtypes(const Value& v) {
    if (v.kind != Value::Kind::kDict) {
      return Status::TypeError("dtype must be a dict");
    }
    std::map<std::string, df::DataType> out;
    for (const auto& [col, type_name] : v.dict) {
      if (type_name.kind != Value::Kind::kStr) {
        return Status::TypeError("dtype values must be strings");
      }
      LAFP_ASSIGN_OR_RETURN(out[col], df::DataTypeFromName(type_name.s));
    }
    return out;
  }

  Result<Value> Eval(const IRExpr& expr) {
    switch (expr.kind) {
      case IRExprKind::kAtom:
        return Load(expr.atom);
      case IRExprKind::kList: {
        Value out;
        out.kind = Value::Kind::kList;
        for (const auto& v : expr.operands) {
          LAFP_ASSIGN_OR_RETURN(Value elem, Load(v));
          out.list.push_back(std::move(elem));
        }
        return out;
      }
      case IRExprKind::kDict: {
        Value out;
        out.kind = Value::Kind::kDict;
        for (const auto& [k, v] : expr.dict_items) {
          LAFP_ASSIGN_OR_RETURN(Value key, Load(k));
          if (key.kind != Value::Kind::kStr) {
            return Status::TypeError("dict keys must be strings");
          }
          LAFP_ASSIGN_OR_RETURN(Value value, Load(v));
          out.dict[key.s] = std::move(value);
        }
        return out;
      }
      case IRExprKind::kFString: {
        Value out;
        out.kind = Value::Kind::kFormatted;
        out.literals = expr.fstring_literals;
        for (const auto& v : expr.operands) {
          LAFP_ASSIGN_OR_RETURN(Value part, Load(v));
          out.parts.push_back(std::move(part));
        }
        return out;
      }
      case IRExprKind::kBinOp:
        return EvalBinOp(expr);
      case IRExprKind::kCompare:
        return EvalCompare(expr);
      case IRExprKind::kUnaryOp:
        return EvalUnary(expr);
      case IRExprKind::kGetAttr:
        return EvalGetAttr(expr);
      case IRExprKind::kGetItem:
        return EvalGetItem(expr);
      case IRExprKind::kCall:
        return EvalCall(expr);
    }
    return Status::ExecutionError("bad expression");
  }

  Result<Value> EvalBinOp(const IRExpr& expr) {
    LAFP_ASSIGN_OR_RETURN(Value lhs, Load(expr.operands[0]));
    LAFP_ASSIGN_OR_RETURN(Value rhs, Load(expr.operands[1]));
    const std::string& op = expr.op;
    // Boolean mask combinators.
    if (op == "&" || op == "and") {
      if (lhs.kind == Value::Kind::kFrame &&
          rhs.kind == Value::Kind::kFrame) {
        LAFP_ASSIGN_OR_RETURN(FatDataFrame out, lhs.frame.And(rhs.frame));
        return Value::Frame(std::move(out));
      }
      LAFP_ASSIGN_OR_RETURN(bool l, Truthy(lhs));
      if (!l) return Value::Bool(false);
      LAFP_ASSIGN_OR_RETURN(bool r, Truthy(rhs));
      return Value::Bool(r);
    }
    if (op == "|" || op == "or") {
      if (lhs.kind == Value::Kind::kFrame &&
          rhs.kind == Value::Kind::kFrame) {
        LAFP_ASSIGN_OR_RETURN(FatDataFrame out, lhs.frame.Or(rhs.frame));
        return Value::Frame(std::move(out));
      }
      LAFP_ASSIGN_OR_RETURN(bool l, Truthy(lhs));
      if (l) return Value::Bool(true);
      LAFP_ASSIGN_OR_RETURN(bool r, Truthy(rhs));
      return Value::Bool(r);
    }
    LAFP_ASSIGN_OR_RETURN(ArithOp aop, ArithOpFromText(op));
    // Frame-involved arithmetic stays lazy.
    if (lhs.kind == Value::Kind::kFrame || rhs.kind == Value::Kind::kFrame) {
      if (lhs.kind == Value::Kind::kFrame &&
          rhs.kind == Value::Kind::kFrame) {
        LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                              lhs.frame.ArithCol(aop, rhs.frame));
        return Value::Frame(std::move(out));
      }
      if (lhs.kind == Value::Kind::kFrame) {
        if (rhs.kind == Value::Kind::kLazyScalar) {
          LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                                lhs.frame.ArithLazy(aop, rhs.lazy_scalar));
          return Value::Frame(std::move(out));
        }
        LAFP_ASSIGN_OR_RETURN(Scalar s, ToScalar(rhs));
        LAFP_ASSIGN_OR_RETURN(FatDataFrame out, lhs.frame.ArithScalar(aop, s));
        return Value::Frame(std::move(out));
      }
      if (lhs.kind == Value::Kind::kLazyScalar) {
        LAFP_ASSIGN_OR_RETURN(
            FatDataFrame out,
            rhs.frame.ArithLazy(aop, lhs.lazy_scalar, /*scalar_on_left=*/true));
        return Value::Frame(std::move(out));
      }
      LAFP_ASSIGN_OR_RETURN(Scalar s, ToScalar(lhs));
      LAFP_ASSIGN_OR_RETURN(
          FatDataFrame out,
          rhs.frame.ArithScalar(aop, s, /*scalar_on_left=*/true));
      return Value::Frame(std::move(out));
    }
    // String concatenation.
    if (op == "+" && (lhs.kind == Value::Kind::kStr ||
                      rhs.kind == Value::Kind::kStr)) {
      LAFP_ASSIGN_OR_RETURN(std::string l, Stringify(lhs));
      LAFP_ASSIGN_OR_RETURN(std::string r, Stringify(rhs));
      return Value::Str(l + r);
    }
    // Native scalar arithmetic (lazy scalars are forced).
    LAFP_ASSIGN_OR_RETURN(Scalar l, ToScalar(lhs));
    LAFP_ASSIGN_OR_RETURN(Scalar r, ToScalar(rhs));
    if (l.type() == df::DataType::kInt64 &&
        r.type() == df::DataType::kInt64 && aop != ArithOp::kDiv) {
      int64_t a = l.int_value();
      int64_t b = r.int_value();
      switch (aop) {
        case ArithOp::kAdd:
          return Value::Int(df::WrapAdd(a, b));
        case ArithOp::kSub:
          return Value::Int(df::WrapSub(a, b));
        case ArithOp::kMul:
          return Value::Int(df::WrapMul(a, b));
        case ArithOp::kMod:
          return Value::Int(df::FlooredModInt(a, b));
        default:
          break;
      }
    }
    LAFP_ASSIGN_OR_RETURN(double a, l.AsDouble());
    LAFP_ASSIGN_OR_RETURN(double b, r.AsDouble());
    switch (aop) {
      case ArithOp::kAdd:
        return Value::Float(a + b);
      case ArithOp::kSub:
        return Value::Float(a - b);
      case ArithOp::kMul:
        return Value::Float(a * b);
      case ArithOp::kDiv:
        return Value::Float(a / b);
      case ArithOp::kMod:
        return Value::Float(df::FlooredModDouble(a, b));
    }
    return Status::ExecutionError("bad arithmetic");
  }

  Result<Value> EvalCompare(const IRExpr& expr) {
    LAFP_ASSIGN_OR_RETURN(Value lhs, Load(expr.operands[0]));
    LAFP_ASSIGN_OR_RETURN(Value rhs, Load(expr.operands[1]));
    LAFP_ASSIGN_OR_RETURN(CompareOp op, CompareOpFromText(expr.op));
    if (lhs.kind == Value::Kind::kFrame) {
      if (rhs.kind == Value::Kind::kFrame) {
        LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                              lhs.frame.CompareCol(op, rhs.frame));
        return Value::Frame(std::move(out));
      }
      if (rhs.kind == Value::Kind::kLazyScalar) {
        LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                              lhs.frame.CompareLazy(op, rhs.lazy_scalar));
        return Value::Frame(std::move(out));
      }
      LAFP_ASSIGN_OR_RETURN(Scalar s, ToScalar(rhs));
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, lhs.frame.CompareTo(op, s));
      return Value::Frame(std::move(out));
    }
    if (rhs.kind == Value::Kind::kFrame) {
      // scalar <op> series: flip the operator.
      CompareOp flipped = op;
      switch (op) {
        case CompareOp::kLt:
          flipped = CompareOp::kGt;
          break;
        case CompareOp::kLe:
          flipped = CompareOp::kGe;
          break;
        case CompareOp::kGt:
          flipped = CompareOp::kLt;
          break;
        case CompareOp::kGe:
          flipped = CompareOp::kLe;
          break;
        default:
          break;
      }
      if (lhs.kind == Value::Kind::kLazyScalar) {
        LAFP_ASSIGN_OR_RETURN(
            FatDataFrame out, rhs.frame.CompareLazy(flipped, lhs.lazy_scalar));
        return Value::Frame(std::move(out));
      }
      LAFP_ASSIGN_OR_RETURN(Scalar s, ToScalar(lhs));
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, rhs.frame.CompareTo(flipped, s));
      return Value::Frame(std::move(out));
    }
    // Native comparison.
    if (lhs.kind == Value::Kind::kStr && rhs.kind == Value::Kind::kStr) {
      int c = lhs.s.compare(rhs.s);
      switch (op) {
        case CompareOp::kEq:
          return Value::Bool(c == 0);
        case CompareOp::kNe:
          return Value::Bool(c != 0);
        case CompareOp::kLt:
          return Value::Bool(c < 0);
        case CompareOp::kLe:
          return Value::Bool(c <= 0);
        case CompareOp::kGt:
          return Value::Bool(c > 0);
        case CompareOp::kGe:
          return Value::Bool(c >= 0);
      }
    }
    LAFP_ASSIGN_OR_RETURN(Scalar l, ToScalar(lhs));
    LAFP_ASSIGN_OR_RETURN(Scalar r, ToScalar(rhs));
    if (l.is_null() || r.is_null()) {
      return Value::Bool(op == CompareOp::kNe);
    }
    LAFP_ASSIGN_OR_RETURN(double a, l.AsDouble());
    LAFP_ASSIGN_OR_RETURN(double b, r.AsDouble());
    switch (op) {
      case CompareOp::kEq:
        return Value::Bool(a == b);
      case CompareOp::kNe:
        return Value::Bool(a != b);
      case CompareOp::kLt:
        return Value::Bool(a < b);
      case CompareOp::kLe:
        return Value::Bool(a <= b);
      case CompareOp::kGt:
        return Value::Bool(a > b);
      case CompareOp::kGe:
        return Value::Bool(a >= b);
    }
    return Status::ExecutionError("bad comparison");
  }

  Result<Value> EvalUnary(const IRExpr& expr) {
    LAFP_ASSIGN_OR_RETURN(Value v, Load(expr.operands[0]));
    if (expr.op == "~" || (expr.op == "not" &&
                           v.kind == Value::Kind::kFrame)) {
      if (v.kind != Value::Kind::kFrame) {
        return Status::TypeError("~ expects a boolean mask");
      }
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, v.frame.Not());
      return Value::Frame(std::move(out));
    }
    if (expr.op == "not") {
      LAFP_ASSIGN_OR_RETURN(bool t, Truthy(v));
      return Value::Bool(!t);
    }
    if (expr.op == "-") {
      if (v.kind == Value::Kind::kInt) return Value::Int(-v.i);
      if (v.kind == Value::Kind::kFloat) return Value::Float(-v.f);
      if (v.kind == Value::Kind::kFrame) {
        LAFP_ASSIGN_OR_RETURN(
            FatDataFrame out,
            v.frame.ArithScalar(ArithOp::kMul, Scalar::Int(-1)));
        return Value::Frame(std::move(out));
      }
    }
    return Status::TypeError("bad unary operand");
  }

  Result<Value> EvalGetAttr(const IRExpr& expr) {
    LAFP_ASSIGN_OR_RETURN(Value base, Load(expr.object));
    const std::string& attr = expr.attr;
    switch (base.kind) {
      case Value::Kind::kFrame: {
        if (attr == "dt") {
          Value out = base;
          out.kind = Value::Kind::kDtAccessor;
          return out;
        }
        if (attr == "str") {
          Value out = base;
          out.kind = Value::Kind::kStrAccessor;
          return out;
        }
        // Column access (df.fare_amount).
        LAFP_ASSIGN_OR_RETURN(FatDataFrame col, base.frame.Col(attr));
        return Value::Frame(std::move(col));
      }
      case Value::Kind::kDtAccessor: {
        LAFP_ASSIGN_OR_RETURN(df::DtField field, df::DtFieldFromName(attr));
        LAFP_ASSIGN_OR_RETURN(FatDataFrame out, base.frame.Dt(field));
        return Value::Frame(std::move(out));
      }
      case Value::Kind::kModule: {
        Value out;
        out.kind = Value::Kind::kModule;
        out.s = base.s + "." + attr;  // submodule path (plt.cm etc.)
        return out;
      }
      default:
        return Status::TypeError("cannot read attribute '" + attr + "'");
    }
  }

  Result<Value> EvalGetItem(const IRExpr& expr) {
    LAFP_ASSIGN_OR_RETURN(Value base, Load(expr.object));
    LAFP_ASSIGN_OR_RETURN(Value index, Load(expr.operands[0]));
    switch (base.kind) {
      case Value::Kind::kFrame: {
        if (index.kind == Value::Kind::kStr) {
          LAFP_ASSIGN_OR_RETURN(FatDataFrame out, base.frame.Col(index.s));
          return Value::Frame(std::move(out));
        }
        if (index.kind == Value::Kind::kList) {
          LAFP_ASSIGN_OR_RETURN(std::vector<std::string> cols,
                                ToStringList(index));
          LAFP_ASSIGN_OR_RETURN(FatDataFrame out, base.frame.Select(cols));
          return Value::Frame(std::move(out));
        }
        if (index.kind == Value::Kind::kFrame) {
          LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                                base.frame.FilterBy(index.frame));
          return Value::Frame(std::move(out));
        }
        return Status::TypeError("unsupported dataframe index");
      }
      case Value::Kind::kGroupBy: {
        if (index.kind != Value::Kind::kStr) {
          return Status::TypeError("groupby index must be a column name");
        }
        Value out = base;
        out.kind = Value::Kind::kGroupByCol;
        out.column = index.s;
        return out;
      }
      case Value::Kind::kList: {
        if (index.kind != Value::Kind::kInt) {
          return Status::TypeError("list index must be an integer");
        }
        size_t i = static_cast<size_t>(index.i);
        if (i >= base.list.size()) {
          return Status::IndexError("list index out of range");
        }
        return base.list[i];
      }
      case Value::Kind::kDict: {
        if (index.kind != Value::Kind::kStr) {
          return Status::TypeError("dict index must be a string");
        }
        auto it = base.dict.find(index.s);
        if (it == base.dict.end()) {
          return Status::KeyError("no key '" + index.s + "'");
        }
        return it->second;
      }
      default:
        return Status::TypeError("value is not subscriptable");
    }
  }

  Status ExecStoreItem(const IRStmt& stmt) {
    if (!stmt.object.is_var()) {
      return Status::ExecutionError("setitem target must be a variable");
    }
    LAFP_ASSIGN_OR_RETURN(Value base, Load(stmt.object));
    LAFP_ASSIGN_OR_RETURN(Value key, Load(stmt.key));
    LAFP_ASSIGN_OR_RETURN(Value value, Load(stmt.value));
    if (base.kind != Value::Kind::kFrame ||
        key.kind != Value::Kind::kStr) {
      return Status::TypeError("setitem requires df[\"col\"] = value");
    }
    FatDataFrame updated;
    if (value.kind == Value::Kind::kFrame) {
      LAFP_ASSIGN_OR_RETURN(updated, base.frame.SetCol(key.s, value.frame));
    } else if (value.kind == Value::Kind::kLazyScalar) {
      LAFP_ASSIGN_OR_RETURN(updated,
                            base.frame.SetColLazy(key.s, value.lazy_scalar));
    } else {
      LAFP_ASSIGN_OR_RETURN(Scalar s, ToScalar(value));
      LAFP_ASSIGN_OR_RETURN(updated, base.frame.SetColScalar(key.s, s));
    }
    env_[stmt.object.var] = Value::Frame(std::move(updated));
    return Status::OK();
  }

  // ---- calls ----

  Result<Value> EvalCall(const IRExpr& expr) {
    if (!expr.global_name.empty()) return EvalGlobalCall(expr);
    LAFP_ASSIGN_OR_RETURN(Value recv, Load(expr.object));
    const std::string& method = expr.attr;
    switch (recv.kind) {
      case Value::Kind::kModule:
        return EvalModuleCall(recv.s, method, expr);
      case Value::Kind::kFrame:
        return EvalFrameCall(recv, method, expr);
      case Value::Kind::kGroupByCol:
        LAFP_RETURN_NOT_OK(CheckKwargs("groupby." + method, expr, {}));
        return EvalGroupByColCall(recv, method);
      case Value::Kind::kGroupBy:
        return Status::NotImplemented(
            "aggregate requires selecting a column first (gb[col])");
      case Value::Kind::kLazyScalar: {
        if (method == "compute") {
          // Forced scalar evaluation with §3.5 live_df hints (rewriter
          // output for branch-deciding len()).
          std::vector<lazy::TaskNodePtr> live;
          for (const auto& [name, raw] : expr.kwargs) {
            if (name != "live_df") continue;
            LAFP_ASSIGN_OR_RETURN(Value lv, Load(raw));
            if (lv.kind != Value::Kind::kList) {
              return Status::TypeError("live_df must be a list");
            }
            for (const auto& e : lv.list) {
              if (e.kind == Value::Kind::kFrame) {
                live.push_back(e.frame.node());
              }
            }
          }
          LAFP_RETURN_NOT_OK(
              session_->Compute(recv.lazy_scalar.node(), live).status());
          return recv;  // node now caches its scalar
        }
        return Status::NotImplemented("scalar." + method);
      }
      case Value::Kind::kStrAccessor: {
        if (method == "contains") {
          // Reads no keyword: case=, regex=, na= would each change the
          // answer.
          LAFP_RETURN_NOT_OK(CheckKwargs("str.contains", expr, {}));
          LAFP_ASSIGN_OR_RETURN(Value needle, Load(expr.operands.at(0)));
          if (needle.kind != Value::Kind::kStr) {
            return Status::TypeError("str.contains expects a string");
          }
          LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                                recv.frame.StrContains(needle.s));
          return Value::Frame(std::move(out));
        }
        return Status::NotImplemented("str." + method);
      }
      default:
        return Status::TypeError("cannot call method '" + method + "'");
    }
  }

  Result<Value> EvalGlobalCall(const IRExpr& expr) {
    const std::string& fn = expr.global_name;
    if (fn == "print") return EvalPrint(expr);
    if (fn == "len") {
      LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands.at(0)));
      if (arg.kind == Value::Kind::kFrame) {
        LAFP_ASSIGN_OR_RETURN(LazyScalar n, arg.frame.Len());
        Value out;
        out.kind = Value::Kind::kLazyScalar;
        out.lazy_scalar = std::move(n);
        return out;
      }
      if (arg.kind == Value::Kind::kList) {
        return Value::Int(static_cast<int64_t>(arg.list.size()));
      }
      if (arg.kind == Value::Kind::kStr) {
        return Value::Int(static_cast<int64_t>(arg.s.size()));
      }
      return Status::TypeError("len() of unsupported value");
    }
    if (fn == "plot") return EvalPlot(expr);
    if (fn == "checksum") return EvalChecksum(expr);
    if (fn == "int") {
      LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands.at(0)));
      LAFP_ASSIGN_OR_RETURN(Scalar s, ToScalar(arg));
      if (s.type() == df::DataType::kInt64) return Value::Int(s.int_value());
      LAFP_ASSIGN_OR_RETURN(double d, s.AsDouble());
      // Python raises ValueError / OverflowError here; a bare cast of
      // NaN, an infinity or a value outside int64 is undefined.
      if (std::isnan(d)) {
        return Status::Invalid("cannot convert float NaN to integer");
      }
      if (std::isinf(d)) {
        return Status::Invalid("cannot convert float infinity to integer");
      }
      if (d < -0x1p63 || d >= 0x1p63) {
        return Status::Invalid("int() result does not fit in int64");
      }
      return Value::Int(static_cast<int64_t>(d));
    }
    if (fn == "float") {
      LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands.at(0)));
      LAFP_ASSIGN_OR_RETURN(Scalar s, ToScalar(arg));
      LAFP_ASSIGN_OR_RETURN(double d, s.AsDouble());
      return Value::Float(d);
    }
    return Status::NotImplemented("global function '" + fn + "'");
  }

  Result<Value> EvalModuleCall(const std::string& module,
                               const std::string& method,
                               const IRExpr& expr) {
    if (model_.IsPandasModule(module)) {
      if (method == "read_csv") {
        LAFP_ASSIGN_OR_RETURN(Value path, Load(expr.operands.at(0)));
        if (path.kind != Value::Kind::kStr) {
          return Status::TypeError("read_csv expects a path string");
        }
        io::CsvReadOptions options;
        for (const auto& [name, raw] : expr.kwargs) {
          LAFP_ASSIGN_OR_RETURN(Value v, Load(raw));
          if (name == "usecols") {
            LAFP_ASSIGN_OR_RETURN(options.usecols, ToStringList(v));
          } else if (name == "nrows") {
            if (v.kind != Value::Kind::kInt) {
              return Status::TypeError("nrows must be an integer");
            }
            options.nrows = static_cast<size_t>(v.i);
          } else if (name == "dtype") {
            LAFP_ASSIGN_OR_RETURN(options.dtypes, ToDtypes(v));
          } else if (name == "index_col") {
            // Accepted for API fidelity; row labels are implicit here.
          } else {
            return Status::NotImplemented("read_csv kwarg '" + name + "'");
          }
        }
        LAFP_ASSIGN_OR_RETURN(FatDataFrame frame,
                              FatDataFrame::ReadCsv(session_, path.s,
                                                    std::move(options)));
        return Value::Frame(std::move(frame));
      }
      if (method == "read_lfc") {
        LAFP_ASSIGN_OR_RETURN(Value path, Load(expr.operands.at(0)));
        if (path.kind != Value::Kind::kStr) {
          return Status::TypeError("read_lfc expects a path string");
        }
        io::LfcReadOptions options;
        for (const auto& [name, raw] : expr.kwargs) {
          LAFP_ASSIGN_OR_RETURN(Value v, Load(raw));
          if (name == "usecols") {
            LAFP_ASSIGN_OR_RETURN(options.usecols, ToStringList(v));
          } else if (name == "nrows") {
            if (v.kind != Value::Kind::kInt) {
              return Status::TypeError("nrows must be an integer");
            }
            options.nrows = static_cast<size_t>(v.i);
          } else if (name == "dtype") {
            // LFC stores exact types: only category hints apply.
            LAFP_ASSIGN_OR_RETURN(auto dtypes, ToDtypes(v));
            for (const auto& [col, type] : dtypes) {
              if (type == df::DataType::kCategory) {
                options.categories.push_back(col);
              }
            }
          } else {
            return Status::NotImplemented("read_lfc kwarg '" + name + "'");
          }
        }
        LAFP_ASSIGN_OR_RETURN(FatDataFrame frame,
                              FatDataFrame::ReadLfc(session_, path.s,
                                                    std::move(options)));
        return Value::Frame(std::move(frame));
      }
      if (method == "to_datetime") {
        LAFP_RETURN_NOT_OK(CheckKwargs(module + ".to_datetime", expr, {}));
        LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands.at(0)));
        if (arg.kind != Value::Kind::kFrame) {
          return Status::TypeError("to_datetime expects a series");
        }
        LAFP_ASSIGN_OR_RETURN(FatDataFrame out, arg.frame.ToDatetime());
        return Value::Frame(std::move(out));
      }
      if (method == "concat") {
        LAFP_RETURN_NOT_OK(CheckKwargs(module + ".concat", expr, {}));
        LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands.at(0)));
        if (arg.kind != Value::Kind::kList) {
          return Status::TypeError("pd.concat expects a list");
        }
        std::vector<FatDataFrame> frames;
        for (const auto& e : arg.list) {
          if (e.kind != Value::Kind::kFrame) {
            return Status::TypeError("pd.concat expects dataframes");
          }
          frames.push_back(e.frame);
        }
        LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                              FatDataFrame::Concat(session_, frames));
        return Value::Frame(std::move(out));
      }
      if (method == "flush") {
        LAFP_RETURN_NOT_OK(session_->Flush());
        return Value::None();
      }
      if (method == "analyze") {
        // JIT analysis already ran (or was skipped) by the pipeline
        // driver; at execution time this is a no-op marker.
        return Value::None();
      }
      return Status::NotImplemented("pd." + method);
    }
    if (model_.IsExternalModule(module) ||
        module.find('.') != std::string::npos) {
      // External module functions (plt.plot, plt.savefig, ...): §3.4.
      return EvalExternalCall(module + "." + method, expr);
    }
    return Status::NotImplemented(module + "." + method);
  }

  /// External calls require materialized (non-lazy) inputs; a lazy frame
  /// argument is computed here — full materialization, the paper's OOM
  /// hazard for the emp program.
  Result<Value> EvalExternalCall(const std::string& name,
                                 const IRExpr& expr) {
    size_t rows = 0;
    bool saw_frame = false;
    for (const auto& raw : expr.operands) {
      LAFP_ASSIGN_OR_RETURN(Value v, Load(raw));
      if (v.kind == Value::Kind::kFrame) {
        LAFP_ASSIGN_OR_RETURN(exec::EagerValue eager, EagerOf(v.frame));
        rows += eager.is_scalar ? 1 : eager.frame.num_rows();
        saw_frame = true;
      } else if (v.kind == Value::Kind::kLazyScalar) {
        LAFP_RETURN_NOT_OK(v.lazy_scalar.Value().status());
        saw_frame = true;
      }
    }
    // Simulated side effect with stable output (ordering vs lazy prints
    // is part of what §3.4 tests).
    LAFP_RETURN_NOT_OK(session_->Flush());
    session_->out() << "[" << name << ": "
                    << (saw_frame ? std::to_string(rows) + " rows"
                                  : "ok")
                    << "]\n";
    return Value::None();
  }

  /// A frame's eager value: the one the previous statement's compute
  /// made of it (the rewriter's `t = df.compute(...)` ahead of
  /// `plt.plot(t)` or `checksum(t)`), else a new round's.
  Result<exec::EagerValue> EagerOf(const FatDataFrame& frame) {
    if (computed_.has_value() && computed_->node == frame.node()) {
      return computed_->value;
    }
    return frame.Compute();
  }

  Result<Value> EvalPlot(const IRExpr& expr) {
    return EvalExternalCall("plot", expr);
  }

  /// Canonical value repr for hashing: doubles are rounded to a few
  /// significant digits so floating-point summation order (partitioned
  /// two-phase aggregation vs single-pass) does not flip the hash. Six
  /// digits keeps the rounding granularity ~1e-6 relative, orders of
  /// magnitude above the ~1e-10 relative reassociation error.
  static std::string HashValue(const df::Column& col, size_t row) {
    if (col.IsValid(row) && col.type() == df::DataType::kDouble) {
      return script::HashDouble(col.DoubleAt(row));
    }
    return col.ValueString(row);
  }

  static std::string HashableDump(const df::DataFrame& frame) {
    std::string header;
    for (size_t c = 0; c < frame.num_columns(); ++c) {
      if (c > 0) header += ",";
      header += frame.names()[c];
    }
    header += "\n";
    std::vector<std::string> rows(frame.num_rows());
    for (size_t r = 0; r < frame.num_rows(); ++r) {
      for (size_t c = 0; c < frame.num_columns(); ++c) {
        if (c > 0) rows[r] += ",";
        rows[r] += HashValue(*frame.column(c), r);
      }
    }
    // Row order canonicalized so Dask results hash identically (§5.2).
    std::sort(rows.begin(), rows.end());
    for (const auto& row : rows) {
      header += row;
      header += "\n";
    }
    return header;
  }

  Result<Value> EvalChecksum(const IRExpr& expr) {
    LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands.at(0)));
    std::string digest;
    if (arg.kind == Value::Kind::kFrame) {
      LAFP_ASSIGN_OR_RETURN(exec::EagerValue eager, EagerOf(arg.frame));
      if (eager.is_scalar) {
        digest = Md5::Of(eager.scalar.ToString());
      } else {
        digest = Md5::Of(HashableDump(eager.frame));
      }
    } else {
      LAFP_ASSIGN_OR_RETURN(Scalar s, ToScalar(arg));
      digest = Md5::Of(s.ToString());
    }
    LAFP_RETURN_NOT_OK(session_->Flush());
    session_->out() << "checksum " << digest << "\n";
    return Value::None();
  }

  Result<Value> EvalPrint(const IRExpr& expr) {
    std::vector<Session::PrintArg> args;
    bool first = true;
    for (const auto& raw : expr.operands) {
      if (!first) args.push_back(Session::PrintArg::Literal(" "));
      first = false;
      LAFP_ASSIGN_OR_RETURN(Value v, Load(raw));
      LAFP_RETURN_NOT_OK(AppendPrintArg(v, &args));
    }
    LAFP_RETURN_NOT_OK(session_->Print(args));
    return Value::None();
  }

  Status AppendPrintArg(const Value& v, std::vector<Session::PrintArg>* args) {
    switch (v.kind) {
      case Value::Kind::kFrame:
        args->push_back(Session::PrintArg::Value(v.frame.node()));
        return Status::OK();
      case Value::Kind::kLazyScalar:
        args->push_back(Session::PrintArg::Value(v.lazy_scalar.node()));
        return Status::OK();
      case Value::Kind::kFormatted: {
        for (size_t i = 0; i < v.literals.size(); ++i) {
          if (!v.literals[i].empty()) {
            args->push_back(Session::PrintArg::Literal(v.literals[i]));
          }
          if (i < v.parts.size()) {
            LAFP_RETURN_NOT_OK(AppendPrintArg(v.parts[i], args));
          }
        }
        return Status::OK();
      }
      default: {
        LAFP_ASSIGN_OR_RETURN(std::string text, Stringify(v));
        args->push_back(Session::PrintArg::Literal(std::move(text)));
        return Status::OK();
      }
    }
  }

  Result<std::string> Stringify(const Value& v) {
    switch (v.kind) {
      case Value::Kind::kNone:
        return std::string("None");
      case Value::Kind::kInt:
        return std::to_string(v.i);
      case Value::Kind::kFloat:
        return FormatDouble(v.f);
      case Value::Kind::kBool:
        return std::string(v.b ? "True" : "False");
      case Value::Kind::kStr:
        return v.s;
      case Value::Kind::kLazyScalar: {
        LAFP_ASSIGN_OR_RETURN(Scalar s, v.lazy_scalar.Value());
        return s.ToString();
      }
      case Value::Kind::kFormatted: {
        std::string out;
        for (size_t i = 0; i < v.literals.size(); ++i) {
          out += v.literals[i];
          if (i < v.parts.size()) {
            LAFP_ASSIGN_OR_RETURN(std::string part, Stringify(v.parts[i]));
            out += part;
          }
        }
        return out;
      }
      default:
        return Status::TypeError("cannot stringify value");
    }
  }

  Result<Value> EvalFrameCall(const Value& recv, const std::string& method,
                              const IRExpr& expr) {
    const FatDataFrame& frame = recv.frame;
    LAFP_RETURN_NOT_OK(
        CheckKwargs("DataFrame." + method, expr, FrameMethodKwargs(method)));
    auto kwarg = [&](const std::string& name) -> const IRValue* {
      for (const auto& [n, v] : expr.kwargs) {
        if (n == name) return &v;
      }
      return nullptr;
    };

    if (method == "head") {
      size_t n = 5;
      const IRValue* count = kwarg("n");
      if (count != nullptr && !expr.operands.empty()) {
        return Status::TypeError("head got multiple values for 'n'");
      }
      if (count == nullptr && !expr.operands.empty()) {
        count = &expr.operands[0];
      }
      if (count != nullptr) {
        LAFP_ASSIGN_OR_RETURN(Value arg, Load(*count));
        if (arg.kind != Value::Kind::kInt) {
          return Status::TypeError("head count must be an integer");
        }
        // pandas returns all but the last -n rows; not supported.
        if (arg.i < 0) {
          return Status::NotImplemented("head with a negative count");
        }
        n = static_cast<size_t>(arg.i);
      }
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.Head(n));
      return Value::Frame(std::move(out));
    }
    if (method == "describe") {
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.Describe());
      return Value::Frame(std::move(out));
    }
    if (method == "groupby") {
      Value out = recv;
      out.kind = Value::Kind::kGroupBy;
      LAFP_ASSIGN_OR_RETURN(Value keys, Load(expr.operands.at(0)));
      LAFP_ASSIGN_OR_RETURN(out.keys, ToStringList(keys));
      return out;
    }
    if (IsSeriesReduction(method)) {
      AggFunc func = *df::AggFuncFromName(method);
      LAFP_ASSIGN_OR_RETURN(LazyScalar out, frame.Reduce(func));
      Value v;
      v.kind = Value::Kind::kLazyScalar;
      v.lazy_scalar = std::move(out);
      return v;
    }
    if (method == "merge") {
      LAFP_ASSIGN_OR_RETURN(Value other, Load(expr.operands.at(0)));
      if (other.kind != Value::Kind::kFrame) {
        return Status::TypeError("merge expects a dataframe");
      }
      const IRValue* on = kwarg("on");
      if (on == nullptr) return Status::Invalid("merge requires on=");
      LAFP_ASSIGN_OR_RETURN(Value on_val, Load(*on));
      LAFP_ASSIGN_OR_RETURN(std::vector<std::string> keys,
                            ToStringList(on_val));
      df::JoinType how = df::JoinType::kInner;
      if (const IRValue* h = kwarg("how"); h != nullptr) {
        LAFP_ASSIGN_OR_RETURN(Value how_val, Load(*h));
        if (how_val.kind != Value::Kind::kStr) {
          return Status::TypeError("how must be a string");
        }
        if (how_val.s == "left") {
          how = df::JoinType::kLeft;
        } else if (how_val.s != "inner") {
          return Status::NotImplemented("merge how='" + how_val.s + "'");
        }
      }
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                            frame.Merge(other.frame, keys, how));
      return Value::Frame(std::move(out));
    }
    if (method == "sort_values") {
      const IRValue* by = kwarg("by");
      std::vector<std::string> keys;
      if (by != nullptr) {
        LAFP_ASSIGN_OR_RETURN(Value by_val, Load(*by));
        LAFP_ASSIGN_OR_RETURN(keys, ToStringList(by_val));
      } else if (!expr.operands.empty()) {
        LAFP_ASSIGN_OR_RETURN(Value by_val, Load(expr.operands[0]));
        LAFP_ASSIGN_OR_RETURN(keys, ToStringList(by_val));
      } else {
        return Status::Invalid("sort_values requires by=");
      }
      std::vector<bool> ascending;
      if (const IRValue* asc = kwarg("ascending"); asc != nullptr) {
        LAFP_ASSIGN_OR_RETURN(Value asc_val, Load(*asc));
        if (asc_val.kind == Value::Kind::kBool) {
          ascending = {asc_val.b};
        } else if (asc_val.kind == Value::Kind::kList) {
          for (const auto& e : asc_val.list) {
            if (e.kind != Value::Kind::kBool) {
              return Status::TypeError("ascending must be booleans");
            }
            ascending.push_back(e.b);
          }
        }
      }
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                            frame.SortValues(keys, ascending));
      return Value::Frame(std::move(out));
    }
    if (method == "drop_duplicates") {
      std::vector<std::string> subset;
      if (const IRValue* s = kwarg("subset"); s != nullptr) {
        LAFP_ASSIGN_OR_RETURN(Value sub, Load(*s));
        LAFP_ASSIGN_OR_RETURN(subset, ToStringList(sub));
      }
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.DropDuplicates(subset));
      return Value::Frame(std::move(out));
    }
    if (method == "fillna") {
      LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands.at(0)));
      LAFP_ASSIGN_OR_RETURN(Scalar s, ToScalar(arg));
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.FillNa(s));
      return Value::Frame(std::move(out));
    }
    if (method == "dropna") {
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.DropNa());
      return Value::Frame(std::move(out));
    }
    if (method == "rename") {
      const IRValue* cols = kwarg("columns");
      if (cols == nullptr) return Status::Invalid("rename requires columns=");
      LAFP_ASSIGN_OR_RETURN(Value mapping, Load(*cols));
      if (mapping.kind != Value::Kind::kDict) {
        return Status::TypeError("columns must be a dict");
      }
      std::map<std::string, std::string> renames;
      for (const auto& [from, to] : mapping.dict) {
        if (to.kind != Value::Kind::kStr) {
          return Status::TypeError("rename targets must be strings");
        }
        renames[from] = to.s;
      }
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.Rename(renames));
      return Value::Frame(std::move(out));
    }
    if (method == "drop") {
      const IRValue* cols = kwarg("columns");
      if (cols == nullptr) return Status::Invalid("drop requires columns=");
      LAFP_ASSIGN_OR_RETURN(Value list, Load(*cols));
      LAFP_ASSIGN_OR_RETURN(std::vector<std::string> names,
                            ToStringList(list));
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.Drop(names));
      return Value::Frame(std::move(out));
    }
    if (method == "astype") {
      LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands.at(0)));
      if (arg.kind != Value::Kind::kStr) {
        return Status::TypeError("astype expects a dtype name");
      }
      LAFP_ASSIGN_OR_RETURN(df::DataType t, df::DataTypeFromName(arg.s));
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.AsType(t));
      return Value::Frame(std::move(out));
    }
    if (method == "abs") {
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.Abs());
      return Value::Frame(std::move(out));
    }
    if (method == "round") {
      int digits = 0;
      if (!expr.operands.empty()) {
        LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands[0]));
        if (arg.kind == Value::Kind::kInt) digits = static_cast<int>(arg.i);
      }
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.Round(digits));
      return Value::Frame(std::move(out));
    }
    if (method == "isna") {
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.IsNull());
      return Value::Frame(std::move(out));
    }
    if (method == "isin") {
      LAFP_ASSIGN_OR_RETURN(Value arg, Load(expr.operands.at(0)));
      if (arg.kind != Value::Kind::kList) {
        return Status::TypeError("isin expects a list");
      }
      std::vector<Scalar> values;
      for (const auto& e : arg.list) {
        LAFP_ASSIGN_OR_RETURN(Scalar v, ToScalar(e));
        values.push_back(std::move(v));
      }
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.IsIn(std::move(values)));
      return Value::Frame(std::move(out));
    }
    if (method == "unique") {
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.UniqueValues());
      return Value::Frame(std::move(out));
    }
    if (method == "value_counts") {
      LAFP_ASSIGN_OR_RETURN(FatDataFrame out, frame.ValueCounts());
      return Value::Frame(std::move(out));
    }
    if (method == "compute") {
      // The §3.4/§3.5 forced-computation call with live_df hints.
      std::vector<FatDataFrame> live;
      if (const IRValue* l = kwarg("live_df"); l != nullptr) {
        LAFP_ASSIGN_OR_RETURN(Value lv, Load(*l));
        if (lv.kind != Value::Kind::kList) {
          return Status::TypeError("live_df must be a list");
        }
        for (const auto& e : lv.list) {
          if (e.kind == Value::Kind::kFrame) live.push_back(e.frame);
        }
      }
      // Released first: no round runs while a computed value is held.
      computed_.reset();
      LAFP_ASSIGN_OR_RETURN(exec::EagerValue value, frame.Compute(live));
      computed_ = Computed{frame.node(), std::move(value)};
      computing_ = true;
      return recv;  // the node now holds its materialized result
    }
    return Status::NotImplemented("DataFrame." + method);
  }

  Result<Value> EvalGroupByColCall(const Value& recv,
                                   const std::string& method) {
    if (!IsSeriesReduction(method)) {
      return Status::NotImplemented("groupby agg '" + method + "'");
    }
    AggFunc func = *df::AggFuncFromName(method);
    std::vector<df::AggSpec> aggs{{recv.column, func, recv.column}};
    LAFP_ASSIGN_OR_RETURN(FatDataFrame out,
                          recv.frame.GroupByAgg(recv.keys, aggs));
    return Value::Frame(std::move(out));
  }

  const IRProgram& program_;
  const ProgramModel& model_;
  Session* session_;
  InterpreterStats* stats_;
  std::unordered_map<std::string, Value> env_;
  std::unordered_map<std::string, size_t> labels_;
  /// The last DataFrame.compute's value, kept for the next statement (its
  /// consumer) so that it does not run a second round and materialize the
  /// frame again; released when that statement returns.
  struct Computed {
    lazy::TaskNodePtr node;
    exec::EagerValue value;
  };
  std::optional<Computed> computed_;
  bool computing_ = false;  // the current statement set computed_
};

}  // namespace

Status ExecuteIR(const IRProgram& program, const ProgramModel& model,
                 Session* session, InterpreterStats* stats) {
  return Interpreter(program, model, session, stats).Run();
}

std::string HashDouble(double v) {
  // Collapse -0.0: an all-int partition computes +0 where the
  // whole-column double path computes -0 (e.g. -1 * 0).
  if (v == 0.0) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  std::snprintf(buf, sizeof(buf), "%.6g", std::strtod(buf, nullptr));
  return buf;
}

}  // namespace lafp::script
