#ifndef LAFP_SCRIPT_INTERPRETER_H_
#define LAFP_SCRIPT_INTERPRETER_H_

#include <map>
#include <string>
#include <vector>

#include "lazy/fat_dataframe.h"
#include "script/ir.h"
#include "script/model.h"

namespace lafp::script {

/// A runtime value of the PdScript interpreter. Dataframes and lazily
/// computed scalars wrap the LaFP handles, so the interpreter *is* the
/// execution layer the paper's rewritten programs run on.
struct Value {
  enum class Kind : int {
    kNone = 0,
    kInt,
    kFloat,
    kBool,
    kStr,
    kFrame,        // FatDataFrame (dataframe or series)
    kLazyScalar,   // reductions / len
    kGroupBy,      // df.groupby(keys)
    kGroupByCol,   // df.groupby(keys)[col]
    kDtAccessor,   // series.dt
    kStrAccessor,  // series.str
    kModule,       // pd / plt
    kList,
    kDict,
    kFormatted,    // an f-string with (possibly lazy) embedded values
  };

  Kind kind = Kind::kNone;
  int64_t i = 0;
  double f = 0.0;
  bool b = false;
  std::string s;                       // kStr / kModule name
  lazy::FatDataFrame frame;            // kFrame / accessor+groupby base
  lazy::LazyScalar lazy_scalar;        // kLazyScalar
  std::vector<std::string> keys;       // kGroupBy / kGroupByCol
  std::string column;                  // kGroupByCol
  std::vector<Value> list;             // kList
  std::map<std::string, Value> dict;   // kDict (string keys)
  // kFormatted: literals.size() == parts.size() + 1
  std::vector<std::string> literals;
  std::vector<Value> parts;

  static Value None() { return Value(); }
  static Value Int(int64_t v) {
    Value out;
    out.kind = Kind::kInt;
    out.i = v;
    return out;
  }
  static Value Float(double v) {
    Value out;
    out.kind = Kind::kFloat;
    out.f = v;
    return out;
  }
  static Value Bool(bool v) {
    Value out;
    out.kind = Kind::kBool;
    out.b = v;
    return out;
  }
  static Value Str(std::string v) {
    Value out;
    out.kind = Kind::kStr;
    out.s = std::move(v);
    return out;
  }
  static Value Frame(lazy::FatDataFrame f) {
    Value out;
    out.kind = Kind::kFrame;
    out.frame = std::move(f);
    return out;
  }

  bool is_numeric() const {
    return kind == Kind::kInt || kind == Kind::kFloat ||
           kind == Kind::kBool;
  }
  double AsDouble() const {
    switch (kind) {
      case Kind::kInt:
        return static_cast<double>(i);
      case Kind::kFloat:
        return f;
      case Kind::kBool:
        return b ? 1.0 : 0.0;
      default:
        return 0.0;
    }
  }
};

struct InterpreterStats {
  int64_t statements_executed = 0;
};

/// Execute a lowered program against a LaFP session. The session's mode
/// decides semantics: eager (plain Pandas/Modin), lazy without lazy print
/// (hand-ported Dask), or full LaFP.
Status ExecuteIR(const IRProgram& program, const ProgramModel& model,
                 lazy::Session* session,
                 InterpreterStats* stats = nullptr);

/// A double as `checksum()` hashes it: snapped to 12 significant digits,
/// then rounded to 6. Two sums of the same values added in different
/// orders (one pass vs. two-phase over partitions) differ in the last
/// bits; the snap makes them print alike even at a 6-digit rounding tie,
/// where "%.6g" alone would round them apart (48.54125 vs. one ULP below).
/// -0.0 prints as 0.
std::string HashDouble(double v);

}  // namespace lafp::script

#endif  // LAFP_SCRIPT_INTERPRETER_H_
