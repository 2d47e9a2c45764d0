#include "testing/progen.h"

#include <algorithm>

#include "common/string_util.h"
#include "testing/rng.h"

namespace lafp::testing {

namespace {

/// What the generator knows about a live frame variable: enough to keep
/// every emitted operation well typed.
struct FrameVar {
  std::string name;
  std::vector<FuzzColumn> cols;
  /// groupby, value_counts, unique and describe results:
  /// print/checksum/head only.
  bool reduced = false;
  /// Source table ordinal, -1 after a merge. Merges are only generated
  /// between frames of distinct roots so non-key column names never
  /// collide.
  int root = -1;
};

struct ScalarVar {
  std::string name;
};

class ProgramBuilder {
 public:
  ProgramBuilder(uint64_t seed, const ProgramGenOptions& options)
      : rng_(seed), options_(options) {}

  GeneratedProgram Build() {
    Line("import lazyfatpandas.pandas as pd");
    size_t num_tables = rng_.Chance(0.6) ? 2 : 1;
    for (size_t t = 0; t < num_tables; ++t) {
      TableSpec spec;
      spec.name = "t" + std::to_string(t);
      spec.seed = rng_.Next();
      // Mostly small tables; occasionally empty or single-row frames.
      if (rng_.Chance(0.04)) {
        spec.rows = static_cast<int64_t>(rng_.Below(2));
      } else {
        spec.rows = 1 + static_cast<int64_t>(
                            rng_.Below(static_cast<uint64_t>(
                                std::max<int64_t>(options_.max_rows, 1))));
      }
      tables_.push_back(spec);
      FrameVar frame;
      frame.name = "df" + std::to_string(t);
      frame.cols = SchemaForSeed(spec.seed, spec.name);
      frame.root = static_cast<int>(t);
      if (spec.rows == 0) {
        // A header-only CSV gives type inference nothing to work with, so
        // every column reads back as string; generate accordingly or the
        // reference itself rejects e.g. `empty.i0 < 11`.
        for (auto& c : frame.cols) c.kind = 's';
      }
      Line(frame.name + " = pd.read_csv(\"{" + spec.name + "}\")");
      frames_.push_back(std::move(frame));
    }

    int statements = 3 + static_cast<int>(rng_.Below(static_cast<uint64_t>(
                             std::max(options_.max_statements - 2, 1))));
    for (int i = 0; i < statements; ++i) EmitRandomStatement();

    // Epilogue: every live frame is checksummed (canonicalized frame
    // equality) and every scalar printed — the observable the oracle
    // compares across configurations.
    for (const auto& s : scalars_) {
      Line("print(f\"" + s.name + ": {" + s.name + "}\")");
    }
    for (const auto& f : frames_) Line("checksum(" + f.name + ")");

    GeneratedProgram out;
    out.source = source_;
    out.tables = tables_;
    return out;
  }

 private:
  // ---- emission helpers ----

  void Line(const std::string& text) {
    source_ += indent_;
    source_ += text;
    source_ += "\n";
  }

  std::string NewFrameName() {
    return "v" + std::to_string(next_frame_id_++);
  }
  std::string NewScalarName() {
    return "s" + std::to_string(next_scalar_id_++);
  }
  std::string NewColName() { return "x" + std::to_string(next_col_id_++); }

  FrameVar* PickFrame(bool allow_reduced = false) {
    std::vector<FrameVar*> candidates;
    for (auto& f : frames_) {
      if (f.reduced && !allow_reduced) continue;
      candidates.push_back(&f);
    }
    if (candidates.empty()) return nullptr;
    return candidates[rng_.Below(candidates.size())];
  }

  const FuzzColumn* PickCol(const FrameVar& frame, const char* kinds) {
    std::vector<const FuzzColumn*> candidates;
    for (const auto& c : frame.cols) {
      for (const char* k = kinds; *k != '\0'; ++k) {
        if (c.kind == *k) {
          candidates.push_back(&c);
          break;
        }
      }
    }
    if (candidates.empty()) return nullptr;
    return candidates[rng_.Below(candidates.size())];
  }

  /// A literal comparable against `col`, written in PdScript syntax.
  std::string LiteralFor(const FuzzColumn& col) {
    uint64_t idx = rng_.Below(static_cast<uint64_t>(col.domain));
    switch (col.kind) {
      case 'i':
        return std::to_string(static_cast<int64_t>(idx) - 1);
      case 'f':
        return FormatDouble(static_cast<double>(idx) * 0.25);
      case 's':
        return "\"v" + std::to_string(idx) + "\"";
      case 't':
        break;
    }
    return "0";
  }

  std::string CompareOp() {
    static const char* kOps[] = {">", ">=", "<", "<=", "==", "!="};
    return kOps[rng_.Below(6)];
  }

  std::string FilterExpr(const FrameVar& frame) {
    const FuzzColumn* col = PickCol(frame, rng_.Chance(0.3) ? "si" : "if");
    if (col == nullptr) col = &frame.cols[rng_.Below(frame.cols.size())];
    std::string base = frame.name + "." + col->name;
    switch (col->kind) {
      case 's': {
        if (rng_.Chance(0.4)) {
          // isin over a small literal list.
          std::string list = LiteralFor(*col);
          if (rng_.Chance(0.7)) list += ", " + LiteralFor(*col);
          return base + ".isin([" + list + "])";
        }
        return base + (rng_.Chance(0.5) ? " == " : " != ") +
               LiteralFor(*col);
      }
      case 'i':
        if (rng_.Chance(0.25)) {
          return base + ".isin([" + LiteralFor(*col) + ", " +
                 LiteralFor(*col) + "])";
        }
        [[fallthrough]];
      default:
        return base + " " + CompareOp() + " " + LiteralFor(*col);
    }
  }

  // ---- statement generators ----

  void EmitRandomStatement() {
    // Weighted surface coverage; generators that lack a precondition
    // (no timestamp column, only one table, ...) fall through to a
    // plain filter, which is always possible.
    switch (rng_.Below(15)) {
      case 0:
      case 1:
        EmitFilter();
        return;
      case 2:
        EmitConjFilter();
        return;
      case 3:
        EmitAssign();
        return;
      case 4:
        EmitDtAssign();
        return;
      case 5:
        EmitGroupBy();
        return;
      case 6:
        EmitMerge();
        return;
      case 7:
        EmitSortOrHead();
        return;
      case 8:
        EmitConcat();
        return;
      case 9:
        EmitCleaning();
        return;
      case 10:
        EmitScalar();
        return;
      case 11:
        EmitPrint();
        return;
      case 12:
        if (options_.control_flow) {
          EmitControlFlow();
          return;
        }
        EmitFilter();
        return;
      case 13:
        EmitDropDuplicates();
        return;
      default:
        EmitSummary();
        return;
    }
  }

  void EmitFilter() {
    FrameVar* src = PickFrame();
    if (src == nullptr) return;
    FrameVar out = *src;
    out.name = NewFrameName();
    Line(out.name + " = " + src->name + "[" + FilterExpr(*src) + "]");
    AddFrame(std::move(out));
  }

  void EmitConjFilter() {
    FrameVar* src = PickFrame();
    if (src == nullptr) return;
    FrameVar out = *src;
    out.name = NewFrameName();
    Line(out.name + " = " + src->name + "[(" + FilterExpr(*src) + ") & (" +
         FilterExpr(*src) + ")]");
    AddFrame(std::move(out));
  }

  void EmitAssign() {
    FrameVar* src = PickFrame();
    if (src == nullptr) return;
    const FuzzColumn* a = PickCol(*src, "if");
    if (a == nullptr) {
      EmitFilter();
      return;
    }
    static const char* kOps[] = {"+", "-", "*", "%"};
    std::string op = kOps[rng_.Below(4)];
    FuzzColumn added;
    added.name = NewColName();
    std::string rhs;
    if (rng_.Chance(0.25)) {
      rhs = src->name + "." + a->name + ".abs()";
      added.kind = a->kind;
    } else if (rng_.Chance(0.5)) {
      const FuzzColumn* b = PickCol(*src, "if");
      rhs = src->name + "." + a->name + " " + op + " " + src->name + "." +
            b->name;
      added.kind = (a->kind == 'f' || b->kind == 'f') ? 'f' : 'i';
    } else {
      // Span negative operands so floored-mod sign handling and signed
      // wraparound stay under differential test (pandas `%` follows the
      // divisor's sign; literal 0 is legal — int mod-by-zero yields 0).
      int64_t mag = op == "%" ? static_cast<int64_t>(rng_.Below(5))
                              : 1 + static_cast<int64_t>(rng_.Below(4));
      std::string lit =
          std::to_string(rng_.Chance(0.4) ? -mag : mag);
      rhs = src->name + "." + a->name + " " + op + " " + lit;
      added.kind = a->kind;
    }
    added.domain = 64;
    Line(src->name + "[\"" + added.name + "\"] = " + rhs);
    src->cols.push_back(added);
  }

  void EmitDtAssign() {
    FrameVar* src = PickFrame();
    const FuzzColumn* ts = src != nullptr ? PickCol(*src, "t") : nullptr;
    if (ts == nullptr) {
      EmitFilter();
      return;
    }
    static const char* kFields[] = {"month", "year", "day", "dayofweek",
                                    "hour"};
    FuzzColumn added;
    added.name = NewColName();
    added.kind = 'i';
    added.domain = 32;
    Line(src->name + "[\"" + added.name + "\"] = " + src->name + "." +
         ts->name + ".dt." + kFields[rng_.Below(5)]);
    src->cols.push_back(added);
  }

  void EmitGroupBy() {
    FrameVar* src = PickFrame();
    if (src == nullptr) return;
    const FuzzColumn* key = PickCol(*src, rng_.Chance(0.5) ? "s" : "i");
    const FuzzColumn* value = PickCol(*src, "if");
    if (key == nullptr || value == nullptr || key->name == value->name) {
      EmitFilter();
      return;
    }
    static const char* kAggs[] = {"sum", "mean", "count", "min", "max"};
    FrameVar out;
    out.name = NewFrameName();
    out.cols = {*key, *value};
    out.reduced = true;
    Line(out.name + " = " + src->name + ".groupby([\"" + key->name +
         "\"])[\"" + value->name + "\"]." + kAggs[rng_.Below(5)] + "()");
    AddFrame(std::move(out));
  }

  void EmitMerge() {
    // Two frames with distinct roots (so non-key names cannot collide),
    // both still carrying the shared "key" column.
    std::vector<std::pair<FrameVar*, FrameVar*>> pairs;
    for (auto& a : frames_) {
      if (a.reduced || a.root < 0 || !HasKey(a)) continue;
      for (auto& b : frames_) {
        if (b.reduced || b.root < 0 || b.root == a.root || !HasKey(b)) {
          continue;
        }
        pairs.push_back({&a, &b});
      }
    }
    if (pairs.empty()) {
      EmitFilter();
      return;
    }
    auto [left, right] = pairs[rng_.Below(pairs.size())];
    FrameVar out;
    out.name = NewFrameName();
    out.root = -1;
    out.cols = left->cols;
    for (const auto& c : right->cols) {
      if (c.name != "key") out.cols.push_back(c);
    }
    std::string how = rng_.Chance(0.3) ? "left" : "inner";
    Line(out.name + " = " + left->name + ".merge(" + right->name +
         ", on=[\"key\"], how=\"" + how + "\")");
    AddFrame(std::move(out));
  }

  void EmitSortOrHead() {
    FrameVar* src = PickFrame();
    if (src == nullptr) return;
    FrameVar out = *src;
    out.name = NewFrameName();
    if (!rng_.Chance(0.55)) {
      Line(out.name + " = " + src->name + ".head(" + HeadCount() + ")");
      AddFrame(std::move(out));
      return;
    }
    const FuzzColumn* by = PickCol(*src, "ifst");
    if (by == nullptr) return;
    std::string keys = "\"" + by->name + "\"";
    std::string asc = rng_.Chance(0.5) ? "True" : "False";
    if (rng_.Chance(0.3)) {
      // A second key, each key with its own direction.
      const FuzzColumn* then = PickCol(*src, "ifst");
      if (then != by) {
        keys += ", \"" + then->name + "\"";
        asc = "[" + asc + ", " + (rng_.Chance(0.5) ? "True" : "False") + "]";
      }
    }
    Line(out.name + " = " + src->name + ".sort_values(by=[" + keys +
         "], ascending=" + asc + ")");
    // Half the sorts feed head(n) directly: the optimizer's top_k.
    FrameVar top = out;
    const bool head = rng_.Chance(0.5);
    if (head) {
      top.name = NewFrameName();
      Line(top.name + " = " + out.name + ".head(" + HeadCount() + ")");
    }
    AddFrame(std::move(out));
    if (head) AddFrame(std::move(top));
  }

  /// head(0) keeps the schema: a later `.x.sum()` must still resolve.
  std::string HeadCount() {
    return std::to_string(rng_.Chance(0.15) ? 0 : 2 + rng_.Below(20));
  }

  void EmitConcat() {
    // Candidates must have identical column lists; self-concat is the
    // always-available degenerate case.
    FrameVar* a = PickFrame();
    if (a == nullptr) return;
    FrameVar* b = nullptr;
    for (auto& f : frames_) {
      if (&f != a && !f.reduced && SameColumns(f, *a) && rng_.Chance(0.5)) {
        b = &f;
        break;
      }
    }
    if (b == nullptr) b = a;
    FrameVar out = *a;
    out.name = NewFrameName();
    Line(out.name + " = pd.concat([" + a->name + ", " + b->name + "])");
    AddFrame(std::move(out));
  }

  void EmitCleaning() {
    FrameVar* src = PickFrame();
    if (src == nullptr) return;
    FrameVar out = *src;
    out.name = NewFrameName();
    Line(out.name + " = " + src->name +
         (rng_.Chance(0.5) ? ".dropna()" : ".fillna(0)"));
    AddFrame(std::move(out));
  }

  void EmitDropDuplicates() {
    FrameVar* src = PickFrame();
    if (src == nullptr) return;
    const FuzzColumn* by = PickCol(*src, "is");
    if (by == nullptr) {
      EmitFilter();
      return;
    }
    FrameVar out = *src;
    out.name = NewFrameName();
    Line(out.name + " = " + src->name + ".drop_duplicates(subset=[\"" +
         by->name + "\"])");
    AddFrame(std::move(out));
  }

  /// value_counts(), unique() or describe(): the combiners whose folds
  /// must keep eager's order and bits. The result is only printed and
  /// checksummed, so its columns are not tracked.
  void EmitSummary() {
    FrameVar* src = PickFrame();
    if (src == nullptr) return;
    FrameVar out;
    out.name = NewFrameName();
    out.reduced = true;
    const std::string col =
        src->name + "." + src->cols[rng_.Below(src->cols.size())].name;
    static const char* kSummaries[] = {".value_counts()", ".unique()"};
    const uint64_t pick = rng_.Below(3);
    Line(out.name + " = " +
         (pick < 2 ? col + kSummaries[pick] : src->name + ".describe()"));
    AddFrame(std::move(out));
  }

  void EmitScalar() {
    FrameVar* src = PickFrame();
    if (src == nullptr) return;
    ScalarVar s;
    s.name = NewScalarName();
    if (rng_.Chance(0.4)) {
      Line(s.name + " = len(" + src->name + ")");
    } else {
      const FuzzColumn* col = PickCol(*src, "if");
      if (col == nullptr) {
        Line(s.name + " = len(" + src->name + ")");
      } else {
        static const char* kAggs[] = {"sum", "mean", "min", "max", "count",
                                      "nunique"};
        Line(s.name + " = " + src->name + "." + col->name + "." +
             kAggs[rng_.Below(6)] + "()");
      }
    }
    scalars_.push_back(std::move(s));
  }

  void EmitPrint() {
    if (!scalars_.empty() && rng_.Chance(0.35)) {
      const ScalarVar& s = scalars_[rng_.Below(scalars_.size())];
      Line("print(f\"mid " + s.name + ": {" + s.name + "}\")");
      return;
    }
    FrameVar* f = PickFrame(/*allow_reduced=*/true);
    if (f == nullptr) return;
    if (f->reduced && rng_.Chance(0.6)) {
      Line("print(" + f->name + ")");
    } else {
      Line("print(" + f->name + ".head())");
    }
  }

  void EmitControlFlow() {
    switch (rng_.Below(3)) {
      case 0: {  // if/else: both branches define the same fresh frame.
        FrameVar* src = PickFrame();
        if (src == nullptr) return;
        ScalarVar cond;
        cond.name = NewScalarName();
        Line(cond.name + " = len(" + src->name + ")");
        scalars_.push_back(cond);
        FrameVar out = *src;
        out.name = NewFrameName();
        Line("if " + cond.name + " > " + std::to_string(rng_.Below(40)) +
             ":");
        indent_ = "    ";
        Line(out.name + " = " + src->name + "[" + FilterExpr(*src) + "]");
        indent_ = "";
        Line("else:");
        indent_ = "    ";
        Line(out.name + " = " + src->name + ".head(" +
             std::to_string(1 + rng_.Below(10)) + ")");
        indent_ = "";
        AddFrame(std::move(out));
        return;
      }
      case 1: {  // bounded for over range: repeated schema-preserving op.
        FrameVar* src = PickFrame();
        if (src == nullptr) return;
        Line("for i in range(" + std::to_string(2 + rng_.Below(2)) + "):");
        indent_ = "    ";
        Line(src->name + " = " + src->name + ".head(" +
             std::to_string(5 + rng_.Below(30)) + ")");
        indent_ = "";
        return;
      }
      default: {  // counter-driven while (always terminates).
        ScalarVar acc;
        acc.name = NewScalarName();
        std::string counter = acc.name + "k";
        Line(acc.name + " = 0");
        Line(counter + " = " + std::to_string(2 + rng_.Below(3)));
        Line("while " + counter + " > 0:");
        indent_ = "    ";
        Line(acc.name + " = " + acc.name + " + " + counter);
        Line(counter + " = " + counter + " - 1");
        indent_ = "";
        scalars_.push_back(acc);
        return;
      }
    }
  }

  // ---- bookkeeping ----

  static bool HasKey(const FrameVar& frame) {
    for (const auto& c : frame.cols) {
      if (c.name == "key") return true;
    }
    return false;
  }

  static bool SameColumns(const FrameVar& a, const FrameVar& b) {
    if (a.cols.size() != b.cols.size()) return false;
    for (size_t i = 0; i < a.cols.size(); ++i) {
      if (a.cols[i].name != b.cols[i].name) return false;
    }
    return true;
  }

  void AddFrame(FrameVar frame) {
    frames_.push_back(std::move(frame));
    // Bound the live set so programs stay readable and rounds stay small.
    if (frames_.size() > 8) frames_.erase(frames_.begin() + 2);
  }

  SplitMix rng_;
  ProgramGenOptions options_;
  std::string source_;
  std::string indent_;
  std::vector<TableSpec> tables_;
  std::vector<FrameVar> frames_;
  std::vector<ScalarVar> scalars_;
  int next_frame_id_ = 1;
  int next_scalar_id_ = 1;
  int next_col_id_ = 1;
};

}  // namespace

GeneratedProgram GenerateProgram(uint64_t seed,
                                 const ProgramGenOptions& options) {
  return ProgramBuilder(seed, options).Build();
}

std::string SubstitutePaths(
    std::string source,
    const std::vector<std::pair<std::string, std::string>>& paths) {
  for (const auto& [name, path] : paths) {
    std::string placeholder = "{" + name + "}";
    size_t pos;
    while ((pos = source.find(placeholder)) != std::string::npos) {
      source.replace(pos, placeholder.size(), path);
    }
  }
  return source;
}

}  // namespace lafp::testing
