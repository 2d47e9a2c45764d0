#include "script/rewriter.h"

#include <algorithm>
#include <map>
#include <optional>

#include "common/macros.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "io/fingerprint.h"

namespace lafp::script {

namespace {

bool IsFileRead(const IRStmt& stmt, const ProgramModel& model) {
  return stmt.kind == IRStmtKind::kAssign &&
         stmt.expr.kind == IRExprKind::kCall &&
         stmt.expr.is_method_call() &&
         (stmt.expr.attr == "read_csv" || stmt.expr.attr == "read_lfc") &&
         stmt.expr.object.is_var() &&
         model.IsPandasModule(stmt.expr.object.var);
}

bool HasKwarg(const IRExpr& expr, const std::string& name) {
  for (const auto& [n, _] : expr.kwargs) {
    if (n == name) return true;
  }
  return false;
}

/// The columns of the file a read names: the LFC footer's (also returned
/// in `lfc`, which holds each string column's dictionary size) or the CSV
/// header's. nullopt when the file cannot be read.
std::optional<std::vector<std::string>> FileColumns(
    const std::string& path, std::optional<io::LfcFileInfo>* lfc) {
  if (io::IsLfcFile(path)) {
    auto info = io::ReadLfcInfo(path);
    if (!info.ok()) return std::nullopt;
    std::vector<std::string> names;
    for (const auto& c : info->columns) names.push_back(c.name);
    *lfc = *std::move(info);
    return names;
  }
  auto header = io::ReadCsvHeaderNames(path, ',');
  if (!header.ok()) return std::nullopt;
  return *std::move(header);
}

/// An external-module call whose arguments include dataframe variables
/// (§3.4 forced-computation sites).
std::vector<size_t> ExternalFrameArgs(const IRExpr& expr,
                                      const ProgramModel& model) {
  std::vector<size_t> out;
  bool external =
      (expr.kind == IRExprKind::kCall && expr.is_method_call() &&
       expr.object.is_var() && model.IsExternalModule(expr.object.var)) ||
      (expr.kind == IRExprKind::kCall &&
       (expr.global_name == "plot" || expr.global_name == "checksum"));
  if (!external) return out;
  for (size_t i = 0; i < expr.operands.size(); ++i) {
    const IRValue& arg = expr.operands[i];
    if (arg.is_var() &&
        model.KindOf(arg.var) == VarKind::kDataFrame) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace

namespace {

/// Variables that (transitively) feed a branch condition. A len() over a
/// lazy frame whose result reaches a branch forces computation at the
/// branch; the rewriter gives that forcing point live_df hints too.
std::set<std::string> BranchFeedingVars(const IRProgram& program) {
  std::set<std::string> vars;
  for (const auto& stmt : program.stmts) {
    if (stmt.kind == IRStmtKind::kBranch && stmt.cond.is_var()) {
      vars.insert(stmt.cond.var);
    }
  }
  // Propagate backwards through scalar assignments to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = program.stmts.rbegin(); it != program.stmts.rend();
         ++it) {
      const IRStmt& stmt = *it;
      if (stmt.kind != IRStmtKind::kAssign ||
          vars.count(stmt.target) == 0) {
        continue;
      }
      auto add = [&](const IRValue& v) {
        if (v.is_var() && vars.insert(v.var).second) changed = true;
      };
      for (const auto& v : stmt.expr.operands) add(v);
      if (stmt.expr.kind == IRExprKind::kAtom) add(stmt.expr.atom);
    }
  }
  return vars;
}

}  // namespace

Result<IRProgram> Rewrite(const IRProgram& program,
                          const RewriteOptions& options,
                          RewriteStats* stats) {
  RewriteStats local;
  if (stats == nullptr) stats = &local;

  std::set<std::string> branch_feeding = BranchFeedingVars(program);
  ProgramModel model = BuildProgramModel(program);
  LAFP_ASSIGN_OR_RETURN(Cfg cfg, BuildCfg(program));
  LAFP_ASSIGN_OR_RETURN(LivenessResult liveness,
                        RunLivenessAnalysis(cfg, model));
  LAFP_ASSIGN_OR_RETURN(std::vector<FactSet> defined_before,
                        DefinitelyAssignedBefore(cfg));

  IRProgram out;
  out.temp_counter = program.temp_counter;

  std::string pandas_alias =
      model.pandas_aliases.empty() ? "pd" : *model.pandas_aliases.begin();

  for (size_t i = 0; i < program.stmts.size(); ++i) {
    IRStmt stmt = program.stmts[i];

    // ---- §3.1 column selection + §3.6 dtype hints on file reads ----
    if (IsFileRead(stmt, model)) {
      bool all_columns = false;
      std::vector<std::string> live_cols =
          liveness.LiveColumnsAfter(i, stmt.target, &all_columns);
      std::sort(live_cols.begin(), live_cols.end());
      // Restrict liveness-derived columns to those actually present in
      // the file. Liveness over-approximates across merges (a column may
      // come from either side); reading a column the file lacks would fail.
      const bool literal_path =
          !stmt.expr.operands.empty() && stmt.expr.operands[0].is_str();
      std::optional<io::LfcFileInfo> lfc;
      if (literal_path) {
        auto fields = FileColumns(stmt.expr.operands[0].str_value, &lfc);
        if (fields.has_value()) {
          std::erase_if(live_cols, [&](const std::string& c) {
            return std::find(fields->begin(), fields->end(), c) ==
                   fields->end();
          });
        }
      }

      bool pruned = false;
      if (options.column_selection && !all_columns && !live_cols.empty() &&
          !HasKwarg(stmt.expr, "usecols")) {
        IRStmt list_stmt;
        list_stmt.kind = IRStmtKind::kAssign;
        list_stmt.target = out.NewTemp();
        list_stmt.expr.kind = IRExprKind::kList;
        for (const auto& c : live_cols) {
          list_stmt.expr.operands.push_back(IRValue::Str(c));
        }
        list_stmt.line = stmt.line;
        stmt.expr.kwargs.emplace_back("usecols",
                                      IRValue::Var(list_stmt.target));
        out.stmts.push_back(std::move(list_stmt));
        pruned = true;
        ++stats->reads_pruned;
      }

      // §3.6 dtype hints. A CSV read takes them from the metastore's
      // sample; an LFC read needs no sample, as its footer holds each
      // string column's exact dictionary. Only read-only columns (never
      // assigned anywhere in the program, §3.6 safety) become categories,
      // and only columns that will actually be read get a hint.
      std::map<std::string, df::DataType> hints;
      auto read_only = [&](const std::string& col) {
        return model.assigned_columns.count(col) == 0;
      };
      auto live = [&](const std::string& col) {
        return std::binary_search(live_cols.begin(), live_cols.end(), col);
      };
      if (options.metadata_dtypes && literal_path &&
          !HasKwarg(stmt.expr, "dtype")) {
        if (lfc.has_value()) {
          // An all-null column has an empty dictionary and stays a string,
          // as a CSV column with no sampled value does.
          for (const auto& col : lfc->columns) {
            if (col.type == df::DataType::kString && col.dict_size > 0 &&
                int64_t{col.dict_size} <= options.category_max_distinct &&
                read_only(col.name) && (all_columns || live(col.name))) {
              hints[col.name] = df::DataType::kCategory;
            }
          }
        } else if (options.metastore != nullptr &&
                   stmt.expr.attr == "read_csv" &&
                   !io::IsLfcFile(stmt.expr.operands[0].str_value)) {
          auto md = options.metastore->GetOrCompute(
              stmt.expr.operands[0].str_value);
          if (md.ok()) {
            std::vector<std::string> read_only_cols;
            for (const auto& col : md->columns) {
              if (read_only(col.name)) read_only_cols.push_back(col.name);
            }
            for (const auto& [col, type] : md->DtypeHints(
                     read_only_cols, options.category_max_distinct)) {
              if (!pruned || live(col)) hints[col] = type;
            }
          }
        }
      }
      if (!hints.empty()) {
        IRStmt dict_stmt;
        dict_stmt.kind = IRStmtKind::kAssign;
        dict_stmt.target = out.NewTemp();
        dict_stmt.expr.kind = IRExprKind::kDict;
        for (const auto& [col, type] : hints) {
          dict_stmt.expr.dict_items.emplace_back(
              IRValue::Str(col), IRValue::Str(df::DataTypeName(type)));
          if (type == df::DataType::kCategory) ++stats->category_columns;
        }
        dict_stmt.line = stmt.line;
        stmt.expr.kwargs.emplace_back("dtype", IRValue::Var(dict_stmt.target));
        out.stmts.push_back(std::move(dict_stmt));
        ++stats->dtype_hints_added;
      }
      out.stmts.push_back(std::move(stmt));
      continue;
    }

    // ---- §3.4 forced computation before external calls ----
    if (options.forced_compute &&
        (stmt.kind == IRStmtKind::kExprStmt ||
         stmt.kind == IRStmtKind::kAssign)) {
      std::vector<size_t> frame_args = ExternalFrameArgs(stmt.expr, model);
      // len() whose result decides a branch forces computation at the
      // branch. Rewrite `n = len(df)` into a hinted scalar compute
      // (`n = len(df).compute(live_df=[...])`): the scalar evaluation
      // streams, and the live_df hints persist the shared chain (§3.5)
      // without materializing the frame itself.
      if (frame_args.empty() && stmt.kind == IRStmtKind::kAssign &&
          stmt.expr.kind == IRExprKind::kCall &&
          stmt.expr.global_name == "len" &&
          branch_feeding.count(stmt.target) > 0 &&
          !stmt.expr.operands.empty() && stmt.expr.operands[0].is_var() &&
          model.KindOf(stmt.expr.operands[0].var) == VarKind::kDataFrame) {
        std::vector<std::string> live_dfs =
            LiveDataFramesAfter(liveness, model, i);
        IRStmt live_list;
        live_list.kind = IRStmtKind::kAssign;
        live_list.target = out.NewTemp();
        live_list.expr.kind = IRExprKind::kList;
        for (const auto& name : live_dfs) {
          if (defined_before[i].count(name) == 0) continue;
          live_list.expr.operands.push_back(IRValue::Var(name));
        }
        live_list.line = stmt.line;
        std::string scalar_temp = out.NewTemp();
        IRStmt len_stmt = stmt;
        len_stmt.target = scalar_temp;
        IRStmt force;
        force.kind = IRStmtKind::kAssign;
        force.target = stmt.target;
        force.expr.kind = IRExprKind::kCall;
        force.expr.object = IRValue::Var(scalar_temp);
        force.expr.attr = "compute";
        force.expr.kwargs.emplace_back("live_df",
                                       IRValue::Var(live_list.target));
        force.line = stmt.line;
        out.stmts.push_back(std::move(live_list));
        out.stmts.push_back(std::move(len_stmt));
        out.stmts.push_back(std::move(force));
        ++stats->computes_inserted;
        continue;
      }
      if (!frame_args.empty()) {
        // live_df list: dataframes live after this call (§3.5) — the
        // shared-subexpression persist hints.
        std::vector<std::string> live_dfs =
            LiveDataFramesAfter(liveness, model, i);
        IRStmt live_list;
        live_list.kind = IRStmtKind::kAssign;
        live_list.target = out.NewTemp();
        live_list.expr.kind = IRExprKind::kList;
        for (const auto& name : live_dfs) {
          // Liveness is a may-analysis: only names definitely assigned
          // on every path to this point may be referenced at runtime.
          if (defined_before[i].count(name) == 0) continue;
          live_list.expr.operands.push_back(IRValue::Var(name));
        }
        live_list.line = stmt.line;
        out.stmts.push_back(live_list);
        for (size_t arg_idx : frame_args) {
          IRStmt compute_stmt;
          compute_stmt.kind = IRStmtKind::kAssign;
          compute_stmt.target = out.NewTemp();
          compute_stmt.expr.kind = IRExprKind::kCall;
          compute_stmt.expr.object = stmt.expr.operands[arg_idx];
          compute_stmt.expr.attr = "compute";
          compute_stmt.expr.kwargs.emplace_back(
              "live_df", IRValue::Var(live_list.target));
          compute_stmt.line = stmt.line;
          stmt.expr.operands[arg_idx] = IRValue::Var(compute_stmt.target);
          out.stmts.push_back(std::move(compute_stmt));
          ++stats->computes_inserted;
        }
      }
    }
    out.stmts.push_back(std::move(stmt));
  }

  // ---- §3.3: flush pending lazy prints at program end ----
  if (options.insert_flush) {
    IRStmt flush;
    flush.kind = IRStmtKind::kExprStmt;
    flush.expr.kind = IRExprKind::kCall;
    flush.expr.object = IRValue::Var(pandas_alias);
    flush.expr.attr = "flush";
    out.stmts.push_back(std::move(flush));
    stats->flush_inserted = true;
  }
  return out;
}

}  // namespace lafp::script
