#include "bench/harness.h"

#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "bench/programs.h"
#include "common/timer.h"
#include "common/trace.h"
#include "meta/metadata.h"
#include "optimizer/passes.h"
#include "script/analyze.h"

namespace lafp::bench {

std::string ConfigName(const BenchConfig& config) {
  std::string base;
  switch (config.backend) {
    case exec::BackendKind::kPandas:
      base = "Pandas";
      break;
    case exec::BackendKind::kModin:
      base = "Modin";
      break;
    case exec::BackendKind::kDask:
      base = "Dask";
      break;
  }
  return config.optimized ? "L" + base : base;
}

std::vector<BenchConfig> AllConfigs(int64_t memory_budget) {
  std::vector<BenchConfig> configs;
  for (auto backend :
       {exec::BackendKind::kPandas, exec::BackendKind::kModin,
        exec::BackendKind::kDask}) {
    for (bool optimized : {false, true}) {
      BenchConfig c;
      c.backend = backend;
      c.optimized = optimized;
      c.memory_budget = memory_budget;
      configs.push_back(c);
    }
  }
  // Figure order: Pandas, LPandas, Modin, LModin, Dask, LDask.
  return configs;
}

std::string BenchScratchDir() {
  const char* env = std::getenv("LAFP_BENCH_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return (std::filesystem::temp_directory_path() / "lafp_bench").string();
}

std::vector<std::pair<std::string, int>> BenchSizes() {
  const char* quick = std::getenv("LAFP_BENCH_QUICK");
  if (quick != nullptr && quick[0] == '1') {
    return {{"S", 1}};
  }
  return {{"S", 1}, {"M", 3}, {"L", 9}};
}

int64_t DefaultMemoryBudget() {
  const char* env = std::getenv("LAFP_BENCH_BUDGET");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoll(env, nullptr, 10);
  }
  // Chosen so the Figure 12 shape reproduces: all 10 programs fit at S,
  // eager backends start failing at L, streaming Dask mostly survives.
  return 100LL * 1000 * 1000;
}

namespace {

int64_t DefaultOverheadUs(exec::BackendKind backend) {
  switch (backend) {
    case exec::BackendKind::kPandas:
      return 0;
    case exec::BackendKind::kModin:
      return 120;  // Ray-style per-partition dispatch
    case exec::BackendKind::kDask:
      return 250;  // lazy scheduler per task
  }
  return 0;
}

/// Extract the checksum lines (the §5.2 regression payload) from a
/// program's stdout.
std::string ChecksumLines(const std::string& output) {
  std::istringstream in(output);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("checksum ", 0) == 0) {
      out += line;
      out += "\n";
    }
  }
  return out;
}

}  // namespace

BenchResult RunBenchmark(const std::string& program_name,
                         const std::map<std::string, std::string>& paths,
                         const BenchConfig& config,
                         const std::string& scratch_dir) {
  BenchResult result;
  auto source = ProgramSource(program_name, paths);
  if (!source.ok()) {
    result.status = source.status();
    return result;
  }

  MemoryTracker tracker(config.memory_budget);
  lazy::SessionOptions opts;
  opts.backend = config.backend;
  opts.tracker = &tracker;
  opts.backend_config.partition_rows = config.partition_rows;
  opts.backend_config.task_overhead_us =
      config.task_overhead_us >= 0 ? config.task_overhead_us
                                   : DefaultOverheadUs(config.backend);
  std::stringstream output;
  opts.output = &output;
  opts.cache = config.result_cache;

  script::RunOptions run_opts;
  run_opts.analyze = config.optimized;

  meta::MetaStore metastore(scratch_dir + "/metastore");
  if (config.optimized) {
    // LaFP mode: lazy runtime + lazy print + graph optimizer + JIT
    // static analysis with metadata.
    opts.mode = lazy::ExecutionMode::kLazy;
    opts.lazy_print = config.enable_lazy_print;
    opts.backend_config.spill_persisted = config.spill_persisted;
    if (config.enable_metadata) {
      run_opts.analyze_options.rewrite.metastore = &metastore;
    } else {
      run_opts.analyze_options.rewrite.metadata_dtypes = false;
    }
    run_opts.analyze_options.rewrite.column_selection =
        config.enable_column_selection;
    if (!config.enable_caching) {
      // Ablation (§5.3): drop the live_df persist hints.
      run_opts.analyze_options.rewrite.forced_compute = false;
    }
  } else if (config.backend == exec::BackendKind::kDask) {
    // Hand-ported Dask program: lazy, but prints force computation and
    // no LaFP rewrites/graph passes run.
    opts.mode = lazy::ExecutionMode::kLazy;
    opts.lazy_print = false;
  } else {
    // Plain Pandas / Modin: eager statement-by-statement.
    opts.mode = lazy::ExecutionMode::kEager;
    opts.lazy_print = false;
  }

  lazy::Session session(opts);
  if (config.optimized) {
    opt::OptimizerOptions optimizer_options;
    optimizer_options.pushdown = config.enable_pushdown;
    opt::InstallDefaultOptimizer(&session, optimizer_options);
  }

  // Bench span wrapping the program run: with LAFP_TRACE set, a bench
  // sweep ships a flamegraph-grade artifact alongside BENCH_*.json.
  trace::Span bench_span(
      "bench:" + program_name + "/" + ConfigName(config), "bench");
  Timer timer;
  script::AnalyzeResult analyzed;
  Status st = script::RunProgram(*source, &session, run_opts, nullptr,
                                 config.optimized ? &analyzed : nullptr);
  result.seconds = timer.ElapsedSeconds();
  result.peak_bytes = tracker.peak();
  result.analysis_seconds = analyzed.analysis_seconds;
  result.status = st;
  result.success = st.ok();
  result.checksums = ChecksumLines(output.str());
  return result;
}

}  // namespace lafp::bench
