// Entry point of the repository benchmark. run.py builds this binary and
// runs it from the repository root as
//
//   perfbench --workload csv_suite|lfc_suite|serve_mix --seed N
//             --seconds S --trace 0|1 [--smoke] [--corrupt-reference]
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name:
//    {"value": .., "unit": ..}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The exit code is 0 only when every output check passed.
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace lafp::perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric sets, in BENCHMARK.json order (run.py --selftest checks the
// two agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"eager_s", "s"},     {"pandas_s", "s"},
    {"modin_s", "s"},      {"dask_s", "s"},      {"shard_s", "s"},
    {"peak_mb", "MB"},     {"req_p50_ms", "ms"},
};

// req_p99_ms is per-layer only: on a shared 4-vCPU machine its spread
// between runs exceeded any usable regression bound.

constexpr MetricDef kPerLayer[] = {
    {"script.analyze_ms", "ms"},
    {"script.rewrites", "count"},
    {"optimizer.pass_ms", "ms"},
    {"optimizer.nodes_removed", "count"},
    {"lazy.rounds", "count"},
    {"lazy.node_execs", "count"},
    {"lazy.results_cleared", "count"},
    {"lazy.fallbacks", "count"},
    {"lazy.cache_hit_ratio", "ratio"},
    {"lazy.cache_hits", "count"},
    {"lazy.cache_inserts", "count"},
    {"lazy.cache_evictions", "count"},
    {"io.csv_parse_ms", "ms"},
    {"io.csv_mb_s", "MB/s"},
    {"io.csv_peak_ratio", "ratio"},
    {"io.lfc_read_ms", "ms"},
    {"io.lfc_chunks_skipped", "count"},
    {"io.lfc_convert_ms", "ms"},
    {"io.round_read_ms", "ms"},
    {"io.round_read_pct", "%"},
    {"dataframe.kernel_ms", "ms"},
    {"dataframe.morsels", "count"},
    {"dataframe.filter_ns_row", "ns"},
    {"dataframe.groupby_ns_row", "ns"},
    {"dataframe.join_ns_row", "ns"},
    {"dataframe.sort_ns_row", "ns"},
    {"exec.other_ms", "ms"},
    {"exec.other_pct", "%"},
    {"shard.calls", "count"},
    {"shard.bytes_shipped", "bytes"},
    {"shard.worker_restarts", "count"},
    {"shard.scan_retries", "count"},
    {"serve.dispatch_ms", "ms"},
    {"serve.healthz_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.errors", "count"},
    {"bench.gen_lag_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.round_ms", "ms"},
    {"bench.requests", "count"},
    {"req_p99_ms", "ms"},
    {"fail_ratio", "ratio"},
};

// Per-layer metrics of layers a workload does not use; they read 0
// there. Every other metric must be measured by the workload, or the run
// fails (run.py --selftest also requires the designed ones to be
// nonzero).
const std::vector<const char*>& UnusedLayers(const std::string& workload) {
  static const std::vector<const char*> none;
  static const std::vector<const char*> csv_suite = {
      "io.lfc_read_ms",       "io.lfc_convert_ms", "lazy.cache_hit_ratio",
      "lazy.cache_hits",      "lazy.cache_inserts", "lazy.cache_evictions",
      "serve.dispatch_ms",    "serve.healthz_ms",  "serve.rejected",
      "serve.errors",         "bench.gen_lag_ms"};
  static const std::vector<const char*> lfc_suite = {
      "io.csv_parse_ms",      "io.csv_mb_s",        "io.csv_peak_ratio",
      "lazy.cache_hit_ratio", "lazy.cache_hits",    "lazy.cache_inserts",
      "lazy.cache_evictions", "serve.dispatch_ms",  "serve.healthz_ms",
      "serve.rejected",       "serve.errors",       "bench.gen_lag_ms"};
  static const std::vector<const char*> serve_mix = {"io.lfc_read_ms",
                                                     "io.lfc_convert_ms"};
  if (workload == "csv_suite") return csv_suite;
  if (workload == "lfc_suite") return lfc_suite;
  if (workload == "serve_mix") return serve_mix;
  return none;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options->workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--corrupt-reference") {
      options->corrupt_reference = true;
    } else {
      return false;
    }
  }
  return have_workload && options->seconds > 0;
}

/// Prints the metrics `defs` names (a workload may measure more, for the
/// other mode); false if one is missing or a check failed.
template <size_t N>
bool PrintResult(const Report& report, const MetricDef (&defs)[N]) {
  std::string metrics;
  for (const MetricDef& def : defs) {
    auto it = report.metrics.find(def.name);
    if (it == report.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s missing\n", def.name);
      return false;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + def.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + def.unit + "\"}";
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct;
}

int Main(int argc, char** argv) {
  // A client that goes away must surface as EPIPE, not end the run.
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload csv_suite|lfc_suite|serve_mix "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--corrupt-reference]\n");
    return 2;
  }
  const std::string run_name =
      options.workload + "-" + std::to_string(options.seed);
  options.work_dir = ".bench_work/" + run_name;

  Report report;
  if (options.trace) {
    for (const char* name : UnusedLayers(options.workload)) {
      report.Set(name, 0.0);
    }
  }
  Status status;
  if (options.workload == "csv_suite") {
    status = RunSuite(options, /*lfc=*/false, &report);
  } else if (options.workload == "lfc_suite") {
    status = RunSuite(options, /*lfc=*/true, &report);
  } else if (options.workload == "serve_mix") {
    status = RunServeMix(options, &report);
  } else {
    status = Status::Invalid("unknown workload " + options.workload);
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  if (options.trace) {
    WriteTrace(".bench_work/trace-" + run_name + ".json");
    report.Set("fail_ratio",
               report.attempted > 0 ? static_cast<double>(report.failed) /
                                          static_cast<double>(report.attempted)
                                    : 0.0);
  }
  constexpr size_t kMaxShown = 20;
  for (size_t i = 0; i < report.problems.size() && i < kMaxShown; ++i) {
    std::fprintf(stderr, "perfbench: FAIL %s\n", report.problems[i].c_str());
  }
  const bool correct = options.trace ? PrintResult(report, kPerLayer)
                                     : PrintResult(report, kEndToEnd);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace lafp::perfbench

int main(int argc, char** argv) { return lafp::perfbench::Main(argc, argv); }
