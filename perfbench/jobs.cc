// The job runner shared by every workload: one program run in one engine
// configuration, its output check, and the rounds that time them.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "common/macros.h"
#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "dataframe/ops.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "lazy/session.h"
#include "meta/metadata.h"
#include "optimizer/passes.h"
#include "perfbench/bench.h"
#include "script/analyze.h"
#include "testing/datagen.h"

namespace lafp::perfbench {

namespace {

/// Rows per Modin/Dask/Shard partition, as in the paper harness
/// (bench/harness.h).
constexpr size_t kPartitionRows = 8192;
/// The pass that harvests each round's ExecutionReport in traced runs.
constexpr const char* kReportPass = "perfbench-report";
/// Internal layer sums (never printed): the wall time of the jobs
/// exec.other_ms and io.round_read_ms cover, the denominators of their
/// shares.
constexpr const char* kLafpMs = "_lafp_ms";
constexpr const char* kReadScopeMs = "_read_scope_ms";

using Counters = std::map<std::string, int64_t>;

int64_t Get(const Counters& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters delta;
  for (const auto& [name, value] : after) {
    delta[name] = value - Get(before, name);
  }
  return delta;
}

std::string ChecksumLines(const std::string& output) {
  std::istringstream in(output);
  std::string line, lines;
  while (std::getline(in, line)) {
    if (line.rfind("checksum ", 0) == 0) lines += line + "\n";
  }
  return lines;
}

bool IsRead(const lazy::NodeStats& node) {
  return node.op.rfind("read_csv", 0) == 0 || node.op.rfind("read_lfc", 0) == 0;
}

/// Sums over a session's ExecutionReports (filled with tracing off). A
/// session keeps only its last round's report, so a pass registered last
/// in the pipeline harvests the previous round's report as each round
/// starts, and the caller harvests the final one.
struct ReportStats {
  int64_t rounds_seen = 0;
  double pass_ms = 0.0;  // optimizer passes (not this pass, not cache-splice)
  int64_t nodes_removed = 0;
  /// Node execution inside rounds: each round's summed node wall time,
  /// capped at the round's time outside its passes (nodes run by the
  /// parallel scheduler overlap).
  double node_ms = 0.0;
  /// Wall time of read nodes. A backend that reads in its Execute
  /// (Pandas, Modin, Shard) times the whole read there; Dask only records
  /// a plan node and streams the read inside the nodes that consume it.
  double read_ms = 0.0;
  /// Kernel time (summed over threads, Modin partition workers merged
  /// in) and morsels. Shard kernels run in worker processes and are not
  /// in the coordinator's report.
  double kernel_ms = 0.0;
  int64_t morsels = 0;

  void Harvest(const lazy::Session& session) {
    if (session.num_rounds() == rounds_seen) return;
    rounds_seen = session.num_rounds();
    const lazy::ExecutionReport& report = session.last_report();
    int64_t all_passes_us = 0;
    for (const auto& pass : report.passes) {
      all_passes_us += pass.wall_micros;
      if (pass.name == kReportPass || pass.name == "cache-splice") continue;
      pass_ms += pass.wall_micros / 1000.0;
      if (pass.nodes_before >= 0 && pass.nodes_after >= 0) {
        nodes_removed += pass.nodes_before - pass.nodes_after;
      }
    }
    int64_t nodes_us = 0;
    for (const lazy::NodeStats& node : report.nodes) {
      nodes_us += node.wall_micros;
      if (IsRead(node)) read_ms += node.wall_micros / 1000.0;
    }
    node_ms += std::min(nodes_us, std::max<int64_t>(
                                      0, report.wall_micros - all_passes_us)) /
               1000.0;
    kernel_ms += report.kernel_micros / 1000.0;
    morsels += report.kernel_morsels;
  }
};

struct JobRun {
  Status status;
  double seconds = 0.0;
  int64_t peak_bytes = 0;
  std::string checksums;
  /// Counts that must repeat exactly between passes of one seed.
  std::vector<int64_t> counts;
  std::map<std::string, double> layers;  // with `collect` only
};

/// Runs one job. With `collect` a pass harvests every round's
/// ExecutionReport and the run's per-layer figures land in `layers`.
JobRun Execute(const Config& config, const Job& job,
               const std::string& metastore_dir, bool collect) {
  JobRun run;
  MemoryTracker tracker;
  std::stringstream output;
  lazy::SessionOptions opts;
  opts.backend = config.backend;
  opts.tracker = &tracker;
  opts.output = &output;
  opts.mode = config.lafp ? lazy::ExecutionMode::kLazy
                          : lazy::ExecutionMode::kEager;
  opts.lazy_print = config.lafp;
  opts.exec.num_threads = Threads();
  opts.backend_config.partition_rows = kPartitionRows;
  opts.backend_config.task_overhead_us = 0;
  if (config.backend == exec::BackendKind::kShard) {
    opts.backend_config.shards = Threads();
  }

  meta::MetaStore metastore(metastore_dir);
  script::RunOptions run_opts;
  run_opts.analyze = config.lafp;
  run_opts.analyze_options.rewrite.metastore = &metastore;
  script::AnalyzeResult analyzed;
  ReportStats plan;
  int64_t rounds = 0, node_execs = 0, results_cleared = 0;

  metrics::Registry* registry = metrics::Registry::Global();
  const Counters before = registry->Scrape();
  trace::Span span("job:" + config.name + "/" + job.name, "bench");
  Timer timer;
  {
    // Session set-up and teardown (pools, shard worker processes) are
    // part of what a program run costs.
    lazy::Session session(opts);
    if (config.lafp) {
      opt::InstallDefaultOptimizer(&session);
      if (collect) {
        session.RegisterOptimizerPass(lazy::MakeFunctionPass(
            kReportPass, [&plan](lazy::Session* s, const auto&, const auto&) {
              plan.Harvest(*s);
              return Status::OK();
            }));
      }
    }
    run.status = script::RunProgram(job.source, &session, run_opts, nullptr,
                                    config.lafp ? &analyzed : nullptr);
    if (collect && config.lafp) plan.Harvest(session);
    rounds = session.num_rounds();
    node_execs = session.num_node_executions();
    results_cleared = session.num_results_cleared();
  }
  run.seconds = timer.ElapsedSeconds();
  run.peak_bytes = tracker.peak();
  run.checksums = ChecksumLines(output.str());
  const Counters delta = Delta(before, registry->Scrape());

  const int64_t rewrites = analyzed.stats.reads_pruned +
                           analyzed.stats.computes_inserted +
                           analyzed.stats.dtype_hints_added;
  run.counts = {rewrites, rounds, node_execs,
                Get(delta, "lfc.chunks_skipped"), Get(delta, "shard.calls")};
  if (config.serial) run.counts.push_back(run.peak_bytes);
  if (!collect) return run;

  auto& l = run.layers;
  const double analyze_ms = analyzed.analysis_seconds * 1000.0;
  l["script.analyze_ms"] = analyze_ms;
  l["script.rewrites"] = static_cast<double>(rewrites);
  l["optimizer.pass_ms"] = plan.pass_ms;
  l["optimizer.nodes_removed"] = static_cast<double>(plan.nodes_removed);
  l["lazy.rounds"] = static_cast<double>(rounds);
  l["lazy.node_execs"] = static_cast<double>(node_execs);
  l["lazy.results_cleared"] = static_cast<double>(results_cleared);
  l["lazy.fallbacks"] = static_cast<double>(Get(delta, "session.fallbacks"));
  l["dataframe.kernel_ms"] = plan.kernel_ms;
  l["dataframe.morsels"] = static_cast<double>(plan.morsels);
  if (config.lafp) {
    // Eager runs execute each node outside any round, so no report
    // covers them; the attribution below is over the LaFP configs. What
    // is left of the job's wall time after analysis, optimizer passes and
    // node execution: the interpreter, session set-up and teardown,
    // scheduling, and work after a round (Dask's compute()).
    const double wall_ms = run.seconds * 1000.0;
    l["exec.other_ms"] = wall_ms - analyze_ms - plan.pass_ms - plan.node_ms;
    l[kLafpMs] = wall_ms;
    if (config.backend != exec::BackendKind::kDask) {
      l["io.round_read_ms"] = plan.read_ms;
      l[kReadScopeMs] = wall_ms;
    }
  }
  l["io.lfc_chunks_skipped"] =
      static_cast<double>(Get(delta, "lfc.chunks_skipped"));
  for (const char* name : {"shard.calls", "shard.bytes_shipped",
                           "shard.worker_restarts", "shard.scan_retries"}) {
    l[name] = static_cast<double>(Get(delta, name));
  }
  return run;
}

}  // namespace

int Threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(n, 1, 4);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return values[std::clamp<size_t>(rank, 1, n) - 1];
}

const std::vector<Config>& Configs() {
  static const std::vector<Config> configs = {
      {"eager", exec::BackendKind::kPandas, false, true},
      {"pandas", exec::BackendKind::kPandas, true, false},
      {"modin", exec::BackendKind::kModin, true, false},
      // Lazy backends always schedule serially.
      {"dask", exec::BackendKind::kDask, true, true},
      {"shard", exec::BackendKind::kShard, true, false},
  };
  return configs;
}

Result<std::string> ReferenceChecksums(const Job& job,
                                       const std::string& metastore_dir) {
  JobRun run = Execute(Configs().front(), job, metastore_dir, false);
  if (!run.status.ok()) {
    return Status::ExecutionError("reference run of " + job.name + ": " +
                                  run.status.ToString());
  }
  if (run.checksums.empty()) {
    return Status::Invalid("program " + job.name + " prints no checksum");
  }
  return run.checksums;
}

RoundRunner::RoundRunner(std::vector<Job> jobs,
                         std::map<std::string, std::string> reference,
                         std::string metastore_dir, bool corrupt_reference,
                         Report* report)
    : jobs_(std::move(jobs)),
      reference_(std::move(reference)),
      metastore_dir_(std::move(metastore_dir)),
      report_(report) {
  if (corrupt_reference && !reference_.empty()) {
    std::string& lines = reference_.begin()->second;
    // Flip one digest character: "checksum <md5>".
    char& c = lines[std::string("checksum ").size()];
    c = c == '0' ? '1' : '0';
  }
}

double RoundRunner::RunJob(const Config& config, const Job& job, bool collect,
                           std::map<std::string, double>* layers,
                           int64_t* peak_bytes) {
  ++report_->attempted;
  JobRun run = Execute(config, job, metastore_dir_, collect);
  const std::string key = config.name + "/" + job.name;
  if (!run.status.ok()) {
    report_->Fail(key + ": " + run.status.ToString());
  } else if (run.checksums != reference_[job.name]) {
    report_->Fail(key + ": output differs from the eager-Pandas reference");
  } else {
    auto [first, inserted] = first_counts_.emplace(key, run.counts);
    if (!inserted && first->second != run.counts) {
      report_->Fail(key + ": deterministic counts drifted between passes");
    }
  }
  for (const auto& [name, value] : run.layers) (*layers)[name] += value;
  *peak_bytes = run.peak_bytes;
  return run.seconds;
}

void RoundRunner::Run(bool collect, bool traced) {
  trace::Tracer::Global()->set_enabled(traced);
  std::map<std::string, double> layers;
  double round_s = 0.0, peak_mb = 0.0;
  // Each program runs in every config before the next program starts:
  // machine slowdowns lasting seconds then spread over all configs
  // instead of landing on one config's whole pass.
  for (const Job& job : jobs_) {
    for (const Config& config : Configs()) {
      int64_t peak_bytes = 0;
      const double s = RunJob(config, job, collect, &layers, &peak_bytes);
      round_s += s;
      peak_mb = std::max(peak_mb, peak_bytes / 1e6);
      if (!traced) {
        job_ms_.push_back(s * 1000.0);
        job_seconds_[config.name + "/" + job.name].push_back(s);
      }
    }
  }
  trace::Tracer::Global()->set_enabled(false);
  if (traced) {
    traced_round_s_.push_back(round_s);
    return;
  }
  untraced_round_s_.push_back(round_s);
  round_peak_mb_.push_back(peak_mb);
  if (collect) {
    layers["bench.round_ms"] = round_s * 1000.0;
    layers_.push_back(std::move(layers));
  }
}

void RoundRunner::RunFor(double seconds, bool trace) {
  Timer timer;
  // Start another round only if one more of the last round's length
  // still ends in time.
  auto run_until = [&](double until, bool collect, bool traced) {
    double last = 0.0;
    do {
      const double start = timer.ElapsedSeconds();
      Run(collect, traced);
      last = timer.ElapsedSeconds() - start;
    } while (timer.ElapsedSeconds() + last <= until);
  };
  run_until(trace ? seconds / 2 : seconds, trace, false);
  if (trace) run_until(seconds, false, true);
}

void RoundRunner::ReportConfigTimes(Report* report) const {
  // The sum of per-job medians: interference from outside the process
  // hits single jobs, and each job's median filters it out.
  for (const Config& config : Configs()) {
    double pass_s = 0.0;
    for (const Job& job : jobs_) {
      pass_s += Median(job_seconds_.at(config.name + "/" + job.name));
    }
    report->Set(config.name + "_s", pass_s);
  }
  report->Set("peak_mb", Median(round_peak_mb_));
}

void RoundRunner::ReportJobLatency(Report* report) const {
  report->Set("req_p50_ms", Percentile(job_ms_, 0.50));
  report->Set("req_p99_ms", Percentile(job_ms_, 0.99));
}

void RoundRunner::ReportLayers(Report* report) const {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& layers : layers_) {
    auto at = [&layers](const char* name) {
      auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second;
    };
    for (const auto& [name, value] : layers) {
      if (name[0] != '_') samples[name].push_back(value);
    }
    auto share = [&](const char* part, const char* whole) {
      return at(whole) > 0 ? at(part) / at(whole) * 100.0 : 0.0;
    };
    samples["exec.other_pct"].push_back(share("exec.other_ms", kLafpMs));
    samples["io.round_read_pct"].push_back(
        share("io.round_read_ms", kReadScopeMs));
  }
  for (const auto& [name, values] : samples) {
    report->Set(name, Median(values));
  }
  report->Set("bench.requests", static_cast<double>(job_ms_.size()));
  const double untraced = Median(untraced_round_s_);
  if (untraced > 0) {
    report->Set("bench.trace_overhead_pct",
                (Median(traced_round_s_) / untraced - 1.0) * 100.0);
  }
}

void ReportInputReads(const std::vector<std::string>& paths, bool lfc,
                      Report* report) {
  constexpr int kRepeats = 3;
  double total_ms = 0.0, bytes = 0.0, peak_ratio = 0.0;
  for (const std::string& path : paths) {
    std::vector<double> ms;
    for (int i = 0; i < kRepeats; ++i) {
      ++report->attempted;
      MemoryTracker tracker;
      Timer timer;
      Status status;
      if (lfc) {
        status = io::ReadLfcFile(path, io::LfcReadOptions{}, &tracker).status();
        ms.push_back(timer.ElapsedSeconds() * 1000.0);
      } else {
        auto frame = io::ReadCsv(path, io::CsvReadOptions{}, &tracker);
        ms.push_back(timer.ElapsedSeconds() * 1000.0);
        status = frame.status();
        // Peak tracked bytes over the bytes of the frame still held.
        if (status.ok() && tracker.current() > 0) {
          peak_ratio = std::max(peak_ratio, static_cast<double>(tracker.peak()) /
                                                static_cast<double>(tracker.current()));
        }
      }
      if (!status.ok()) report->Fail("read " + path + ": " + status.ToString());
    }
    total_ms += Median(ms);
    std::error_code ec;
    bytes += static_cast<double>(std::filesystem::file_size(path, ec));
  }
  if (lfc) {
    report->Set("io.lfc_read_ms", total_ms);
  } else {
    report->Set("io.csv_parse_ms", total_ms);
    if (total_ms > 0) report->Set("io.csv_mb_s", bytes / 1e6 / (total_ms / 1e3));
    report->Set("io.csv_peak_ratio", peak_ratio);
  }
}

void ReportKernelReplays(const std::string& ratings_path,
                         const std::string& movies_path, bool lfc,
                         Report* report) {
  MemoryTracker tracker;
  auto load = [&](const std::string& path) -> Result<df::DataFrame> {
    if (lfc) return io::ReadLfcFile(path, io::LfcReadOptions{}, &tracker);
    return io::ReadCsv(path, io::CsvReadOptions{}, &tracker);
  };
  auto ratings = load(ratings_path);
  auto movies = load(movies_path);
  if (!ratings.ok() || !movies.ok()) {
    report->Fail("kernel replay inputs: " +
                 (ratings.ok() ? movies.status() : ratings.status()).ToString());
    return;
  }
  const df::DataFrame& r = *ratings;
  const double rows = static_cast<double>(std::max<size_t>(r.num_rows(), 1));
  auto time_op = [&](const std::string& name, auto&& op) {
    constexpr int kRepeats = 5;
    std::vector<double> ns_row;
    for (int i = 0; i < kRepeats; ++i) {
      ++report->attempted;
      Timer timer;
      Status status = op();
      ns_row.push_back(timer.ElapsedSeconds() * 1e9 / rows);
      if (!status.ok()) report->Fail(name + ": " + status.ToString());
    }
    report->Set(name, Median(ns_row));
  };
  time_op("dataframe.filter_ns_row", [&]() -> Status {
    LAFP_ASSIGN_OR_RETURN(df::ColumnPtr rating, r.column("rating"));
    LAFP_ASSIGN_OR_RETURN(
        df::ColumnPtr mask,
        df::Compare(*rating, df::CompareOp::kGe, df::Scalar::Double(3.0)));
    return df::Filter(r, *mask).status();
  });
  time_op("dataframe.groupby_ns_row", [&] {
    return df::GroupByAgg(r, {"movieId"},
                          {{"rating", df::AggFunc::kMean, "rating"}})
        .status();
  });
  time_op("dataframe.join_ns_row", [&] {
    return df::Merge(r, *movies, {"movieId"}, df::JoinType::kInner).status();
  });
  time_op("dataframe.sort_ns_row", [&] {
    return df::SortValues(r, {"rating"}, {false}).status();
  });
}

void WriteTrace(const std::string& path) {
  Status status = trace::Tracer::Global()->WriteChromeTrace(path);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: trace not written: %s\n",
                 status.ToString().c_str());
  }
}

Result<std::map<std::string, std::string>> GenerateInputs(
    const std::vector<std::string>& names, double scale, uint64_t seed,
    const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::map<std::string, std::string> paths;
  for (const std::string& name : names) {
    int64_t rows = testing::BaseRows(name);
    // Lookup tables keep their size (ratings reference every movie id).
    if (name != "movies" && name != "schools" && name != "vendors") {
      rows = std::max<int64_t>(100, std::llround(rows * scale));
    }
    LAFP_ASSIGN_OR_RETURN(testing::Dataset dataset,
                          testing::Generate(name, dir, rows, seed));
    paths[name] = dataset.path;
  }
  return paths;
}

}  // namespace lafp::perfbench
