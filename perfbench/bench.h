// Shared pieces of the repository benchmark (README.md in this directory):
// run options, the report every run prints, the five engine
// configurations, and the round runner that times them over a job list.
// The benchmark drives the engine only through its public entry points
// and adds no instrumentation inside src/.
#ifndef LAFP_PERFBENCH_BENCH_H_
#define LAFP_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/backend.h"

namespace lafp::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Report per-layer metrics (a separate, traced run) instead of the
  /// end-to-end ones.
  bool trace = false;
  /// Tiny inputs: the self-test's smoke mode.
  bool smoke = false;
  /// Self-test: flip one reference checksum so the output check must fail.
  bool corrupt_reference = false;
  /// Scratch directory for this run's inputs, removed when the run ends.
  std::string work_dir;
};

/// What one run prints as its last stdout line (see main.cc).
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed check; printed to stderr.
  std::vector<std::string> problems;
  /// name -> value; main.cc owns the units.
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Fail(std::string problem) {
    ++failed;
    problems.push_back(std::move(problem));
  }
};

/// min(4, nproc). Modin threads, shard workers, server threads, admission
/// and client connections are each sized by this.
int Threads();

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// One engine configuration. Every timed run is engine-real: the
/// simulated per-task overhead (task_overhead_us) is 0.
struct Config {
  std::string name;  // metric prefix: eager_s, pandas_s, ...
  exec::BackendKind backend;
  bool lafp;    // LaFP mode (lazy + JIT analysis + optimizer) vs eager
  bool serial;  // single-threaded, so its tracker peak repeats exactly
};

/// Eager Pandas, then LaFP mode on Pandas, Modin, Dask and Shard.
const std::vector<Config>& Configs();

/// A named PdScript program with its input paths filled in.
struct Job {
  std::string name;
  std::string source;
};

/// The checksum lines of an eager-Pandas run of `job` over CSV: the
/// reference every other run of the job must reproduce.
Result<std::string> ReferenceChecksums(const Job& job,
                                       const std::string& metastore_dir);

/// Times rounds over `jobs`; a round is one pass of every config over
/// every job. Each job's output is checked against `reference` (by job
/// name) and its deterministic counts against its first pass; any
/// mismatch fails the job in `report`.
class RoundRunner {
 public:
  RoundRunner(std::vector<Job> jobs,
              std::map<std::string, std::string> reference,
              std::string metastore_dir, bool corrupt_reference,
              Report* report);

  /// Run rounds for at most `seconds` (at least one). With `trace` the
  /// first half collects the per-layer figures with the tracer off and
  /// the second runs with the tracer on, so the tracing overhead can be
  /// reported.
  void RunFor(double seconds, bool trace);

  /// eager_s ... shard_s (pass time: the sum of per-job medians) and
  /// peak_mb.
  void ReportConfigTimes(Report* report) const;
  /// Median job latency and its 99th percentile, over untraced rounds.
  void ReportJobLatency(Report* report) const;
  /// Per-layer metrics: per-round sums over the collecting rounds, median
  /// over rounds; trace overhead from the traced rounds.
  void ReportLayers(Report* report) const;

 private:
  /// Run one round. `collect` harvests every LaFP round's
  /// ExecutionReport and the jobs' counter deltas into per-layer sums. A
  /// traced round enables the engine's tracer, which records the
  /// benchmark's spans around each job; it counts only towards the
  /// tracing overhead.
  void Run(bool collect, bool traced);
  /// Runs and checks one job; returns its wall seconds.
  double RunJob(const Config& config, const Job& job, bool collect,
                std::map<std::string, double>* layers, int64_t* peak_bytes);

  std::vector<Job> jobs_;
  std::map<std::string, std::string> reference_;
  std::string metastore_dir_;
  Report* report_;
  /// config/job -> counts of its first pass (drift check).
  std::map<std::string, std::vector<int64_t>> first_counts_;
  /// config/job -> wall seconds of each untraced round.
  std::map<std::string, std::vector<double>> job_seconds_;
  std::vector<double> round_peak_mb_;                        // untraced
  std::vector<double> job_ms_;                               // untraced
  std::vector<double> untraced_round_s_;
  std::vector<double> traced_round_s_;
  std::vector<std::map<std::string, double>> layers_;  // collecting rounds
};

/// Isolated serial full reads of each input file (CSV via io::ReadCsv,
/// LFC via io::ReadLfcFile), the median of three per file, summed.
/// Reports io.csv_* or io.lfc_read_ms. Engine reads inside the rounds
/// differ (pruned columns, parallel Modin/Shard reads): those are
/// io.round_read_ms.
void ReportInputReads(const std::vector<std::string>& paths, bool lfc,
                      Report* report);

/// The df:: filter/groupby/join/sort kernels replayed on the workload's
/// own ratings and movies tables (dataframe.*_ns_row).
void ReportKernelReplays(const std::string& ratings_path,
                         const std::string& movies_path, bool lfc,
                         Report* report);

/// Write the engine tracer's events (the benchmark's own job spans plus
/// everything the engine recorded while tracing) as Chrome trace JSON.
void WriteTrace(const std::string& path);

/// Generate `names` from `seed` into `dir` (created fresh). Lookup tables
/// keep their base size; the rest scale by `scale`. Returns name -> path.
Result<std::map<std::string, std::string>> GenerateInputs(
    const std::vector<std::string>& names, double scale, uint64_t seed,
    const std::string& dir);

/// The workloads. Each fills `report` with the end-to-end metrics, or the
/// per-layer ones when options.trace is set.
Status RunSuite(const Options& options, bool lfc, Report* report);
Status RunServeMix(const Options& options, Report* report);

}  // namespace lafp::perfbench

#endif  // LAFP_PERFBENCH_BENCH_H_
