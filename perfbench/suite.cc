// csv_suite and lfc_suite: the paper's ten programs (bench/programs.cc)
// over inputs generated from the seed, run eager on Pandas and in LaFP
// mode on Pandas, Modin, Dask and Shard. The LFC suite converts every
// input to LFC during set-up; read_csv sniffs the LFC magic, so only the
// paths in the program text change.
#include <unistd.h>

#include <filesystem>
#include <set>

#include "bench/programs.h"
#include "common/macros.h"
#include "common/memory_tracker.h"
#include "common/timer.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "meta/metadata.h"
#include "perfbench/bench.h"
#include "script/analyze.h"
#include "testing/datagen.h"

namespace lafp::perfbench {

namespace {

// Input scale (1 = the datagen base sizes, the paper's size S). CSV
// parsing dominates the CSV suite; LFC decodes ~30x faster, so the LFC
// suite runs 1.5x larger inputs to keep kernels and exchange busy. Both
// keep one round (5 configs x 10 programs) to a few seconds on a 4-CPU
// machine, so a run fits several rounds; the paper's M and L sizes would
// leave one.
constexpr double kCsvScale = 1.0;
constexpr double kLfcScale = 1.5;
constexpr double kSmokeScale = 0.02;
/// Set-ups per run; setup_s is their median. A set-up's time varies by
/// up to 2x between back-to-back repeats on a shared machine, so a
/// median of three was not steady enough.
constexpr int kSetups = 5;

struct Inputs {
  std::map<std::string, std::string> csv;
  std::map<std::string, std::string> lfc;  // LFC suite only
  double convert_ms = 0.0;
};

Result<std::vector<Job>> ProgramJobs(
    const std::map<std::string, std::string>& paths) {
  std::vector<Job> jobs;
  for (const std::string& name : bench::ProgramNames()) {
    LAFP_ASSIGN_OR_RETURN(std::string source,
                          bench::ProgramSource(name, paths));
    jobs.push_back({name, std::move(source)});
  }
  return jobs;
}

/// One set-up: generate the inputs, convert them (LFC suite), and warm
/// the metastore by running the JIT analysis of every program once.
Result<Inputs> SetUp(const Options& options, bool lfc, const std::string& dir) {
  std::set<std::string> names;
  for (const std::string& program : bench::ProgramNames()) {
    for (const std::string& name : testing::DatasetsForProgram(program)) {
      names.insert(name);
    }
  }
  const double scale =
      options.smoke ? kSmokeScale : (lfc ? kLfcScale : kCsvScale);
  Inputs inputs;
  LAFP_ASSIGN_OR_RETURN(
      inputs.csv, GenerateInputs({names.begin(), names.end()}, scale,
                                 options.seed, dir));
  if (lfc) {
    Timer timer;
    for (const auto& [name, csv_path] : inputs.csv) {
      const std::string lfc_path = dir + "/" + name + ".lfc";
      MemoryTracker tracker;
      LAFP_RETURN_NOT_OK(io::ConvertCsvToLfc(csv_path, lfc_path,
                                             io::CsvReadOptions{},
                                             io::LfcWriteOptions{}, &tracker));
      inputs.lfc[name] = lfc_path;
    }
    inputs.convert_ms = timer.ElapsedSeconds() * 1000.0;
  }
  meta::MetaStore metastore(dir + "/metastore");
  script::AnalyzeOptions analyze;
  analyze.rewrite.metastore = &metastore;
  LAFP_ASSIGN_OR_RETURN(std::vector<Job> jobs,
                        ProgramJobs(lfc ? inputs.lfc : inputs.csv));
  for (const Job& job : jobs) {
    LAFP_RETURN_NOT_OK(script::Analyze(job.source, analyze).status());
  }
  return inputs;
}

}  // namespace

Status RunSuite(const Options& options, bool lfc, Report* report) {
  std::vector<double> setup_s, convert_ms;
  Inputs inputs;
  std::string dir;
  for (int i = 0; i < kSetups; ++i) {
    dir = options.work_dir + "/setup" + std::to_string(i);
    // Flush earlier writes, so disk writeback lands neither in a timed
    // set-up nor in the measured rounds.
    ::sync();
    Timer timer;
    LAFP_ASSIGN_OR_RETURN(inputs, SetUp(options, lfc, dir));
    setup_s.push_back(timer.ElapsedSeconds());
    convert_ms.push_back(inputs.convert_ms);
    std::error_code ec;
    if (i + 1 < kSetups) std::filesystem::remove_all(dir, ec);
  }
  ::sync();
  const std::string metastore_dir = dir + "/metastore";

  // The reference is eager Pandas over CSV, also for the LFC suite.
  LAFP_ASSIGN_OR_RETURN(std::vector<Job> csv_jobs, ProgramJobs(inputs.csv));
  std::map<std::string, std::string> reference;
  for (const Job& job : csv_jobs) {
    LAFP_ASSIGN_OR_RETURN(reference[job.name],
                          ReferenceChecksums(job, metastore_dir));
  }
  const auto& paths = lfc ? inputs.lfc : inputs.csv;
  LAFP_ASSIGN_OR_RETURN(std::vector<Job> jobs, ProgramJobs(paths));

  RoundRunner rounds(jobs, std::move(reference), metastore_dir,
                     options.corrupt_reference, report);
  rounds.RunFor(options.seconds, options.trace);
  rounds.ReportJobLatency(report);
  if (!options.trace) {
    report->Set("setup_s", Median(setup_s));
    rounds.ReportConfigTimes(report);
    return Status::OK();
  }

  // Every input a program reads.
  std::vector<std::string> read_paths;
  for (const auto& [name, path] : paths) {
    for (const Job& job : jobs) {
      if (job.source.find(path) != std::string::npos) {
        read_paths.push_back(path);
        break;
      }
    }
  }
  ReportInputReads(read_paths, lfc, report);
  if (lfc) report->Set("io.lfc_convert_ms", Median(convert_ms));
  ReportKernelReplays(paths.at("ratings"), paths.at("movies"), lfc, report);
  rounds.ReportLayers(report);
  return Status::OK();
}

}  // namespace lafp::perfbench
