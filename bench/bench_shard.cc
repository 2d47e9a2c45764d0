// Shared-nothing shard executor scaling (ROADMAP item 5): the same
// scan -> filter -> groupby pipeline on the single-process Pandas
// backend and on 1/2/4 forked shard workers, printed as a table. The
// exit code gates on byte-identical results
// across every configuration — scaling numbers are reported, not
// gated: on a loopback socketpair exchange the break-even point
// depends on core count and data size, and a perf regression must not
// mask a correctness one.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/macros.h"
#include "lazy/fat_dataframe.h"

using namespace lafp;
using namespace lafp::lazy;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Timed {
  double seconds = 0.0;
  std::string output;
  bool ok = false;
};

/// One full session round: read, filter, derive, group, sort, print.
Timed RunPipeline(const std::string& csv, exec::BackendKind backend,
                  int shards) {
  Timed timed;
  MemoryTracker tracker(0);
  SessionOptions opts;
  opts.backend = backend;
  opts.backend_config.shards = shards;
  opts.backend_config.partition_rows = 65536;
  opts.tracker = &tracker;
  std::stringstream sink;
  opts.output = &sink;
  Session session(opts);

  double start = Now();
  auto run = [&]() -> Result<std::string> {
    LAFP_ASSIGN_OR_RETURN(auto frame, FatDataFrame::ReadCsv(&session, csv));
    LAFP_ASSIGN_OR_RETURN(auto v, frame.Col("v"));
    LAFP_ASSIGN_OR_RETURN(
        auto mask, v.CompareTo(df::CompareOp::kLt, df::Scalar::Int(800)));
    LAFP_ASSIGN_OR_RETURN(auto filtered, frame.FilterBy(mask));
    LAFP_ASSIGN_OR_RETURN(
        auto grouped,
        filtered.GroupByAgg({"grp"}, {{"v", df::AggFunc::kSum, "vs"},
                                      {"v", df::AggFunc::kMean, "vm"},
                                      {"id", df::AggFunc::kCount, "n"}}));
    LAFP_ASSIGN_OR_RETURN(auto sorted, grouped.SortValues({"grp"}, {true}));
    LAFP_ASSIGN_OR_RETURN(auto eager, sorted.ToEager());
    return eager.ToString(eager.num_rows() + 1);
  };
  auto out = run();
  timed.seconds = Now() - start;
  if (!out.ok()) {
    std::fprintf(stderr, "pipeline failed (shards=%d): %s\n", shards,
                 out.status().ToString().c_str());
    return timed;
  }
  timed.output = *out;
  timed.ok = true;
  return timed;
}

}  // namespace

int main() {
  const char* quick = std::getenv("LAFP_BENCH_QUICK");
  const size_t rows = quick != nullptr ? 200000 : 2000000;

  std::string dir = std::filesystem::temp_directory_path().string() +
                    "/lafp_bench_shard";
  std::filesystem::create_directories(dir);
  std::string csv = dir + "/facts.csv";
  {
    std::ofstream out(csv);
    out << "id,v,grp\n";
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (size_t i = 0; i < rows; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      out << i << "," << (state % 1000) << "," << (state >> 32) % 32 << "\n";
    }
  }

  Timed reference = RunPipeline(csv, exec::BackendKind::kPandas, 0);
  bool ok = reference.ok;
  std::printf("%zu rows, scan+filter+groupby+sort\n\n", rows);
  std::printf("%-24s %10.4f s\n", "pandas (1 process)", reference.seconds);

  for (int shards : {1, 2, 4}) {
    Timed timed = RunPipeline(csv, exec::BackendKind::kShard, shards);
    ok = ok && timed.ok && timed.output == reference.output;
    if (timed.ok && timed.output != reference.output) {
      std::fprintf(stderr, "shards=%d output diverges from reference\n",
                   shards);
    }
    std::printf("%-21s %2d %10.4f s   %.2fx\n", "shard workers", shards,
                timed.seconds, reference.seconds / timed.seconds);
  }
  std::printf("\n(gates on byte-identical results across 1/2/4 workers)\n");
  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
