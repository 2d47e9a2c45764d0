// Google-benchmark microbenchmarks of the engine kernels underlying
// every backend: CSV parse, filter, group-by, hash join, sort, and the
// lazy-runtime graph overhead. These are not paper figures; they document
// the substrate's raw costs for regression tracking.
//
// After the google-benchmark suite, main() runs an intra-op thread sweep
// (1/2/4/8 kernel threads over the morsel-driven kernels) and writes
// machine-readable results to BENCH_kernels.json — one record per
// (op, rows, threads) with ns/row and a bit-exact output checksum, which
// must be identical across the sweep (the kernel determinism contract).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "dataframe/kernel_context.h"
#include "dataframe/ops.h"
#include "io/csv.h"
#include "lazy/fat_dataframe.h"
#include "optimizer/passes.h"

namespace lafp {
namespace {

std::string TempCsv(int64_t rows) {
  static std::string path;
  static int64_t cached_rows = 0;
  if (!path.empty() && cached_rows == rows) return path;
  path = (std::filesystem::temp_directory_path() /
          ("lafp_micro_" + std::to_string(rows) + ".csv"))
             .string();
  cached_rows = rows;
  if (std::filesystem::exists(path)) return path;
  std::ofstream out(path);
  out << "id,value,grp,name\n";
  for (int64_t i = 0; i < rows; ++i) {
    out << i << ',' << (i % 997) * 0.5 << ',' << (i % 31) << ",name_"
        << (i % 11) << '\n';
  }
  return path;
}

df::DataFrame LoadFixture(int64_t rows) {
  auto frame = io::ReadCsv(TempCsv(rows), {}, MemoryTracker::Default());
  return *frame;
}

void BM_CsvRead(benchmark::State& state) {
  std::string path = TempCsv(state.range(0));
  for (auto _ : state) {
    MemoryTracker tracker(0);
    auto frame = io::ReadCsv(path, {}, &tracker);
    benchmark::DoNotOptimize(frame.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CsvRead)->Arg(10000)->Arg(100000);

void BM_CsvReadUsecols(benchmark::State& state) {
  std::string path = TempCsv(state.range(0));
  io::CsvReadOptions opts;
  opts.usecols = {"value"};
  for (auto _ : state) {
    MemoryTracker tracker(0);
    auto frame = io::ReadCsv(path, opts, &tracker);
    benchmark::DoNotOptimize(frame.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CsvReadUsecols)->Arg(10000)->Arg(100000);

void BM_Filter(benchmark::State& state) {
  df::DataFrame frame = LoadFixture(state.range(0));
  auto value = *frame.column("value");
  for (auto _ : state) {
    auto mask = df::Compare(*value, df::CompareOp::kGt,
                            df::Scalar::Double(200.0));
    auto out = df::Filter(frame, **mask);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Filter)->Arg(100000);

void BM_GroupByAgg(benchmark::State& state) {
  df::DataFrame frame = LoadFixture(state.range(0));
  std::vector<df::AggSpec> aggs{{"value", df::AggFunc::kSum, "total"},
                                {"value", df::AggFunc::kMean, "avg"}};
  for (auto _ : state) {
    auto out = df::GroupByAgg(frame, {"grp"}, aggs);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByAgg)->Arg(100000);

void BM_HashJoin(benchmark::State& state) {
  df::DataFrame left = LoadFixture(state.range(0));
  MemoryTracker tracker(0);
  std::vector<int64_t> keys;
  std::vector<std::string> labels;
  for (int i = 0; i < 31; ++i) {
    keys.push_back(i);
    labels.push_back("label_" + std::to_string(i));
  }
  auto right = *df::DataFrame::Make(
      {"grp", "label"},
      {*df::Column::MakeInt(keys, {}, &tracker),
       *df::Column::MakeString(labels, {}, &tracker)});
  for (auto _ : state) {
    auto out = df::Merge(left, right, {"grp"}, df::JoinType::kInner);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(100000);

void BM_SortValues(benchmark::State& state) {
  df::DataFrame frame = LoadFixture(state.range(0));
  for (auto _ : state) {
    auto out = df::SortValues(frame, {"value"}, {false});
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortValues)->Arg(100000);

void BM_LazyGraphConstruction(benchmark::State& state) {
  lazy::SessionOptions opts;
  opts.mode = lazy::ExecutionMode::kLazy;
  lazy::Session session(opts);
  auto frame = *lazy::FatDataFrame::ReadCsv(&session, TempCsv(1000));
  for (auto _ : state) {
    auto col = *frame.Col("value");
    auto mask = *col.CompareTo(df::CompareOp::kGt, df::Scalar::Double(1.0));
    auto filtered = *frame.FilterBy(mask);
    benchmark::DoNotOptimize(filtered.node());
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_LazyGraphConstruction);

void BM_OptimizerPass(benchmark::State& state) {
  lazy::SessionOptions opts;
  opts.mode = lazy::ExecutionMode::kLazy;
  lazy::Session session(opts);
  auto frame = *lazy::FatDataFrame::ReadCsv(&session, TempCsv(1000));
  auto sorted = *frame.SortValues({"value"}, {true});
  auto col = *sorted.Col("grp");
  auto mask = *col.CompareTo(df::CompareOp::kEq, df::Scalar::Int(3));
  auto filtered = *sorted.FilterBy(mask);
  for (auto _ : state) {
    opt::PassStats stats;
    benchmark::DoNotOptimize(
        opt::DeduplicateNodes(&session, {filtered.node()}, &stats).ok());
  }
}
BENCHMARK(BM_OptimizerPass);

// ---------------- Intra-op thread sweep (BENCH_kernels.json) ----------------

/// Order-independent bit-exact checksum of a column (sum of value bit
/// patterns + a validity term). Identical checksums across thread counts
/// certify the morsel layer's determinism contract on real kernel output.
uint64_t Checksum(const df::Column& col) {
  uint64_t h = 0x9e3779b97f4a7c15ULL * col.size();
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsValid(i)) {
      h += 0x7f4a7c159e3779b9ULL;
      continue;
    }
    uint64_t bits = 0;
    switch (col.type()) {
      case df::DataType::kInt64:
      case df::DataType::kTimestamp:
        bits = static_cast<uint64_t>(col.IntAt(i));
        break;
      case df::DataType::kDouble: {
        double v = col.DoubleAt(i);
        std::memcpy(&bits, &v, sizeof(bits));
        break;
      }
      case df::DataType::kBool:
        bits = col.BoolAt(i) ? 1 : 2;
        break;
      default:
        bits = std::hash<std::string>{}(col.StringAt(i));
        break;
    }
    h += bits * 0x2545f4914f6cdd1dULL;
  }
  return h;
}

uint64_t Checksum(const df::DataFrame& frame) {
  uint64_t h = 0;
  for (size_t c = 0; c < frame.num_columns(); ++c) {
    h = h * 31 + Checksum(*frame.column(c));
  }
  return h;
}

struct SweepRecord {
  std::string op;
  int64_t rows;
  int threads;
  double ns_per_row;
  uint64_t checksum;
};

int RunKernelThreadSweep() {
  const bool quick = std::getenv("LAFP_BENCH_QUICK") != nullptr;
  const int64_t rows = quick ? 200000 : 2000000;
  const int reps = quick ? 2 : 3;

  MemoryTracker tracker(0);
  std::vector<double> dbls(rows);
  std::vector<int64_t> keys(rows);
  for (int64_t i = 0; i < rows; ++i) {
    dbls[i] = 0.5 * static_cast<double>(i % 997) - 100.0;
    keys[i] = i % 31;
  }
  auto value = *df::Column::MakeDouble(std::move(dbls), {}, &tracker);
  auto grp = *df::Column::MakeInt(std::move(keys), {}, &tracker);
  auto frame = *df::DataFrame::Make({"grp", "value"}, {grp, value});
  // Hash-key fixtures: the same 31 groups as strings ("name_<grp>") and as
  // a category, a second 7-value string key for composite keys, and a
  // 31-row lookup table to merge against.
  std::vector<std::string> names(rows), origins(rows);
  for (int64_t i = 0; i < rows; ++i) {
    names[i] = "name_" + std::to_string(i % 31);
    origins[i] = "origin_" + std::to_string(i % 7);
  }
  auto name = *df::Column::MakeString(std::move(names), {}, &tracker);
  auto origin = *df::Column::MakeString(std::move(origins), {}, &tracker);
  auto cat = *df::CategorizeStrings(*name, &tracker);
  auto keyed = *df::DataFrame::Make(
      {"grp", "value", "name", "cat", "origin"},
      {grp, value, name, cat, origin});
  std::vector<int64_t> lookup_keys(31);
  std::vector<std::string> labels(31);
  for (int i = 0; i < 31; ++i) {
    lookup_keys[i] = i;
    labels[i] = "label_" + std::to_string(i);
  }
  auto lookup = *df::DataFrame::Make(
      {"grp", "label"},
      {*df::Column::MakeInt(std::move(lookup_keys), {}, &tracker),
       *df::Column::MakeString(std::move(labels), {}, &tracker)});
  const std::vector<df::AggSpec> sum_mean{
      {"value", df::AggFunc::kSum, "s"}, {"value", df::AggFunc::kMean, "m"}};
  std::vector<int64_t> take_idx(rows);
  for (int64_t i = 0; i < rows; ++i) take_idx[i] = rows - 1 - i;

  struct OpCase {
    const char* name;
    std::function<uint64_t()> run;
  };
  const std::vector<OpCase> ops = {
      {"arith_mul_add",
       [&] {
         auto sq = *df::ArithColumns(*value, df::ArithOp::kMul, *value);
         auto out = *df::ArithColumns(*sq, df::ArithOp::kAdd, *value);
         return Checksum(*out);
       }},
      {"compare_gt",
       [&] {
         auto out =
             *df::Compare(*value, df::CompareOp::kGt, df::Scalar::Double(0));
         return Checksum(*out);
       }},
      {"filter",
       [&] {
         auto mask =
             *df::Compare(*value, df::CompareOp::kGt, df::Scalar::Double(0));
         return Checksum(*df::Filter(frame, *mask));
       }},
      {"take",
       [&] { return Checksum(**value->Take(take_idx)); }},
      {"sum_kahan",
       [&] {
         double v = (*df::Reduce(*value, df::AggFunc::kSum)).double_value();
         uint64_t bits = 0;
         std::memcpy(&bits, &v, sizeof(bits));
         return bits;
       }},
      // groupby_sum_mean is the int64-keyed groupby.
      {"groupby_sum_mean",
       [&] { return Checksum(*df::GroupByAgg(frame, {"grp"}, sum_mean)); }},
      {"groupby_category",
       [&] { return Checksum(*df::GroupByAgg(keyed, {"cat"}, sum_mean)); }},
      {"groupby_string",
       [&] { return Checksum(*df::GroupByAgg(keyed, {"name"}, sum_mean)); }},
      {"groupby_composite",
       [&] {
         return Checksum(*df::GroupByAgg(keyed, {"origin", "grp"}, sum_mean));
       }},
      {"drop_duplicates",
       [&] {
         return Checksum(*df::DropDuplicates(keyed, {"origin", "name"}));
       }},
      {"value_counts",
       [&] { return Checksum(*df::ValueCounts(*name, "name")); }},
      {"merge",
       [&] {
         return Checksum(
             *df::Merge(keyed, lookup, {"grp"}, df::JoinType::kInner));
       }},
  };

  std::vector<SweepRecord> records;
  bool checksums_agree = true;
  for (const auto& op : ops) {
    uint64_t reference = 0;
    for (int threads : {1, 2, 4, 8}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
      df::KernelContext ctx(pool.get(), threads,
                            df::KernelContext::kDefaultMorselRows);
      df::KernelScope scope(&ctx);
      uint64_t checksum = 0;
      int64_t best_micros = 0;
      for (int r = 0; r < reps; ++r) {
        Timer timer;
        checksum = op.run();
        int64_t us = timer.ElapsedMicros();
        if (r == 0 || us < best_micros) best_micros = us;
      }
      if (threads == 1) {
        reference = checksum;
      } else if (checksum != reference) {
        checksums_agree = false;
        std::cerr << "CHECKSUM MISMATCH: " << op.name << " threads="
                  << threads << "\n";
      }
      records.push_back({op.name, rows, threads,
                         1000.0 * static_cast<double>(best_micros) /
                             static_cast<double>(rows),
                         checksum});
    }
  }

  std::ofstream json("BENCH_kernels.json");
  json << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    json << "  {\"op\": \"" << r.op << "\", \"rows\": " << r.rows
         << ", \"threads\": " << r.threads << ", \"ns_per_row\": "
         << r.ns_per_row << ", \"checksum\": \"" << std::hex << r.checksum
         << std::dec << "\"}" << (i + 1 < records.size() ? "," : "")
         << "\n";
  }
  json << "]\n";
  std::cout << "kernel thread sweep: " << records.size()
            << " records -> BENCH_kernels.json (checksums "
            << (checksums_agree ? "identical" : "DIVERGED") << ")\n";
  return checksums_agree ? 0 : 1;
}

}  // namespace
}  // namespace lafp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return lafp::RunKernelThreadSweep();
}
