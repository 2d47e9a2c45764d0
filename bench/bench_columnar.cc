// Native columnar storage benchmark (ROADMAP item 2): CSV parse vs LFC
// scan, and zone-map pruning on a selective predicate. A time-ordered
// taxi-like table is written both ways; the selective query keeps only
// the newest ~1% of rows, so nearly every chunk's `ts` zone map rules it
// out before any decode happens.
//
// Results print as a table. The shape that must hold: the
// full LFC scan beats the CSV parse (binary decode vs text parse), and
// the pruned selective scan beats the unpruned one (chunk skipping vs
// decode-then-filter). The exit code gates on both plus byte-count
// agreement between the pruned and unpruned pipelines.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "dataframe/ops.h"
#include "io/columnar.h"
#include "io/csv.h"

using namespace lafp;
using namespace lafp::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic taxi-like table: increasing `ts`, noisy `fare`, small
/// `passengers`, low-cardinality `payment` (dictionary-encoded).
df::DataFrame MakeTable(size_t rows, MemoryTracker* tracker) {
  std::vector<int64_t> ts, passengers;
  std::vector<double> fares;
  std::vector<std::string> payments;
  static const char* kPayments[] = {"card", "cash", "dispute", "voucher"};
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < rows; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    ts.push_back(1700000000 + static_cast<int64_t>(i) * 7);
    fares.push_back(2.5 + static_cast<double>(state >> 40) / (1 << 16));
    passengers.push_back(1 + static_cast<int64_t>(state % 6));
    payments.push_back(kPayments[(state >> 20) % 4]);
  }
  auto c_ts = *df::Column::MakeInt(ts, {}, tracker);
  auto c_fare = *df::Column::MakeDouble(fares, {}, tracker);
  auto c_pass = *df::Column::MakeInt(passengers, {}, tracker);
  auto c_paystr = *df::Column::MakeString(payments, {}, tracker);
  auto c_pay = *df::CategorizeStrings(*c_paystr, tracker);
  return *df::DataFrame::Make({"ts", "fare", "passengers", "payment"},
                              {c_ts, c_fare, c_pass, c_pay});
}

struct Timed {
  double seconds = 0.0;
  size_t rows = 0;
};

/// Best-of-three wall time for one scan pipeline.
template <typename Fn>
Timed BestOf3(Fn&& fn) {
  Timed best;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = Now();
    size_t rows = fn();
    double dt = Now() - t0;
    if (rep == 0 || dt < best.seconds) best.seconds = dt;
    best.rows = rows;
  }
  return best;
}

}  // namespace

int main() {
  const char* quick = std::getenv("LAFP_BENCH_QUICK");
  const size_t rows =
      (quick != nullptr && quick[0] == '1') ? 200'000 : 2'000'000;
  const std::string dir = BenchScratchDir();
  const std::string csv_path = dir + "/columnar_taxi.csv";
  const std::string lfc_path = dir + "/columnar_taxi.lfc";

  MemoryTracker tracker;
  df::DataFrame table = MakeTable(rows, &tracker);
  if (!io::WriteCsv(table, csv_path).ok()) {
    std::fprintf(stderr, "CSV write failed\n");
    return 1;
  }
  io::LfcWriteOptions write_options;  // default 64Ki-row chunks
  if (!io::WriteLfcFile(table, lfc_path, write_options).ok()) {
    std::fprintf(stderr, "LFC write failed\n");
    return 1;
  }

  // The selective predicate: newest ~1% of the time-ordered rows.
  const int64_t cutoff =
      1700000000 + static_cast<int64_t>(rows - rows / 100) * 7;
  io::LfcPredicate selective{"ts", df::CompareOp::kGe,
                             df::Scalar::Int(cutoff)};

  // 1. Full-table CSV parse (what every query paid before LFC).
  Timed csv_parse = BestOf3([&] {
    auto frame = io::ReadCsv(csv_path, {}, &tracker);
    return frame.ok() ? frame->num_rows() : 0;
  });

  // 2. Full-table LFC scan of the same bytes.
  Timed lfc_full = BestOf3([&] {
    auto frame = io::ReadLfcFile(lfc_path, {}, &tracker);
    return frame.ok() ? frame->num_rows() : 0;
  });

  // 3/4. Selective scan + filter kernel, pruning off vs on. Both
  // pipelines must produce identical row counts (pruning only skips
  // chunks the predicate already rules out).
  io::LfcReadStats pruned_stats;
  auto selective_scan = [&](bool prune_enabled, io::LfcReadStats* stats) {
    io::LfcReadOptions options;
    options.prune.push_back(selective);
    options.prune_enabled = prune_enabled;
    auto frame = io::ReadLfcFile(lfc_path, options, &tracker, stats);
    if (!frame.ok()) return size_t{0};
    auto ts_col = frame->column("ts");
    if (!ts_col.ok()) return size_t{0};
    auto mask = df::Compare(**ts_col, selective.op, selective.scalar);
    if (!mask.ok()) return size_t{0};
    auto out = df::Filter(*frame, **mask);
    return out.ok() ? out->num_rows() : size_t{0};
  };
  Timed unpruned = BestOf3([&] { return selective_scan(false, nullptr); });
  Timed pruned = BestOf3([&] {
    pruned_stats = {};
    return selective_scan(true, &pruned_stats);
  });

  bool ok = true;
  if (csv_parse.rows != rows || lfc_full.rows != rows) {
    std::fprintf(stderr, "row-count mismatch: csv=%zu lfc=%zu want=%zu\n",
                 csv_parse.rows, lfc_full.rows, rows);
    ok = false;
  }
  if (pruned.rows != unpruned.rows || pruned.rows == 0) {
    std::fprintf(stderr,
                 "pruned pipeline diverged: pruned=%zu unpruned=%zu\n",
                 pruned.rows, unpruned.rows);
    ok = false;
  }

  const double csv_speedup =
      lfc_full.seconds > 0 ? csv_parse.seconds / lfc_full.seconds : 0;
  const double prune_speedup =
      pruned.seconds > 0 ? unpruned.seconds / pruned.seconds : 0;

  std::printf("Columnar storage: %zu rows, 4 columns\n\n", rows);
  std::printf("%-28s %10s %12s\n", "pipeline", "time (s)", "rows out");
  std::printf("%-28s %10.4f %12zu\n", "CSV parse (full)", csv_parse.seconds,
              csv_parse.rows);
  std::printf("%-28s %10.4f %12zu\n", "LFC scan (full)", lfc_full.seconds,
              lfc_full.rows);
  std::printf("%-28s %10.4f %12zu\n", "LFC selective (no prune)",
              unpruned.seconds, unpruned.rows);
  std::printf("%-28s %10.4f %12zu\n", "LFC selective (zone prune)",
              pruned.seconds, pruned.rows);
  std::printf("\nLFC vs CSV: %.1fx   prune skipped %zu/%zu chunks: %.1fx\n",
              csv_speedup, pruned_stats.chunks_skipped,
              pruned_stats.chunks_total, prune_speedup);

  if (csv_speedup <= 1.0) {
    std::fprintf(stderr, "LFC full scan did not beat CSV parse\n");
    ok = false;
  }
  if (prune_speedup <= 1.0) {
    std::fprintf(stderr, "pruned scan did not beat unpruned scan\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
