// Shared-nothing shard executor: byte-identity against the single-process
// Pandas reference across worker counts, worker-death recovery, coordinator
// cancellation fan-out, degenerate (zero-row / all-null) partition
// exchange, and the worker pool's lease rules. Workers are real forked
// processes talking the LFSH wire protocol, so every assertion here
// crosses a process boundary.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <latch>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/wire.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "lazy/fat_dataframe.h"
#include "optimizer/passes.h"
#include "script/analyze.h"
#include "shard/pool.h"
#include "shard/shard_backend.h"

namespace lafp::lazy {
namespace {

using df::AggFunc;
using df::ArithOp;
using df::CompareOp;
using df::Scalar;
using exec::BackendKind;

class ShardExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "shard_exec_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/facts.csv";
    std::ofstream out(csv_path_);
    out << "id,v,grp,label\n";
    for (int i = 0; i < 700; ++i) {
      out << i << "," << (i * 7) % 101 << "," << i % 9 << ",g"
          << i % 4 << "\n";
    }
    dim_path_ = dir_ + "/dim.csv";
    std::ofstream dim(dim_path_);
    dim << "grp,weight\n";
    for (int g = 0; g < 9; ++g) dim << g << "," << 10 * (g + 1) << "\n";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A session on `backend`; shard sessions get `shards` forked workers
  /// and a small partition size so several partitions land on each.
  std::unique_ptr<Session> MakeSession(BackendKind backend, int shards = 0,
                                       const std::string& faults = "",
                                       CancellationToken* cancel = nullptr) {
    SessionOptions opts;
    opts.backend = backend;
    opts.backend_config.shards = shards;
    opts.backend_config.partition_rows = partition_rows_;
    opts.tracker = &tracker_;
    opts.output = &output_;
    opts.fault_config = faults;
    opts.exec.cancel = cancel;
    return std::make_unique<Session>(opts);
  }

  /// The pipeline under test: scan -> filter -> derived column ->
  /// group-by (multi-agg) -> broadcast merge -> sort. Exercises every
  /// distributed path (kScan, kExecOp kept and returned, kPutFrame) plus
  /// the gather fallback (sort).
  Result<std::string> RunPipeline(Session* session) {
    LAFP_ASSIGN_OR_RETURN(auto frame,
                          FatDataFrame::ReadCsv(session, csv_path_));
    LAFP_ASSIGN_OR_RETURN(auto v, frame.Col("v"));
    LAFP_ASSIGN_OR_RETURN(auto mask, v.CompareTo(CompareOp::kLt,
                                                 Scalar::Int(90)));
    LAFP_ASSIGN_OR_RETURN(auto filtered, frame.FilterBy(mask));
    LAFP_ASSIGN_OR_RETURN(auto fv, filtered.Col("v"));
    LAFP_ASSIGN_OR_RETURN(auto doubled,
                          fv.ArithScalar(ArithOp::kMul, Scalar::Int(3)));
    LAFP_ASSIGN_OR_RETURN(auto with,
                          filtered.SetCol("v3", doubled));
    LAFP_ASSIGN_OR_RETURN(
        auto grouped,
        with.GroupByAgg({"grp"}, {{"v", AggFunc::kSum, "vs"},
                                  {"v3", AggFunc::kMean, "vm"},
                                  {"id", AggFunc::kCount, "n"}}));
    LAFP_ASSIGN_OR_RETURN(auto dim, FatDataFrame::ReadCsv(session, dim_path_));
    LAFP_ASSIGN_OR_RETURN(auto merged,
                          grouped.Merge(dim, {"grp"}, df::JoinType::kInner));
    LAFP_ASSIGN_OR_RETURN(auto sorted, merged.SortValues({"grp"}, {true}));
    LAFP_ASSIGN_OR_RETURN(auto eager, sorted.ToEager());
    return eager.ToString(eager.num_rows() + 1);
  }

  std::string Reference() {
    auto session = MakeSession(BackendKind::kPandas);
    auto out = RunPipeline(session.get());
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : std::string();
  }

  std::string dir_, csv_path_, dim_path_;
  size_t partition_rows_ = 64;
  MemoryTracker tracker_{0};
  std::stringstream output_;
};

TEST_F(ShardExecutorTest, ByteIdenticalAcrossShardCounts) {
  const std::string reference = Reference();
  ASSERT_FALSE(reference.empty());
  for (int shards : {1, 2, 4}) {
    auto session = MakeSession(BackendKind::kShard, shards);
    auto out = RunPipeline(session.get());
    ASSERT_TRUE(out.ok()) << "shards=" << shards << ": "
                          << out.status().ToString();
    EXPECT_EQ(*out, reference) << "shards=" << shards;
  }
}

// §3.6 category hints on an LFC scan: each worker decodes its chunks to
// codes into its reader's dictionary and ships category partitions. The
// pipeline filters, groups, counts and sorts on the hinted column, and
// its answer is byte-identical to an unhinted CSV scan for 1, 2 and 4
// workers.
TEST_F(ShardExecutorTest, HintedLfcScanByteIdenticalAcrossShardCounts) {
  const std::string lfc = dir_ + "/facts.lfc";
  io::LfcWriteOptions write_options;
  write_options.chunk_rows = 64;
  ASSERT_TRUE(
      io::ConvertCsvToLfc(csv_path_, lfc, {}, write_options, &tracker_).ok());
  auto run = [&](Session* session, bool hinted) -> Result<std::string> {
    io::LfcReadOptions options;
    if (hinted) options.categories = {"label"};
    LAFP_ASSIGN_OR_RETURN(auto frame, hinted ? FatDataFrame::ReadLfc(
                                                   session, lfc, options)
                                             : FatDataFrame::ReadCsv(
                                                   session, csv_path_));
    LAFP_ASSIGN_OR_RETURN(auto label, frame.Col("label"));
    LAFP_ASSIGN_OR_RETURN(auto mask, label.CompareTo(CompareOp::kNe,
                                                     Scalar::String("g2")));
    LAFP_ASSIGN_OR_RETURN(auto kept, frame.FilterBy(mask));
    LAFP_ASSIGN_OR_RETURN(
        auto grouped,
        kept.GroupByAgg({"label"}, {{"v", AggFunc::kSum, "vs"},
                                    {"id", AggFunc::kCount, "n"}}));
    LAFP_ASSIGN_OR_RETURN(auto sorted, grouped.SortValues({"label"}, {true}));
    LAFP_ASSIGN_OR_RETURN(auto counts, (*kept.Col("label")).ValueCounts());
    LAFP_ASSIGN_OR_RETURN(auto top, kept.SortValues({"label", "id"},
                                                    {false, true}));
    LAFP_ASSIGN_OR_RETURN(auto head, top.Head(12));
    std::string out;
    for (const auto& f : {sorted, counts, head}) {
      LAFP_ASSIGN_OR_RETURN(auto eager, f.ToEager());
      out += eager.ToString(eager.num_rows() + 1);
    }
    return out;
  };
  auto ref_session = MakeSession(BackendKind::kPandas);
  auto reference = run(ref_session.get(), false);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  auto pandas_session = MakeSession(BackendKind::kPandas);
  io::LfcReadOptions options;
  options.categories = {"label"};
  auto scanned = FatDataFrame::ReadLfc(pandas_session.get(), lfc, options);
  ASSERT_TRUE(scanned.ok());
  auto eager = scanned->ToEager();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ((*eager->column("label"))->type(), df::DataType::kCategory);
  auto hinted_pandas = run(pandas_session.get(), true);
  ASSERT_TRUE(hinted_pandas.ok()) << hinted_pandas.status().ToString();
  EXPECT_EQ(*hinted_pandas, *reference);

  for (int shards : {1, 2, 4}) {
    auto session = MakeSession(BackendKind::kShard, shards);
    auto out = run(session.get(), true);
    ASSERT_TRUE(out.ok()) << "shards=" << shards << ": "
                          << out.status().ToString();
    EXPECT_EQ(*out, *reference) << "shards=" << shards;
  }
}

TEST_F(ShardExecutorTest, ReduceMatchesReference) {
  auto ref_session = MakeSession(BackendKind::kPandas);
  auto ref_frame = *FatDataFrame::ReadCsv(ref_session.get(), csv_path_);
  auto ref_sum = *(*(*ref_frame.Col("v")).Sum()).Value();

  auto session = MakeSession(BackendKind::kShard, 4);
  auto frame = *FatDataFrame::ReadCsv(session.get(), csv_path_);
  auto sum = (*(*frame.Col("v")).Sum()).Value();
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->int_value(), ref_sum.int_value());

  auto len = (*frame.Len()).Value();
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len->int_value(), 700);
}

// Filter -> group-by -> merge runs where the partitions live: each op
// keeps its exchange waves (the call count is pinned), and the whole
// query ships less than one gather of the scanned frame would. An op
// silently routed to the gather fallback fails here.
TEST_F(ShardExecutorTest, PipelineStaysPartitionLocal) {
  MemoryTracker scan_tracker(0);
  auto scanned = io::ReadCsv(csv_path_, {}, &scan_tracker);
  ASSERT_TRUE(scanned.ok());
  auto gather_bytes = io::EncodeLfc(*scanned);
  ASSERT_TRUE(gather_bytes.ok());
  auto run = [&](Session* session) -> Result<std::string> {
    LAFP_ASSIGN_OR_RETURN(auto frame, FatDataFrame::ReadCsv(session, csv_path_));
    LAFP_ASSIGN_OR_RETURN(auto v, frame.Col("v"));
    LAFP_ASSIGN_OR_RETURN(auto mask,
                          v.CompareTo(CompareOp::kLt, Scalar::Int(90)));
    LAFP_ASSIGN_OR_RETURN(auto filtered, frame.FilterBy(mask));
    LAFP_ASSIGN_OR_RETURN(
        auto grouped,
        filtered.GroupByAgg({"grp"}, {{"v", AggFunc::kSum, "vs"},
                                      {"id", AggFunc::kCount, "n"}}));
    LAFP_ASSIGN_OR_RETURN(auto dim, FatDataFrame::ReadCsv(session, dim_path_));
    LAFP_ASSIGN_OR_RETURN(auto merged,
                          grouped.Merge(dim, {"grp"}, df::JoinType::kInner));
    LAFP_ASSIGN_OR_RETURN(auto eager, merged.ToEager());
    return eager.ToString(eager.num_rows() + 1);
  };
  auto reference = run(MakeSession(BackendKind::kPandas).get());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  metrics::Registry* registry = metrics::Registry::Global();
  auto before = registry->Scrape();
  auto session = MakeSession(BackendKind::kShard, 4);
  auto out = run(session.get());
  auto after = registry->Scrape();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, *reference);
  EXPECT_EQ(after["shard.calls"] - before["shard.calls"], 57);
  EXPECT_LT(after["shard.bytes_shipped"] - before["shard.bytes_shipped"],
            static_cast<int64_t>(gather_bytes->size()));
}

// head(5) runs only on the partitions holding its rows, where they live:
// the first of the scan's three 256-row partitions, not a gather of all
// of them, and it ships 5 rows, not the partition.
TEST_F(ShardExecutorTest, HeadFetchesOnlyItsPrefix) {
  partition_rows_ = 256;
  MemoryTracker scan_tracker(0);
  auto scanned = io::ReadCsv(csv_path_, {}, &scan_tracker);
  ASSERT_TRUE(scanned.ok());
  // Partition 0 as the wire would carry it.
  auto first_partition = scanned->SliceRows(0, partition_rows_);
  ASSERT_TRUE(first_partition.ok());
  auto partition_bytes = io::EncodeLfc(*first_partition);
  ASSERT_TRUE(partition_bytes.ok());
  auto run = [&](Session* session) -> Result<std::string> {
    LAFP_ASSIGN_OR_RETURN(auto frame, FatDataFrame::ReadCsv(session, csv_path_));
    LAFP_ASSIGN_OR_RETURN(auto head, frame.Head(5));
    LAFP_ASSIGN_OR_RETURN(auto eager, head.ToEager());
    return eager.ToString(eager.num_rows() + 1);
  };
  auto reference = run(MakeSession(BackendKind::kPandas).get());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  metrics::Registry* registry = metrics::Registry::Global();
  auto before = registry->Scrape();
  auto session = MakeSession(BackendKind::kShard, 4);
  auto out = run(session.get());
  auto after = registry->Scrape();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, *reference);
  // Four scans, one kExecOp running head(5) where partition 0 lives, one
  // kPutFrame placing the head and one kGetFrame materializing it: less
  // than partition 0 alone, which a fetch of the prefix would ship.
  EXPECT_EQ(after["shard.calls"] - before["shard.calls"], 7);
  EXPECT_LT(after["shard.bytes_shipped"] - before["shard.bytes_shipped"],
            static_cast<int64_t>(partition_bytes->size()));
}

// The rewriter forces `t = df.compute(live_df=[...])` ahead of an external
// call or a checksum of a lazy frame, as in the emp program. The call
// consumes the value that compute made: it runs no second round and
// fetches the frame no second time.
TEST_F(ShardExecutorTest, ComputeThenConsumeFetchesTheFrameOnce) {
  const std::string program =
      "import lazyfatpandas.pandas as pd\n"
      "import matplotlib.pyplot as plt\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "by_grp = df.groupby([\"grp\"])[\"v\"].mean()\n"
      "print(by_grp)\n"
      "plt.plot(df)\n"
      "big = df[df.v > 50]\n"
      "by_label = big.groupby([\"label\"])[\"v\"].max()\n"
      "checksum(by_grp)\n"
      "checksum(by_label)\n";
  // Runs the program as LaFP does (analyzed, lazy prints, the default
  // passes) or, for the reference, as written on eager Pandas.
  auto run = [&](BackendKind backend, int shards, bool lafp,
                 int64_t* rounds) -> Result<std::string> {
    std::stringstream out;
    SessionOptions opts;
    opts.backend = backend;
    opts.backend_config.shards = shards;
    opts.backend_config.partition_rows = partition_rows_;
    opts.tracker = &tracker_;
    opts.output = &out;
    opts.mode = lafp ? ExecutionMode::kLazy : ExecutionMode::kEager;
    opts.lazy_print = lafp;
    Session session(opts);
    if (lafp) opt::InstallDefaultOptimizer(&session);
    script::RunOptions run_opts;
    run_opts.analyze = lafp;
    LAFP_RETURN_NOT_OK(script::RunProgram(program, &session, run_opts));
    if (rounds != nullptr) *rounds = session.num_rounds();
    return out.str();
  };
  auto reference = run(BackendKind::kPandas, 0, /*lafp=*/false, nullptr);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (BackendKind backend : {BackendKind::kPandas, BackendKind::kModin,
                              BackendKind::kDask}) {
    auto out = run(backend, 0, /*lafp=*/true, nullptr);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, *reference) << exec::BackendKindName(backend);
  }

  metrics::Registry* registry = metrics::Registry::Global();
  auto before = registry->Scrape();
  int64_t rounds = 0;
  auto out = run(BackendKind::kShard, 4, /*lafp=*/true, &rounds);
  auto after = registry->Scrape();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, *reference);
  // Three computes (the plot's and the two checksums'), one round each:
  // the prints ride in the first. Consumers that computed again would
  // make it six.
  EXPECT_EQ(rounds, 3);
  // Each computed frame is fetched once. Fetching again in the consumers
  // would add the plotted frame's eleven partitions and one partition
  // for each checksummed group-by: 88 calls.
  EXPECT_EQ(after["shard.calls"] - before["shard.calls"], 75);
}

// A worker SIGKILLed while the scan request is in flight is respawned and
// the scan retried transparently: the query still succeeds with
// reference-identical bytes (scans are idempotent, ISSUE acceptance
// criterion "clean Status or transparent retry").
TEST_F(ShardExecutorTest, WorkerKillDuringScanRetriesTransparently) {
  const std::string reference = Reference();
  auto session =
      MakeSession(BackendKind::kShard, 2, "shard.worker_kill:nth=1");
  auto out = RunPipeline(session.get());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, reference);
}

// Sweep the kill site across the whole protocol exchange: whatever
// message the fault lands on, the query must end in either a clean
// failed Status or a reference-identical success — never a hang, crash,
// or silently wrong frame.
TEST_F(ShardExecutorTest, WorkerKillAnywhereYieldsCleanStatusOrRetry) {
  const std::string reference = Reference();
  for (int nth = 1; nth <= 12; ++nth) {
    auto session = MakeSession(
        BackendKind::kShard, 2,
        "shard.worker_kill:nth=" + std::to_string(nth));
    auto out = RunPipeline(session.get());
    if (out.ok()) {
      EXPECT_EQ(*out, reference) << "nth=" << nth;
    } else {
      EXPECT_FALSE(out.status().message().empty()) << "nth=" << nth;
    }
  }
}

// Injected transport errors (send and recv sides) follow the same
// contract as real worker death.
TEST_F(ShardExecutorTest, InjectedTransportFaultsFailCleanly) {
  const std::string reference = Reference();
  for (const char* site : {"shard.send", "shard.recv"}) {
    for (int nth : {1, 3, 7}) {
      auto session = MakeSession(
          BackendKind::kShard, 2,
          std::string(site) + ":nth=" + std::to_string(nth));
      auto out = RunPipeline(session.get());
      if (out.ok()) {
        EXPECT_EQ(*out, reference) << site << " nth=" << nth;
      } else {
        EXPECT_FALSE(out.status().message().empty())
            << site << " nth=" << nth;
      }
    }
  }
}

// A pre-tripped token cancels the round at the coordinator; no worker
// result is awaited forever (the fan-out drains in-flight requests
// before failing).
TEST_F(ShardExecutorTest, CancellationFansOutFromCoordinator) {
  CancellationToken cancel;
  cancel.Cancel();
  auto session = MakeSession(BackendKind::kShard, 2, "", &cancel);
  auto frame = FatDataFrame::ReadCsv(session.get(), csv_path_);
  Status failed = Status::OK();
  if (frame.ok()) {
    auto out = frame->ToEager();
    ASSERT_FALSE(out.ok());
    failed = out.status();
  } else {
    failed = frame.status();
  }
  EXPECT_EQ(failed.code(), StatusCode::kCancelled)
      << failed.ToString();
}

// Zero-row partitions must survive the wire round-trip: filter everything
// out, then run the aggregation/merge machinery over the empty result.
TEST_F(ShardExecutorTest, ZeroRowPartitionExchange) {
  auto run = [&](std::unique_ptr<Session> session) -> Result<std::string> {
    LAFP_ASSIGN_OR_RETURN(auto frame,
                          FatDataFrame::ReadCsv(session.get(), csv_path_));
    LAFP_ASSIGN_OR_RETURN(auto v, frame.Col("v"));
    LAFP_ASSIGN_OR_RETURN(auto mask,
                          v.CompareTo(CompareOp::kLt, Scalar::Int(-1)));
    LAFP_ASSIGN_OR_RETURN(auto none, frame.FilterBy(mask));
    LAFP_ASSIGN_OR_RETURN(auto grouped,
                          none.GroupByAgg({"grp"}, {{"v", AggFunc::kSum,
                                                     "vs"}}));
    LAFP_ASSIGN_OR_RETURN(auto eager, grouped.ToEager());
    return eager.ToString(eager.num_rows() + 1);
  };
  auto reference = run(MakeSession(BackendKind::kPandas));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int shards : {1, 2, 4}) {
    auto out = run(MakeSession(BackendKind::kShard, shards));
    ASSERT_TRUE(out.ok()) << "shards=" << shards << ": "
                          << out.status().ToString();
    EXPECT_EQ(*out, *reference) << "shards=" << shards;
  }
}

// All-null columns cross the exchange intact (null bitmaps are part of
// the LFC payload; a lost bitmap shows up as fabricated zeros).
TEST_F(ShardExecutorTest, AllNullColumnExchange) {
  std::string path = dir_ + "/nulls.csv";
  {
    std::ofstream out(path);
    out << "k,hole\n";
    for (int i = 0; i < 300; ++i) out << i % 4 << ",\n";
  }
  auto run = [&](std::unique_ptr<Session> session) -> Result<std::string> {
    LAFP_ASSIGN_OR_RETURN(auto frame,
                          FatDataFrame::ReadCsv(session.get(), path));
    LAFP_ASSIGN_OR_RETURN(auto hole, frame.Col("hole"));
    LAFP_ASSIGN_OR_RETURN(auto filled, hole.FillNa(Scalar::Double(5.0)));
    LAFP_ASSIGN_OR_RETURN(auto with, frame.SetCol("filled", filled));
    LAFP_ASSIGN_OR_RETURN(
        auto grouped,
        with.GroupByAgg({"k"}, {{"filled", AggFunc::kSum, "s"},
                                {"hole", AggFunc::kCount, "n"}}));
    LAFP_ASSIGN_OR_RETURN(auto sorted, grouped.SortValues({"k"}, {true}));
    LAFP_ASSIGN_OR_RETURN(auto eager, sorted.ToEager());
    return eager.ToString(eager.num_rows() + 1);
  };
  auto reference = run(MakeSession(BackendKind::kPandas));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int shards : {1, 2, 4}) {
    auto out = run(MakeSession(BackendKind::kShard, shards));
    ASSERT_TRUE(out.ok()) << "shards=" << shards << ": "
                          << out.status().ToString();
    EXPECT_EQ(*out, *reference) << "shards=" << shards;
  }
}

// A category frame placed on the workers (kPutFrame) and fetched back
// (kGetFrame) stays a category, with its dictionary in the same order.
TEST_F(ShardExecutorTest, CategoryFrameKeepsDtypeAndDictionary) {
  auto labels = *df::Column::MakeString({"b", "a", "", "b", "c"},
                                        {1, 1, 1, 0, 1}, &tracker_);
  auto cat = *df::CategorizeStrings(*labels, &tracker_);
  auto frame = *df::DataFrame::Make({"label"}, {cat});
  exec::BackendConfig config;
  config.shards = 2;
  config.partition_rows = 64;
  auto backend = exec::MakeBackend(BackendKind::kShard, &tracker_, config);
  auto placed = backend->FromEager(exec::EagerValue::Frame(frame));
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  auto fetched = backend->Materialize(*placed);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  const df::Column& col = **fetched->frame.column("label");
  ASSERT_EQ(col.type(), df::DataType::kCategory);
  EXPECT_EQ(*col.dictionary(), (df::Dictionary{"b", "a", "", "c"}));
  EXPECT_EQ(fetched->frame.ToString(10), frame.ToString(10));
}

// ---------------------------------------------------------------------------
// The worker pool: sessions lease workers and return the clean ones.

/// The counter's change over `run`.
template <typename Fn>
int64_t CounterDelta(const std::string& name, Fn run) {
  metrics::Registry* registry = metrics::Registry::Global();
  auto before = registry->Scrape();
  run();
  auto after = registry->Scrape();
  return after[name] - before[name];
}

std::vector<pid_t> WorkerPidsOf(Session* session) {
  auto* backend = dynamic_cast<shard::ShardBackend*>(session->backend());
  return backend != nullptr ? backend->WorkerPids() : std::vector<pid_t>{};
}

/// Idle pooled workers by pid, with the frame count each reports.
std::map<pid_t, uint64_t> IdleWorkers() {
  std::map<pid_t, uint64_t> idle;
  for (const shard::IdleWorker& w : shard::WorkerPool::Get()->ProbeIdle()) {
    idle[w.pid] = w.resident_frames;
  }
  return idle;
}

bool Reaped(pid_t pid) { return ::kill(pid, 0) != 0 && errno == ESRCH; }

/// Sets LAFP_SHARDS (unsets it for null) for one scope.
class ScopedShardsEnv {
 public:
  explicit ScopedShardsEnv(const char* value) {
    if (const char* old = std::getenv("LAFP_SHARDS")) saved_ = old;
    if (value != nullptr) {
      ::setenv("LAFP_SHARDS", value, 1);
    } else {
      ::unsetenv("LAFP_SHARDS");
    }
  }
  ~ScopedShardsEnv() {
    if (saved_.has_value()) {
      ::setenv("LAFP_SHARDS", saved_->c_str(), 1);
    } else {
      ::unsetenv("LAFP_SHARDS");
    }
  }
  ScopedShardsEnv(const ScopedShardsEnv&) = delete;
  ScopedShardsEnv& operator=(const ScopedShardsEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

// The shard backend alone decides the worker count, on a session and on
// MakeBackend alike: BackendConfig::shards, else LAFP_SHARDS, else 2. A
// count outside [1, 64] or a malformed LAFP_SHARDS fails the first
// Execute with Invalid, never a silent clamp.
TEST_F(ShardExecutorTest, WorkerCountHasOneDecision) {
  const std::string reference = Reference();
  auto through_backend = [&](int shards) {
    exec::BackendConfig config;
    config.shards = shards;
    return exec::MakeBackend(BackendKind::kShard, &tracker_, config);
  };
  auto workers_of = [](exec::Backend* backend) {
    return dynamic_cast<shard::ShardBackend*>(backend)->WorkerPids().size();
  };
  exec::OpDesc read;
  read.kind = exec::OpKind::kReadCsv;
  read.path = csv_path_;
  {
    ScopedShardsEnv env(nullptr);
    auto session = MakeSession(BackendKind::kShard);
    EXPECT_EQ(WorkerPidsOf(session.get()).size(), 2u);
    EXPECT_EQ(workers_of(through_backend(0).get()), 2u);
  }
  {
    ScopedShardsEnv env("3");
    auto session = MakeSession(BackendKind::kShard);
    EXPECT_EQ(WorkerPidsOf(session.get()).size(), 3u);
    auto out = RunPipeline(session.get());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, reference);
    auto backend = through_backend(0);
    EXPECT_EQ(workers_of(backend.get()), 3u);
    EXPECT_TRUE(backend->Execute(read, {}).ok());
    // An explicit count wins over the env knob.
    EXPECT_EQ(WorkerPidsOf(MakeSession(BackendKind::kShard, 1).get()).size(),
              1u);
  }
  for (const char* bad : {"0", "65", "abc", "-1"}) {
    ScopedShardsEnv env(bad);
    auto session = MakeSession(BackendKind::kShard);
    EXPECT_TRUE(WorkerPidsOf(session.get()).empty()) << bad;
    auto out = RunPipeline(session.get());
    EXPECT_TRUE(out.status().IsInvalid()) << bad << ": "
                                          << out.status().ToString();
    EXPECT_NE(out.status().message().find("LAFP_SHARDS"), std::string::npos)
        << out.status().ToString();
    auto backend = through_backend(0);
    EXPECT_TRUE(backend->Execute(read, {}).status().IsInvalid()) << bad;
  }
  ScopedShardsEnv env(nullptr);
  for (int bad : {65, -1}) {
    auto session = std::make_unique<Session>(SessionOptions::Builder()
                                                 .shards(bad)
                                                 .tracker(&tracker_)
                                                 .output(&output_)
                                                 .Build());
    auto out = RunPipeline(session.get());
    EXPECT_TRUE(out.status().IsInvalid()) << bad << ": "
                                          << out.status().ToString();
    EXPECT_TRUE(through_backend(bad)->Execute(read, {}).status().IsInvalid())
        << bad;
  }
}

// A session with as many workers as an earlier one, or fewer, forks none:
// it runs on the earlier session's workers, and its answer is the
// reference's. Every worker the pool holds between sessions holds no
// frame.
TEST_F(ShardExecutorTest, LaterSessionsRunOnPooledWorkers) {
  const std::string reference = Reference();
  {
    auto first = MakeSession(BackendKind::kShard, 4);
    auto out = RunPipeline(first.get());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  for (int shards : {4, 2, 1}) {
    Result<std::string> out = std::string();
    std::vector<pid_t> pids;
    const int64_t spawns = CounterDelta("shard.worker_spawns", [&] {
      auto session = MakeSession(BackendKind::kShard, shards);
      pids = WorkerPidsOf(session.get());
      out = RunPipeline(session.get());
    });
    EXPECT_EQ(spawns, 0) << "shards=" << shards;
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, reference) << "shards=" << shards;
    const auto idle = IdleWorkers();
    for (pid_t pid : pids) {
      ASSERT_EQ(idle.count(pid), 1u) << "worker " << pid << " not pooled";
    }
    for (const auto& [pid, resident] : idle) {
      EXPECT_EQ(resident, 0u) << "worker " << pid;
    }
  }
}

// A lease that ends with a frame still alive, or with a worker killed
// mid-query, returns nothing that could be stale: the live frame's
// workers are killed and reaped, the dead worker is not pooled, and the
// next session on the pool answers as the reference does.
TEST_F(ShardExecutorTest, LeaseEndingUncleanReturnsNothingStale) {
  const std::string reference = Reference();
  auto frame = *df::DataFrame::Make(
      {"x"}, {*df::Column::MakeInt({1, 2, 3, 4, 5}, {}, &tracker_)});
  exec::BackendConfig config;
  config.shards = 2;
  config.partition_rows = 2;
  auto backend = exec::MakeBackend(BackendKind::kShard, &tracker_, config);
  auto placed = backend->FromEager(exec::EagerValue::Frame(frame));
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  const std::vector<pid_t> holders =
      dynamic_cast<shard::ShardBackend*>(backend.get())->WorkerPids();
  backend.reset();  // the lease ends while `placed` names its frame
  auto idle = IdleWorkers();
  for (pid_t pid : holders) {
    EXPECT_EQ(idle.count(pid), 0u) << "worker " << pid << " was pooled";
    EXPECT_TRUE(Reaped(pid)) << "worker " << pid;
  }
  placed = exec::BackendValue{};  // its frees go to a lease that is over

  int killed = 0;
  for (int nth : {1, 4, 7}) {
    auto session = MakeSession(
        BackendKind::kShard, 2, "shard.worker_kill:nth=" + std::to_string(nth));
    const std::vector<pid_t> leased = WorkerPidsOf(session.get());
    auto out = RunPipeline(session.get());
    if (out.ok()) {
      EXPECT_EQ(*out, reference) << "nth=" << nth;
    }
    session.reset();
    idle = IdleWorkers();
    for (pid_t pid : leased) {
      if (idle.count(pid) == 0) {
        EXPECT_TRUE(Reaped(pid)) << "worker " << pid;
        ++killed;
      }
    }
    for (const auto& [pid, resident] : idle) {
      EXPECT_EQ(resident, 0u) << "nth=" << nth << " worker " << pid;
    }
    auto after = RunPipeline(MakeSession(BackendKind::kShard, 2).get());
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(*after, reference) << "after nth=" << nth;
  }
  EXPECT_EQ(killed, 3);  // one per killed worker, never pooled
}

// The kFreeFrames reply counts the frames the worker still holds: the
// count the pool reads before it takes a worker back.
TEST_F(ShardExecutorTest, FreeFramesReplyCountsResidentFrames) {
  shard::WorkerPool* pool = shard::WorkerPool::Get();
  auto worker = pool->Spawn();
  ASSERT_TRUE(worker.ok()) << worker.status().ToString();
  auto frame = *df::DataFrame::Make(
      {"x"}, {*df::Column::MakeInt({1, 2, 3}, {}, &tracker_)});
  const std::string bytes = *io::EncodeLfc(frame);
  for (uint64_t handle : {1, 2}) {
    WireWriter put;
    put.U64(handle);
    put.Raw(bytes);
    ASSERT_TRUE(
        shard::SendMessage(worker->fd, shard::MsgType::kPutFrame, put.Take())
            .ok());
    auto reply = shard::RecvMessage(worker->fd);
    ASSERT_TRUE(reply.ok() && reply->type == shard::MsgType::kOk);
  }
  auto resident_after_freeing = [&](std::vector<uint64_t> handles) {
    EXPECT_TRUE(shard::SendMessage(worker->fd, shard::MsgType::kFreeFrames,
                                   shard::EncodeFreeFrames(handles))
                    .ok());
    auto resident = shard::RecvResidentFrames(worker->fd);
    return resident.ok() ? static_cast<int64_t>(*resident) : -1;
  };
  EXPECT_EQ(resident_after_freeing({1}), 1);
  EXPECT_EQ(resident_after_freeing({}), 1);
  EXPECT_EQ(resident_after_freeing({2}), 0);
  pool->Kill(*worker);
}

// An idle worker that dies (the OOM killer, say) is not leased: the next
// lease forks a replacement, and a request to it succeeds. Placing a
// frame is not retried the way a scan is, so it would fail on the dead
// worker.
TEST_F(ShardExecutorTest, WorkerDeadWhileIdleIsNotLeased) {
  MakeSession(BackendKind::kShard, 2).reset();
  const auto idle = IdleWorkers();
  ASSERT_GE(idle.size(), 2u);
  const pid_t victim = idle.begin()->first;
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  siginfo_t info{};
  ASSERT_EQ(::waitid(P_PID, victim, &info, WEXITED | WNOWAIT), 0);

  auto frame = *df::DataFrame::Make(
      {"x"}, {*df::Column::MakeInt({1, 2, 3, 4, 5}, {}, &tracker_)});
  exec::BackendConfig config;
  config.shards = static_cast<int>(idle.size());
  config.partition_rows = 1;
  std::vector<pid_t> leased;
  const int64_t spawns = CounterDelta("shard.worker_spawns", [&] {
    auto backend = exec::MakeBackend(BackendKind::kShard, &tracker_, config);
    leased = dynamic_cast<shard::ShardBackend*>(backend.get())->WorkerPids();
    auto placed = backend->FromEager(exec::EagerValue::Frame(frame));
    ASSERT_TRUE(placed.ok()) << placed.status().ToString();
    auto fetched = backend->Materialize(*placed);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(fetched->frame.ToString(10), frame.ToString(10));
  });
  EXPECT_EQ(spawns, 1);
  EXPECT_EQ(std::count(leased.begin(), leased.end(), victim), 0);
  EXPECT_TRUE(Reaped(victim));
}

// Four sessions at once lease disjoint workers, and each answers as the
// serial reference does.
TEST_F(ShardExecutorTest, ConcurrentSessionsLeaseDisjointWorkers) {
  constexpr int kSessions = 4;
  constexpr int kShards = 2;
  const std::string reference = Reference();
  // Grow the pool to the peak demand first: a fork while other threads
  // allocate can hang the child under ASan.
  MakeSession(BackendKind::kShard, kSessions * kShards).reset();
  std::vector<std::string> outs(kSessions);
  std::vector<std::vector<pid_t>> pids(kSessions);
  const int64_t spawns = CounterDelta("shard.worker_spawns", [&] {
    std::latch all_leased(kSessions);
    std::vector<std::thread> threads;
    for (int i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        std::stringstream output;
        SessionOptions opts;
        opts.backend = BackendKind::kShard;
        opts.backend_config.shards = kShards;
        opts.backend_config.partition_rows = 64;
        opts.tracker = &tracker_;
        opts.output = &output;
        Session session(opts);
        pids[i] = WorkerPidsOf(&session);
        all_leased.arrive_and_wait();  // every lease is held at once
        auto out = RunPipeline(&session);
        outs[i] = out.ok() ? *out : out.status().ToString();
      });
    }
    for (auto& t : threads) t.join();
  });
  EXPECT_EQ(spawns, 0);
  std::set<pid_t> distinct;
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_EQ(outs[i], reference) << "session " << i;
    ASSERT_EQ(pids[i].size(), static_cast<size_t>(kShards));
    distinct.insert(pids[i].begin(), pids[i].end());
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kSessions * kShards));
  EXPECT_EQ(distinct.count(-1), 0u);
}

// A process that exits kills and reaps its idle workers: none is left
// running, or as a zombie, once the process is gone.
TEST_F(ShardExecutorTest, NoWorkerOutlivesItsProcess) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  std::fflush(nullptr);  // the child's exit must not flush them again
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipe_fds[0]);
    SessionOptions opts;
    opts.backend = BackendKind::kShard;
    opts.backend_config.shards = 2;
    opts.backend_config.partition_rows = 64;
    opts.exec.num_threads = 1;  // the forked child starts no thread
    opts.tracker = &tracker_;
    opts.output = &output_;
    auto session = std::make_unique<Session>(opts);
    const std::vector<pid_t> pids = WorkerPidsOf(session.get());
    const bool ok = RunPipeline(session.get()).ok();
    session.reset();  // both workers go back to the pool, idle
    const ssize_t n = static_cast<ssize_t>(pids.size() * sizeof(pid_t));
    const bool sent = ::write(pipe_fds[1], pids.data(), pids.size() *
                                                          sizeof(pid_t)) == n;
    ::close(pipe_fds[1]);
    std::exit(ok && sent ? 0 : 1);
  }
  ::close(pipe_fds[1]);
  std::vector<pid_t> pids(2, -1);
  const ssize_t want = static_cast<ssize_t>(pids.size() * sizeof(pid_t));
  const ssize_t got = ::read(pipe_fds[0], pids.data(), want);
  ::close(pipe_fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  ASSERT_EQ(got, want);
  for (pid_t pid : pids) {
    ASSERT_GT(pid, 0);
    EXPECT_TRUE(Reaped(pid)) << "worker " << pid << " outlived its process";
  }
}

// A scan whose later unit fails drops the units it already stored, and
// the other worker's units are freed too: both workers end the session
// holding no frame and go back to the pool. The file opens cleanly (the
// footer checksum covers only the footer); the decode of its last chunk
// finds a dictionary code past the dictionary.
TEST_F(ShardExecutorTest, FailedScanLeavesNoFrameResident) {
  std::vector<std::string> labels;
  for (int i = 0; i < 700; ++i) labels.push_back("g" + std::to_string(i % 4));
  auto frame = *df::DataFrame::Make(
      {"label"}, {*df::Column::MakeString(labels, {}, &tracker_)});
  const std::string path = dir_ + "/bad_code.lfc";
  io::LfcWriteOptions write_options;
  write_options.chunk_rows = 64;
  ASSERT_TRUE(io::WriteLfcFile(frame, path, write_options).ok());
  {
    // One all-valid string column: its u32 codes follow the 8-byte magic
    // in row order, so the last row's code is the file's bytes 8 + 4*699.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(8 + 4 * 699);
    const uint32_t bad_code = 0xffffffffu;
    file.write(reinterpret_cast<const char*>(&bad_code), sizeof(bad_code));
  }
  ASSERT_TRUE(io::ReadLfcInfo(path).ok());

  std::vector<pid_t> pids;
  {
    auto session = MakeSession(BackendKind::kShard, 2);
    pids = WorkerPidsOf(session.get());
    auto scanned = FatDataFrame::ReadLfc(session.get(), path);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    auto out = scanned->ToEager();
    ASSERT_FALSE(out.ok());
    EXPECT_NE(out.status().message().find("dictionary code out of range"),
              std::string::npos)
        << out.status().ToString();
  }
  const auto idle = IdleWorkers();
  for (pid_t pid : pids) {
    ASSERT_EQ(idle.count(pid), 1u) << "worker " << pid << " not pooled";
    EXPECT_EQ(idle.at(pid), 0u) << "worker " << pid;
  }
}

}  // namespace
}  // namespace lafp::lazy
