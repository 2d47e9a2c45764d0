// Shared-nothing shard executor: byte-identity against the single-process
// Pandas reference across worker counts, worker-death recovery, coordinator
// cancellation fan-out, and degenerate (zero-row / all-null) partition
// exchange. Workers are real forked processes talking the LFSH wire
// protocol, so every assertion here crosses a process boundary.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "lazy/fat_dataframe.h"

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
    opts.backend_config.partition_rows = 64;
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

// head(5) fetches only the partitions holding its rows: the first of the
// scan's eleven 64-row partitions, not a gather of all of them.
TEST_F(ShardExecutorTest, HeadFetchesOnlyItsPrefix) {
  MemoryTracker scan_tracker(0);
  auto scanned = io::ReadCsv(csv_path_, {}, &scan_tracker);
  ASSERT_TRUE(scanned.ok());
  auto gather_bytes = io::EncodeLfc(*scanned);
  ASSERT_TRUE(gather_bytes.ok());
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
  // Four scans, one kGetFrame for partition 0, one kPutFrame placing the
  // head and one kGetFrame materializing it. A gather fetches all eleven.
  EXPECT_EQ(after["shard.calls"] - before["shard.calls"], 7);
  EXPECT_LT(after["shard.bytes_shipped"] - before["shard.bytes_shipped"],
            static_cast<int64_t>(gather_bytes->size()));
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

}  // namespace
}  // namespace lafp::lazy
