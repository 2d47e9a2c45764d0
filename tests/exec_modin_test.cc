#include "exec/modin_backend.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/timer.h"
#include "lazy/fat_dataframe.h"

namespace lafp::exec {
namespace {

using df::AggFunc;
using df::Scalar;

class ModinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "modin_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/data.csv";
    std::ofstream out(csv_path_);
    out << "id,v,grp\n";
    for (int i = 0; i < 5000; ++i) {
      out << i << "," << (i % 100) << "," << (i % 5) << "\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Backend> MakeModin(MemoryTracker* tracker,
                                     size_t partition_rows = 512,
                                     int64_t overhead_us = 0) {
    BackendConfig config;
    config.partition_rows = partition_rows;
    config.task_overhead_us = overhead_us;
    ExecutionOptions exec;
    exec.num_threads = 4;
    return MakeBackend(BackendKind::kModin, tracker, config, exec);
  }

  Result<BackendValue> Read(Backend* backend) {
    OpDesc desc;
    desc.kind = OpKind::kReadCsv;
    desc.path = csv_path_;
    return backend->Execute(desc, {});
  }

  std::string dir_, csv_path_;
};

TEST_F(ModinTest, ReadIsEagerAndPartitioned) {
  MemoryTracker tracker(0);
  auto backend = MakeModin(&tracker);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  // Eager: the data is resident right after Execute.
  EXPECT_GT(tracker.current(), 5000 * 3 * 4);
  auto eager = backend->Materialize(*frame);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_rows(), 5000u);
}

TEST_F(ModinTest, MapOpsRunPerPartition) {
  MemoryTracker tracker(0);
  auto backend = MakeModin(&tracker);
  auto frame = Read(backend.get());
  OpDesc get;
  get.kind = OpKind::kGetColumn;
  get.column = "v";
  auto v = backend->Execute(get, {*frame});
  ASSERT_TRUE(v.ok());
  OpDesc cmp;
  cmp.kind = OpKind::kCompare;
  cmp.compare_op = df::CompareOp::kLt;
  cmp.has_scalar = true;
  cmp.scalar = Scalar::Int(50);
  auto mask = backend->Execute(cmp, {*v});
  ASSERT_TRUE(mask.ok());
  OpDesc filter;
  filter.kind = OpKind::kFilter;
  auto filtered = backend->Execute(filter, {*frame, *mask});
  ASSERT_TRUE(filtered.ok());
  auto eager = backend->Materialize(*filtered);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_rows(), 2500u);
}

TEST_F(ModinTest, MisalignedPartitionsFallBackToConcat) {
  MemoryTracker tracker(0);
  auto backend = MakeModin(&tracker);
  auto frame = Read(backend.get());
  // A mask imported with a different partitioning (one big partition).
  MemoryTracker side(0);
  std::vector<uint8_t> bits(5000, 0);
  for (size_t i = 0; i < 5000; i += 2) bits[i] = 1;
  auto mask_col = *df::Column::MakeBool(bits, {}, &side);
  auto mask_frame = *df::DataFrame::Make({"m"}, {mask_col});
  BackendConfig wide;
  wide.partition_rows = 100000;  // single partition
  // Import through the same backend but the partition count differs from
  // the csv read (512-row chunks).
  auto imported = backend->FromEager(EagerValue::Frame(mask_frame));
  ASSERT_TRUE(imported.ok());
  OpDesc filter;
  filter.kind = OpKind::kFilter;
  auto filtered = backend->Execute(filter, {*frame, *imported});
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  auto eager = backend->Materialize(*filtered);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_rows(), 2500u);
}

TEST_F(ModinTest, TwoPhaseGroupByWithNuniqueFallback) {
  MemoryTracker tracker(0);
  auto backend = MakeModin(&tracker);
  auto frame = Read(backend.get());
  OpDesc gb;
  gb.kind = OpKind::kGroupByAgg;
  gb.columns = {"grp"};
  gb.aggs = {{"v", AggFunc::kSum, "s"}, {"v", AggFunc::kNunique, "u"}};
  auto grouped = backend->Execute(gb, {*frame});
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  auto eager = backend->Materialize(*grouped);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_rows(), 5u);
  // Each grp holds v values i%100 where i%5==g: 20 distinct residues.
  EXPECT_EQ((*eager->frame.column("u"))->IntAt(0), 20);
}

TEST_F(ModinTest, TaskOverheadSlowsExecution) {
  MemoryTracker t1(0), t2(0);
  auto fast = MakeModin(&t1, 512, 0);
  auto slow = MakeModin(&t2, 512, 2000);  // 2ms per partition task
  Timer timer;
  ASSERT_TRUE(Read(fast.get()).ok());
  double fast_seconds = timer.ElapsedSeconds();
  timer.Restart();
  ASSERT_TRUE(Read(slow.get()).ok());
  double slow_seconds = timer.ElapsedSeconds();
  // 10 partitions x 2ms = +20ms minimum.
  EXPECT_GT(slow_seconds, fast_seconds + 0.01);
}

TEST_F(ModinTest, BudgetedReadFails) {
  MemoryTracker tiny(10'000);
  auto backend = MakeModin(&tiny);
  auto frame = Read(backend.get());
  EXPECT_TRUE(frame.status().IsOutOfMemory());
}

// Kernels run by Modin partition workers are attributed to their node's
// NodeStats: each worker records into a local sink that the launching
// thread merges back (df::SharedKernelCounters). A parallel Modin round
// must therefore report nonzero kernel_micros and morsels.
TEST_F(ModinTest, ParallelRoundAttributesWorkerKernels) {
  // Big enough that per-partition kernel time measures above the Timer's
  // microsecond resolution.
  std::string big_csv = dir_ + "/big.csv";
  {
    std::ofstream out(big_csv);
    out << "id,v,grp\n";
    for (int i = 0; i < 200000; ++i) {
      out << i << "," << (i % 1000) << "," << (i % 7) << "\n";
    }
  }
  MemoryTracker tracker(0);
  std::stringstream output;
  lazy::Session session(lazy::SessionOptions::Builder()
                            .backend(BackendKind::kModin)
                            .threads(4)
                            .partition_rows(4096)
                            .tracker(&tracker)
                            .output(&output)
                            .Build());
  auto frame = lazy::FatDataFrame::ReadCsv(&session, big_csv);
  ASSERT_TRUE(frame.ok());
  auto v = frame->Col("v");
  ASSERT_TRUE(v.ok());
  auto scaled = v->ArithScalar(df::ArithOp::kMul, Scalar::Int(3));
  ASSERT_TRUE(scaled.ok());
  auto shifted = scaled->ArithScalar(df::ArithOp::kAdd, Scalar::Int(1));
  ASSERT_TRUE(shifted.ok());
  auto eager = shifted->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  const lazy::ExecutionReport& report = session.last_report();
  EXPECT_TRUE(report.parallel);
  // Worker-side kernel activity flowed into the round totals.
  EXPECT_GT(report.kernel_morsels, 0);
  EXPECT_GT(report.kernel_micros, 0);
  // And into the individual map nodes: each arith node ran one kernel per
  // partition (200000 / 4096 -> 49 partitions).
  bool found_arith = false;
  for (const auto& n : report.nodes) {
    if (n.op.find("arith") == std::string::npos) continue;
    found_arith = true;
    EXPECT_GE(n.morsels, 49) << n.op;
  }
  EXPECT_TRUE(found_arith);
}

}  // namespace
}  // namespace lafp::exec
