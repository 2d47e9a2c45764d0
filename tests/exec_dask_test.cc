#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "exec/dask_backend.h"

namespace lafp::exec {
namespace {

using df::AggFunc;
using df::Scalar;

class DaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "dask_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/big.csv";
    std::ofstream out(csv_path_);
    out << "id,v,grp\n";
    for (int i = 0; i < 10000; ++i) {
      out << i << "," << (i % 100) << "," << (i % 5) << "\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Backend> MakeDask(MemoryTracker* tracker,
                                    size_t partition_rows = 1000) {
    BackendConfig config;
    config.partition_rows = partition_rows;
    // Single-partition residency so the budget assertions below measure
    // the streaming pipeline itself, not the worker prefetch window.
    config.prefetch_partitions = 1;
    config.spill_dir = dir_ + "/spill";
    return MakeBackend(BackendKind::kDask, tracker, config);
  }

  Result<BackendValue> Read(Backend* backend) {
    OpDesc desc;
    desc.kind = OpKind::kReadCsv;
    desc.path = csv_path_;
    return backend->Execute(desc, {});
  }

  std::string dir_, csv_path_;
};

TEST_F(DaskTest, ExecuteIsLazy) {
  MemoryTracker tracker(0);
  auto backend = MakeDask(&tracker);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  // No data has been read yet: plan building must not touch the tracker.
  EXPECT_EQ(tracker.current(), 0);
  EXPECT_EQ(tracker.peak(), 0);
}

TEST_F(DaskTest, StreamingAggregationStaysUnderBudget) {
  // Full dataset is ~10k rows * 3 cols * 8B = 240KB in memory; a 64KB
  // budget only works if the reduction streams partition-by-partition.
  MemoryTracker tracker(64 * 1024);
  auto backend = MakeDask(&tracker, 500);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  OpDesc get;
  get.kind = OpKind::kGetColumn;
  get.column = "v";
  auto col = backend->Execute(get, {*frame});
  ASSERT_TRUE(col.ok());
  OpDesc red;
  red.kind = OpKind::kReduce;
  red.agg_func = AggFunc::kSum;
  auto total = backend->Execute(red, {*col});
  ASSERT_TRUE(total.ok());
  auto eager = backend->Materialize(*total);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->scalar.int_value(), 100 * (99 * 100 / 2));
  EXPECT_LE(tracker.peak(), 64 * 1024);
}

TEST_F(DaskTest, FullMaterializationCanOom) {
  MemoryTracker tracker(64 * 1024);
  auto backend = MakeDask(&tracker, 500);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  auto eager = backend->Materialize(*frame);
  EXPECT_TRUE(eager.status().IsOutOfMemory());
}

TEST_F(DaskTest, RecomputesWithoutPersist) {
  MemoryTracker tracker(0);
  auto backend = MakeDask(&tracker, 1000);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  OpDesc gb;
  gb.kind = OpKind::kGroupByAgg;
  gb.columns = {"grp"};
  gb.aggs = {{"v", AggFunc::kSum, "s"}};
  auto grouped = backend->Execute(gb, {*frame});
  ASSERT_TRUE(grouped.ok());
  auto first = backend->Materialize(*grouped);
  auto second = backend->Materialize(*grouped);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->frame.CanonicalString(true),
            second->frame.CanonicalString(true));
}

TEST_F(DaskTest, PersistCachesAcrossMaterializations) {
  MemoryTracker tracker(0);
  auto backend = MakeDask(&tracker, 1000);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(backend->Persist(*frame).ok());
  auto first = backend->Materialize(*frame);
  ASSERT_TRUE(first.ok());
  // Persisted partitions stay resident: tracker holds ~dataset size even
  // after the materialized copy goes away.
  int64_t resident = tracker.current();
  EXPECT_GT(resident, 0);
  auto second = backend->Materialize(*frame);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->frame.CanonicalString(true),
            second->frame.CanonicalString(true));
}

TEST_F(DaskTest, PersistIncreasesMemoryFootprint) {
  MemoryTracker plain_tracker(0);
  {
    auto backend = MakeDask(&plain_tracker, 1000);
    auto frame = Read(backend.get());
    OpDesc gb;
    gb.kind = OpKind::kGroupByAgg;
    gb.columns = {"grp"};
    gb.aggs = {{"v", AggFunc::kSum, "s"}};
    auto grouped = backend->Execute(gb, {*frame});
    ASSERT_TRUE(backend->Materialize(*grouped).ok());
  }
  MemoryTracker persist_tracker(0);
  {
    auto backend = MakeDask(&persist_tracker, 1000);
    auto frame = Read(backend.get());
    ASSERT_TRUE(backend->Persist(*frame).ok());
    OpDesc gb;
    gb.kind = OpKind::kGroupByAgg;
    gb.columns = {"grp"};
    gb.aggs = {{"v", AggFunc::kSum, "s"}};
    auto grouped = backend->Execute(gb, {*frame});
    ASSERT_TRUE(backend->Materialize(*grouped).ok());
  }
  // Persisting the base frame keeps the whole dataset resident (the
  // paper's stu 2.3x memory increase); streaming alone stays far lower.
  EXPECT_GT(persist_tracker.peak(), 2 * plain_tracker.peak());
}

TEST_F(DaskTest, SpillPersistedExtensionBoundsMemory) {
  MemoryTracker tracker(0);
  BackendConfig config;
  config.partition_rows = 1000;
  config.spill_dir = dir_ + "/spill";
  config.spill_persisted = true;
  auto backend = MakeBackend(BackendKind::kDask, &tracker, config);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(backend->Persist(*frame).ok());
  OpDesc gb;
  gb.kind = OpKind::kGroupByAgg;
  gb.columns = {"grp"};
  gb.aggs = {{"v", AggFunc::kSum, "s"}};
  auto grouped = backend->Execute(gb, {*frame});
  ASSERT_TRUE(grouped.ok());
  auto out = backend->Materialize(*grouped);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // After materialize, persisted partitions live on disk, not in memory.
  EXPECT_LT(tracker.current(), 100 * 1024);
  // And the cache is reusable.
  auto again = backend->Materialize(*grouped);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(out->frame.CanonicalString(true),
            again->frame.CanonicalString(true));
}

// A persisted partition reloads from its spill file as it was written: a
// category column keeps its dtype and its dictionary.
TEST_F(DaskTest, SpilledCategoryKeepsDtypeAndDictionary) {
  MemoryTracker tracker(0);
  BackendConfig config;
  // One partition, so no concat decategorizes the materialized column.
  config.partition_rows = 65536;
  config.spill_dir = dir_ + "/spill";
  config.spill_persisted = true;
  auto backend = MakeBackend(BackendKind::kDask, &tracker, config);
  OpDesc desc;
  desc.kind = OpKind::kReadCsv;
  desc.path = csv_path_;
  desc.csv_options.dtypes = {{"grp", df::DataType::kCategory}};
  auto frame = backend->Execute(desc, {});
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(backend->Persist(*frame).ok());
  auto out = backend->Materialize(*frame);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(std::filesystem::is_empty(config.spill_dir));
  const df::Column& grp = **out->frame.column("grp");
  ASSERT_EQ(grp.type(), df::DataType::kCategory);
  EXPECT_EQ(*grp.dictionary(), (df::Dictionary{"0", "1", "2", "3", "4"}));
}

TEST_F(DaskTest, SharedNodeEvaluatedOncePerMaterialize) {
  // mask and frame share the read; fusion must evaluate the read once per
  // partition (this is a correctness smoke test: results must match the
  // eager reference).
  MemoryTracker tracker(0);
  auto backend = MakeDask(&tracker, 700);
  auto frame = Read(backend.get());
  OpDesc get;
  get.kind = OpKind::kGetColumn;
  get.column = "v";
  auto v = backend->Execute(get, {*frame});
  OpDesc cmp;
  cmp.kind = OpKind::kCompare;
  cmp.compare_op = df::CompareOp::kLt;
  cmp.has_scalar = true;
  cmp.scalar = Scalar::Int(10);
  auto mask = backend->Execute(cmp, {*v});
  OpDesc filter;
  filter.kind = OpKind::kFilter;
  auto filtered = backend->Execute(filter, {*frame, *mask});
  ASSERT_TRUE(filtered.ok());
  OpDesc len;
  len.kind = OpKind::kLen;
  auto n = backend->Execute(len, {*filtered});
  auto eager = backend->Materialize(*n);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->scalar.int_value(), 1000);  // v in 0..9 of 0..99
}

TEST_F(DaskTest, ScalarFeedsBackIntoPlan) {
  // df[df.v > df.v.mean()] — the reduce result is consumed inside a zone.
  MemoryTracker tracker(0);
  auto backend = MakeDask(&tracker, 1000);
  auto frame = Read(backend.get());
  OpDesc get;
  get.kind = OpKind::kGetColumn;
  get.column = "v";
  auto v = backend->Execute(get, {*frame});
  OpDesc red;
  red.kind = OpKind::kReduce;
  red.agg_func = AggFunc::kMean;
  auto mean = backend->Execute(red, {*v});
  OpDesc cmp;
  cmp.kind = OpKind::kCompare;
  cmp.compare_op = df::CompareOp::kGt;
  auto mask = backend->Execute(cmp, {*v, *mean});
  OpDesc filter;
  filter.kind = OpKind::kFilter;
  auto filtered = backend->Execute(filter, {*frame, *mask});
  OpDesc len;
  len.kind = OpKind::kLen;
  auto n = backend->Execute(len, {*filtered});
  auto eager = backend->Materialize(*n);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  // mean of v (0..99 uniform) = 49.5; values 50..99 = half the rows.
  EXPECT_EQ(eager->scalar.int_value(), 5000);
}

TEST_F(DaskTest, HeadStopsEarly) {
  MemoryTracker tracker(48 * 1024);
  auto backend = MakeDask(&tracker, 200);
  auto frame = Read(backend.get());
  OpDesc head;
  head.kind = OpKind::kHead;
  head.n = 5;
  auto h = backend->Execute(head, {*frame});
  ASSERT_TRUE(h.ok());
  auto eager = backend->Materialize(*h);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->frame.num_rows(), 5u);
  // Early exit: head under a small budget must succeed (no full scan into
  // memory).
  EXPECT_LE(tracker.peak(), 48 * 1024);
}

}  // namespace
}  // namespace lafp::exec
