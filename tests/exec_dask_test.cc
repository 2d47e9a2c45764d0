#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>

#include "common/metrics.h"
#include "exec/dask_backend.h"
#include "exec/partitioned.h"

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

  /// Records one op over `inputs`; `fill` sets its fields.
  static BackendValue Op(Backend* backend, OpKind kind,
                         std::vector<BackendValue> inputs,
                         const std::function<void(OpDesc*)>& fill = {}) {
    OpDesc desc;
    desc.kind = kind;
    if (fill) fill(&desc);
    auto out = backend->Execute(desc, inputs);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return *out;
  }
  static BackendValue Column(Backend* backend, const BackendValue& frame,
                             const std::string& name) {
    return Op(backend, OpKind::kGetColumn, {frame},
              [&](OpDesc* d) { d->column = name; });
  }
  static BackendValue Reduce(Backend* backend, const BackendValue& column,
                             AggFunc func) {
    return Op(backend, OpKind::kReduce, {column},
              [&](OpDesc* d) { d->agg_func = func; });
  }
  static BackendValue GroupSum(Backend* backend, const BackendValue& frame) {
    return Op(backend, OpKind::kGroupByAgg, {frame}, [](OpDesc* d) {
      d->columns = {"grp"};
      d->aggs = {{"v", AggFunc::kSum, "s"}};
    });
  }

  /// Runs `body`; `*ranges` receives the CSV ranges it parsed
  /// (csv.chunks).
  template <typename Body>
  static auto Parsing(int64_t* ranges, Body&& body) {
    metrics::Counter* counter =
        metrics::Registry::Global()->GetCounter("csv.chunks");
    const int64_t before = counter->Value();
    auto out = body();
    *ranges = counter->Value() - before;
    return out;
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


// One MaterializeAll of head, a group-by, a mean and a len over one read
// parses the file once: the four folds share one pass. Materialized one
// by one, the group-by, the mean and the len each scan the whole file.
TEST_F(DaskTest, MaterializeAllSharesOneScan) {
  MemoryTracker tracker(0);
  auto backend = MakeDask(&tracker, 1000);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  const std::vector<BackendValue> outputs = {
      Op(backend.get(), OpKind::kHead, {*frame}, [](OpDesc* d) { d->n = 5; }),
      GroupSum(backend.get(), *frame),
      Reduce(backend.get(), Column(backend.get(), *frame, "v"),
             AggFunc::kMean),
      Op(backend.get(), OpKind::kLen, {*frame})};

  std::vector<EagerValue> separate;
  std::vector<int64_t> ranges(outputs.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    auto v = Parsing(&ranges[i], [&] { return backend->Materialize(outputs[i]); });
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    separate.push_back(*v);
  }
  const int64_t scan = ranges[3];  // len reads every range
  EXPECT_EQ(scan, 11);             // 10 ranges, then the end
  EXPECT_LT(ranges[0], scan);      // head alone stops early
  EXPECT_EQ(ranges[1], scan);
  EXPECT_EQ(ranges[2], scan);

  int64_t parsed = 0;
  auto together =
      Parsing(&parsed, [&] { return backend->MaterializeAll(outputs); });
  EXPECT_EQ(parsed, scan);
  ASSERT_TRUE(together.ok()) << together.status().ToString();
  ASSERT_EQ(together->size(), outputs.size());
  EXPECT_EQ((*together)[0].frame.CanonicalString(false),
            separate[0].frame.CanonicalString(false));
  EXPECT_EQ((*together)[1].frame.CanonicalString(true),
            separate[1].frame.CanonicalString(true));
  EXPECT_EQ((*together)[2].scalar.ToString(), separate[2].scalar.ToString());
  EXPECT_EQ((*together)[3].scalar.int_value(), 10000);
}

// df[df.v > df.v.mean()] (retail's shape): the filter reads the mean, so
// the mean's wave and the filter's each scan the file.
TEST_F(DaskTest, FilterOnMeanScansTwice) {
  MemoryTracker tracker(0);
  auto backend = MakeDask(&tracker, 1000);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  BackendValue v = Column(backend.get(), *frame, "v");
  BackendValue mean = Reduce(backend.get(), v, AggFunc::kMean);
  BackendValue mask =
      Op(backend.get(), OpKind::kCompare, {v, mean},
         [](OpDesc* d) { d->compare_op = df::CompareOp::kGt; });
  BackendValue above = Op(backend.get(), OpKind::kFilter, {*frame, mask});
  BackendValue n = Op(backend.get(), OpKind::kLen, {above});
  int64_t parsed = 0;
  auto out =
      Parsing(&parsed, [&] { return backend->MaterializeAll({mean, n}); });
  EXPECT_EQ(parsed, 2 * 11);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_DOUBLE_EQ((*out)[0].scalar.double_value(), 49.5);
  EXPECT_EQ((*out)[1].scalar.int_value(), 5000);
}

// A persist-requested frame is collected in the same pass as a direct
// consumer of its scan; its own consumers then read the collected
// partitions, in this call and later ones, without parsing.
TEST_F(DaskTest, PersistSharesScanWithDirectConsumers) {
  MemoryTracker tracker(0);
  auto backend = MakeDask(&tracker, 1000);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  BackendValue v = Column(backend.get(), *frame, "v");
  BackendValue low = Op(
      backend.get(), OpKind::kFilter,
      {*frame, Op(backend.get(), OpKind::kCompare, {v}, [](OpDesc* d) {
         d->compare_op = df::CompareOp::kLt;
         d->has_scalar = true;
         d->scalar = Scalar::Int(50);
       })});
  ASSERT_TRUE(backend->Persist(low).ok());
  BackendValue total = Reduce(backend.get(), v, AggFunc::kSum);
  BackendValue grouped = GroupSum(backend.get(), low);
  int64_t parsed = 0;
  auto out = Parsing(
      &parsed, [&] { return backend->MaterializeAll({grouped, total}); });
  EXPECT_EQ(parsed, 11);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[1].scalar.int_value(), 100 * (99 * 100 / 2));
  EXPECT_EQ((*out)[0].frame.num_rows(), 5u);
  BackendValue rows = Op(backend.get(), OpKind::kLen, {low});
  auto n = Parsing(&parsed, [&] { return backend->Materialize(rows); });
  EXPECT_EQ(parsed, 0);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n->scalar.int_value(), 5000);
}

// Two folds over one merge share the merge stream: the right side is
// collected once and the left side's scan runs once. Two folds over a
// gather (a nunique group-by) share its one collected input.
TEST_F(DaskTest, MergeAndGatherInputsAreSharedSources) {
  MemoryTracker tracker(0);
  auto backend = MakeDask(&tracker, 1000);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  BackendValue sums = GroupSum(backend.get(), *frame);
  BackendValue merged =
      Op(backend.get(), OpKind::kMerge, {*frame, sums}, [](OpDesc* d) {
        d->columns = {"grp"};
        d->join_type = df::JoinType::kInner;
      });
  BackendValue rows = Op(backend.get(), OpKind::kLen, {merged});
  BackendValue total =
      Reduce(backend.get(), Column(backend.get(), merged, "s"), AggFunc::kSum);
  // One scan for the right side's group-by, one for the left side.
  int64_t parsed = 0;
  auto out =
      Parsing(&parsed, [&] { return backend->MaterializeAll({rows, total}); });
  EXPECT_EQ(parsed, 2 * 11);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].scalar.int_value(), 10000);
  // Each group's 2000 rows carry its sum, so the sums of v add up 2000
  // times.
  EXPECT_EQ((*out)[1].scalar.int_value(), 2000 * 100 * (99 * 100 / 2));

  OpDesc nunique;
  nunique.kind = OpKind::kGroupByAgg;
  nunique.columns = {"grp"};
  nunique.aggs = {{"v", AggFunc::kNunique, "n"}};
  ASSERT_EQ(StrategyOf(nunique), Strategy::kGather);
  auto gathered = backend->Execute(nunique, {*frame});
  ASSERT_TRUE(gathered.ok());
  const BackendValue& distinct = *gathered;
  BackendValue groups = Op(backend.get(), OpKind::kLen, {distinct});
  BackendValue most = Reduce(backend.get(), Column(backend.get(), distinct, "n"),
                             AggFunc::kMax);
  out = Parsing(&parsed,
                [&] { return backend->MaterializeAll({groups, most}); });
  EXPECT_EQ(parsed, 11);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].scalar.int_value(), 5);
  EXPECT_EQ((*out)[1].scalar.int_value(), 20);
}

// Several aggregations sharing one pass still stream partition by
// partition, within the budget a single one runs in (see
// StreamingAggregationStaysUnderBudget).
TEST_F(DaskTest, SharedPassStaysUnderBudget) {
  MemoryTracker tracker(64 * 1024);
  auto backend = MakeDask(&tracker, 500);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  BackendValue v = Column(backend.get(), *frame, "v");
  auto out = backend->MaterializeAll(
      {Reduce(backend.get(), v, AggFunc::kSum),
       Reduce(backend.get(), v, AggFunc::kMean),
       Reduce(backend.get(), Column(backend.get(), *frame, "id"),
              AggFunc::kMax),
       GroupSum(backend.get(), *frame),
       Op(backend.get(), OpKind::kLen, {*frame})});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].scalar.int_value(), 100 * (99 * 100 / 2));
  EXPECT_EQ((*out)[2].scalar.int_value(), 9999);
  EXPECT_EQ((*out)[3].frame.num_rows(), 5u);
  EXPECT_EQ((*out)[4].scalar.int_value(), 10000);
  EXPECT_LE(tracker.peak(), 64 * 1024);
}

// Head sharing a pass with a full reduction takes only its prefix; the
// pass streams on for the reduction within head's budget.
TEST_F(DaskTest, HeadStopsEarlyInSharedPass) {
  MemoryTracker tracker(48 * 1024);
  auto backend = MakeDask(&tracker, 200);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  auto out = backend->MaterializeAll(
      {Op(backend.get(), OpKind::kHead, {*frame}, [](OpDesc* d) { d->n = 5; }),
       Reduce(backend.get(), Column(backend.get(), *frame, "v"),
              AggFunc::kSum)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ((*out)[0].frame.num_rows(), 5u);
  EXPECT_EQ((*out)[1].scalar.int_value(), 100 * (99 * 100 / 2));
  EXPECT_LE(tracker.peak(), 48 * 1024);
}

// A cancelled round stops a pass between pulls.
TEST_F(DaskTest, CancelledTokenStopsPass) {
  MemoryTracker tracker(0);
  CancellationToken cancel;
  BackendConfig config;
  config.partition_rows = 1000;
  config.spill_dir = dir_ + "/spill";
  ExecutionOptions exec;
  exec.cancel = &cancel;
  auto backend = MakeBackend(BackendKind::kDask, &tracker, config, exec);
  auto frame = Read(backend.get());
  ASSERT_TRUE(frame.ok());
  BackendValue n = Op(backend.get(), OpKind::kLen, {*frame});
  cancel.Cancel();
  int64_t parsed = 0;
  auto out = Parsing(&parsed, [&] { return backend->Materialize(n); });
  EXPECT_TRUE(out.status().IsCancelled()) << out.status().ToString();
  EXPECT_EQ(parsed, 0);
  cancel.Reset();
  out = backend->Materialize(n);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->scalar.int_value(), 10000);
}

}  // namespace
}  // namespace lafp::exec
