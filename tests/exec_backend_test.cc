#include "exec/backend.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/macros.h"
#include "exec/agg_twophase.h"
#include "lazy/fat_dataframe.h"

namespace lafp::exec {
namespace {

using df::AggFunc;
using df::Column;
using df::DataFrame;
using df::DataType;
using df::Scalar;

/// Parameterized over the four backends: the same op sequence must give
/// the same results (up to row order on Dask).
class BackendParamTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "exec_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/trips.csv";
    std::ofstream out(csv_path_);
    out << "id,fare,pax,city,pickup\n";
    for (int i = 0; i < 200; ++i) {
      out << i << "," << (i % 7) * 2.5 << "," << (i % 4 + 1) << ","
          << (i % 3 == 0 ? "NY" : (i % 3 == 1 ? "SF" : "LA")) << ","
          << "2024-01-" << (i % 28 + 1 < 10 ? "0" : "") << (i % 28 + 1)
          << " 08:00:00\n";
    }
    out.close();
    BackendConfig config;
    config.partition_rows = 64;  // force several partitions
    ExecutionOptions exec;
    exec.num_threads = 2;
    backend_ = MakeBackend(GetParam(), &tracker_, config, exec);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Result<BackendValue> Read() {
    OpDesc desc;
    desc.kind = OpKind::kReadCsv;
    desc.path = csv_path_;
    return backend_->Execute(desc, {});
  }

  Result<BackendValue> GetCol(const BackendValue& frame,
                              const std::string& name) {
    OpDesc desc;
    desc.kind = OpKind::kGetColumn;
    desc.column = name;
    return backend_->Execute(desc, {frame});
  }

  /// Materialized eager frame of a value, row-sorted if the backend does
  /// not preserve order.
  std::string Canonical(const BackendValue& v) {
    auto eager = backend_->Materialize(v);
    EXPECT_TRUE(eager.ok()) << eager.status().ToString();
    if (!eager.ok()) return "";
    if (eager->is_scalar) return eager->scalar.ToString();
    return eager->frame.CanonicalString(!backend_->preserves_row_order());
  }

  /// Reference frame canonicalized the same way as Canonical().
  std::string RefCanonical(const DataFrame& ref) {
    return ref.CanonicalString(!backend_->preserves_row_order());
  }

  std::string dir_, csv_path_;
  MemoryTracker tracker_{0};
  std::unique_ptr<Backend> backend_;
};

TEST_P(BackendParamTest, ReadAndMaterialize) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto eager = backend_->Materialize(*frame);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->frame.num_rows(), 200u);
  EXPECT_EQ(eager->frame.num_columns(), 5u);
  EXPECT_EQ((*eager->frame.column("pickup"))->type(), DataType::kTimestamp);
}

TEST_P(BackendParamTest, FilterPipeline) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  auto fare = GetCol(*frame, "fare");
  ASSERT_TRUE(fare.ok());
  OpDesc cmp;
  cmp.kind = OpKind::kCompare;
  cmp.compare_op = df::CompareOp::kGt;
  cmp.has_scalar = true;
  cmp.scalar = Scalar::Double(10.0);
  auto mask = backend_->Execute(cmp, {*fare});
  ASSERT_TRUE(mask.ok());
  OpDesc filter;
  filter.kind = OpKind::kFilter;
  auto filtered = backend_->Execute(filter, {*frame, *mask});
  ASSERT_TRUE(filtered.ok());
  auto eager = backend_->Materialize(*filtered);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  // fares cycle 0,2.5,..,15; >10 keeps i%7 in {5,6}: 28 each over 200 rows.
  EXPECT_EQ(eager->frame.num_rows(), 56u);
  auto col = *eager->frame.column("fare");
  for (size_t i = 0; i < col->size(); ++i) {
    EXPECT_GT(col->DoubleAt(i), 10.0);
  }
}

TEST_P(BackendParamTest, GroupByMatchesEagerReference) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  OpDesc gb;
  gb.kind = OpKind::kGroupByAgg;
  gb.columns = {"city"};
  gb.aggs = {{"fare", AggFunc::kSum, "fare_sum"},
             {"pax", AggFunc::kMean, "pax_mean"},
             {"id", AggFunc::kCount, "trips"},
             {"fare", AggFunc::kMin, "fare_min"},
             {"fare", AggFunc::kMax, "fare_max"}};
  auto grouped = backend_->Execute(gb, {*frame});
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();

  // Reference: eager engine over the whole file.
  MemoryTracker ref_tracker(0);
  auto ref_frame = io::ReadCsv(csv_path_, {}, &ref_tracker);
  ASSERT_TRUE(ref_frame.ok());
  auto ref = df::GroupByAgg(*ref_frame, gb.columns, gb.aggs);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(Canonical(*grouped), RefCanonical(*ref));
}

TEST_P(BackendParamTest, GroupByNuniqueFallsBackCorrectly) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  OpDesc gb;
  gb.kind = OpKind::kGroupByAgg;
  gb.columns = {"city"};
  gb.aggs = {{"pax", AggFunc::kNunique, "pax_kinds"}};
  auto grouped = backend_->Execute(gb, {*frame});
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  MemoryTracker ref_tracker(0);
  auto ref_frame = io::ReadCsv(csv_path_, {}, &ref_tracker);
  auto ref = df::GroupByAgg(*ref_frame, gb.columns, gb.aggs);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(Canonical(*grouped), RefCanonical(*ref));
}

TEST_P(BackendParamTest, ReduceScalars) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  auto pax = GetCol(*frame, "pax");
  ASSERT_TRUE(pax.ok());
  struct Case {
    AggFunc func;
    std::string expected;
  };
  // pax cycles 1..4 over 200 rows: sum = 200/4*(1+2+3+4) = 500.
  for (const Case& c : std::vector<Case>{{AggFunc::kSum, "500"},
                                         {AggFunc::kMean, "2.5"},
                                         {AggFunc::kCount, "200"},
                                         {AggFunc::kMin, "1"},
                                         {AggFunc::kMax, "4"},
                                         {AggFunc::kNunique, "4"}}) {
    OpDesc red;
    red.kind = OpKind::kReduce;
    red.agg_func = c.func;
    auto out = backend_->Execute(red, {*pax});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    auto eager = backend_->Materialize(*out);
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    ASSERT_TRUE(eager->is_scalar);
    EXPECT_EQ(eager->scalar.ToString(), c.expected)
        << df::AggFuncName(c.func);
  }
}

TEST_P(BackendParamTest, LenCountsRows) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  OpDesc len;
  len.kind = OpKind::kLen;
  auto out = backend_->Execute(len, {*frame});
  ASSERT_TRUE(out.ok());
  auto eager = backend_->Materialize(*out);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(eager->is_scalar);
  EXPECT_EQ(eager->scalar.int_value(), 200);
}

TEST_P(BackendParamTest, MergeBroadcast) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  // Small lookup table imported via FromEager.
  MemoryTracker side(0);
  auto city = *df::Column::MakeString({"NY", "SF"}, {}, &side);
  auto region = *df::Column::MakeString({"east", "west"}, {}, &side);
  auto lookup = *DataFrame::Make({"city", "region"}, {city, region});
  auto rhs = backend_->FromEager(EagerValue::Frame(lookup));
  ASSERT_TRUE(rhs.ok());
  OpDesc merge;
  merge.kind = OpKind::kMerge;
  merge.columns = {"city"};
  merge.join_type = df::JoinType::kInner;
  auto joined = backend_->Execute(merge, {*frame, *rhs});
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();

  MemoryTracker ref_tracker(0);
  auto ref_frame = io::ReadCsv(csv_path_, {}, &ref_tracker);
  auto ref = df::Merge(*ref_frame, lookup, {"city"}, df::JoinType::kInner);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(Canonical(*joined), RefCanonical(*ref));
}

TEST_P(BackendParamTest, SetColumnWithDtAccessor) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  auto pickup = GetCol(*frame, "pickup");
  ASSERT_TRUE(pickup.ok());
  OpDesc dt;
  dt.kind = OpKind::kDtAccessor;
  dt.dt_field = df::DtField::kDayOfWeek;
  auto dow = backend_->Execute(dt, {*pickup});
  ASSERT_TRUE(dow.ok()) << dow.status().ToString();
  OpDesc set;
  set.kind = OpKind::kSetColumn;
  set.column = "day";
  auto with_day = backend_->Execute(set, {*frame, *dow});
  ASSERT_TRUE(with_day.ok()) << with_day.status().ToString();
  auto eager = backend_->Materialize(*with_day);
  ASSERT_TRUE(eager.ok());
  EXPECT_TRUE(eager->frame.HasColumn("day"));
  EXPECT_EQ((*eager->frame.column("day"))->type(), DataType::kInt64);
}

TEST_P(BackendParamTest, HeadIsSmall) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  OpDesc head;
  head.kind = OpKind::kHead;
  head.n = 5;
  auto h = backend_->Execute(head, {*frame});
  ASSERT_TRUE(h.ok());
  auto eager = backend_->Materialize(*h);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_rows(), 5u);
}

TEST_P(BackendParamTest, HeadZeroKeepsColumns) {
  // df.head(0).fare.sum() is 0.0: the empty head still has every column.
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  OpDesc head;
  head.kind = OpKind::kHead;
  head.n = 0;
  auto h = backend_->Execute(head, {*frame});
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  auto eager = backend_->Materialize(*h);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->frame.num_rows(), 0u);
  EXPECT_EQ(eager->frame.num_columns(), 5u);
  auto fare = GetCol(*h, "fare");
  ASSERT_TRUE(fare.ok()) << fare.status().ToString();
  OpDesc sum;
  sum.kind = OpKind::kReduce;
  sum.agg_func = AggFunc::kSum;
  auto total = backend_->Execute(sum, {*fare});
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  auto value = backend_->Materialize(*total);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  ASSERT_TRUE(value->is_scalar);
  EXPECT_EQ(value->scalar.type(), DataType::kDouble);
  EXPECT_EQ(value->scalar.double_value(), 0.0);
}

TEST_P(BackendParamTest, ValueCountsTiesKeepFirstAppearance) {
  // Partition 0 holds a x20 then b x44, partition 1 a x24: a and b tie at
  // 44 and a appears first. Per-partition value_counts partials, folded
  // in order, would put b first.
  std::vector<std::string> values(20, "a");
  values.insert(values.end(), 44, "b");
  values.insert(values.end(), 24, "a");
  auto col = Column::MakeString(values, {}, &tracker_);
  ASSERT_TRUE(col.ok());
  auto series = DataFrame::Make({"v"}, {*col});
  ASSERT_TRUE(series.ok());
  auto imported = backend_->FromEager(EagerValue::Frame(*series));
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  OpDesc vc;
  vc.kind = OpKind::kValueCounts;
  auto counts = backend_->Execute(vc, {*imported});
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  auto ref = df::ValueCounts(**col, "v");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((*ref->column("v"))->StringAt(0), "a");
  EXPECT_EQ(Canonical(*counts), RefCanonical(*ref));
}

TEST_P(BackendParamTest, ValueCountsMatchesReference) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  auto city = GetCol(*frame, "city");
  ASSERT_TRUE(city.ok());
  OpDesc vc;
  vc.kind = OpKind::kValueCounts;
  auto counts = backend_->Execute(vc, {*city});
  ASSERT_TRUE(counts.ok()) << counts.status().ToString();
  auto eager = backend_->Materialize(*counts);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_rows(), 3u);
  // NY appears for i%3==0: 67 times.
  auto canonical = Canonical(*counts);
  EXPECT_NE(canonical.find("NY,67"), std::string::npos) << canonical;
}

TEST_P(BackendParamTest, DropDuplicatesAndUnique) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  OpDesc dd;
  dd.kind = OpKind::kDropDuplicates;
  dd.columns = {"city", "pax"};
  auto deduped = backend_->Execute(dd, {*frame});
  ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();
  auto eager = backend_->Materialize(*deduped);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_rows(), 12u);  // 3 cities x 4 pax values

  auto city = GetCol(*frame, "city");
  OpDesc uniq;
  uniq.kind = OpKind::kUnique;
  auto u = backend_->Execute(uniq, {*city});
  ASSERT_TRUE(u.ok());
  auto ue = backend_->Materialize(*u);
  ASSERT_TRUE(ue.ok());
  EXPECT_EQ(ue->frame.num_rows(), 3u);
}

TEST_P(BackendParamTest, DescribeMatchesReference) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  OpDesc desc;
  desc.kind = OpKind::kDescribe;
  auto described = backend_->Execute(desc, {*frame});
  ASSERT_TRUE(described.ok()) << described.status().ToString();
  MemoryTracker ref_tracker(0);
  auto ref_frame = io::ReadCsv(csv_path_, {}, &ref_tracker);
  auto ref = df::Describe(*ref_frame);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(Canonical(*described), RefCanonical(*ref));
}

TEST_P(BackendParamTest, FallbackSortViaEagerKernels) {
  auto frame = Read();
  ASSERT_TRUE(frame.ok());
  OpDesc sort;
  sort.kind = OpKind::kSortValues;
  sort.columns = {"fare"};
  sort.ascending = {false};
  // Dask reports no native support; the caller (the LaFP runtime) would
  // materialize + run eager. Here we exercise whichever path the backend
  // offers.
  if (backend_->SupportsOp(sort)) {
    auto sorted = backend_->Execute(sort, {*frame});
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    auto eager = backend_->Materialize(*sorted);
    ASSERT_TRUE(eager.ok());
    EXPECT_DOUBLE_EQ((*eager->frame.column("fare"))->DoubleAt(0), 15.0);
  } else {
    EXPECT_EQ(GetParam(), BackendKind::kDask);
  }
}

TEST_P(BackendParamTest, UsecolsPropagatesToRead) {
  OpDesc desc;
  desc.kind = OpKind::kReadCsv;
  desc.path = csv_path_;
  desc.csv_options.usecols = {"fare", "city"};
  auto frame = backend_->Execute(desc, {});
  ASSERT_TRUE(frame.ok());
  auto eager = backend_->Materialize(*frame);
  ASSERT_TRUE(eager.ok());
  EXPECT_EQ(eager->frame.num_columns(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendParamTest,
                         ::testing::Values(BackendKind::kPandas,
                                           BackendKind::kModin,
                                           BackendKind::kDask,
                                           BackendKind::kShard),
                         [](const auto& info) {
                           return BackendKindName(info.param);
                         });

/// Binary map ops over inputs partitioned differently. An LFC scan splits
/// by the file's chunk_rows; a placed frame (a gathered op's result,
/// imported through FromEager) splits by partition_rows. Here both have
/// two partitions, so a partition count is no test of alignment: the
/// per-partition row counts differ (100/100 against 128/72).
class PartitionAlignmentTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "align_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    const std::string csv = dir_ + "/t.csv";
    std::ofstream out(csv);
    out << "id,v\n";
    for (int i = 0; i < 200; ++i) out << i << "," << (i * 37) % 200 << "\n";
    out.close();
    lfc_path_ = dir_ + "/t.lfc";
    io::LfcWriteOptions chunks;
    chunks.chunk_rows = 100;
    MemoryTracker tracker(0);
    ASSERT_TRUE(
        io::ConvertCsvToLfc(csv, lfc_path_, {}, chunks, &tracker).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// df[df.sort_values(["v"]).v > 50], materialized.
  Result<DataFrame> Run(BackendKind backend) {
    std::stringstream output;
    lazy::Session session(lazy::SessionOptions::Builder()
                              .backend(backend)
                              .partition_rows(128)
                              .tracker(&tracker_)
                              .output(&output)
                              .Build());
    LAFP_ASSIGN_OR_RETURN(auto frame,
                          lazy::FatDataFrame::ReadLfc(&session, lfc_path_));
    LAFP_ASSIGN_OR_RETURN(auto sorted, frame.SortValues({"v"}, {true}));
    LAFP_ASSIGN_OR_RETURN(auto v, sorted.Col("v"));
    LAFP_ASSIGN_OR_RETURN(auto mask,
                          v.CompareTo(df::CompareOp::kGt, Scalar::Int(50)));
    LAFP_ASSIGN_OR_RETURN(auto filtered, frame.FilterBy(mask));
    return filtered.ToEager();
  }

  std::string dir_, lfc_path_;
  MemoryTracker tracker_{0};
};

TEST_P(PartitionAlignmentTest, MaskOverDifferentlyChunkedInput) {
  auto reference = Run(BackendKind::kPandas);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->num_rows(), 149u);
  auto out = Run(GetParam());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const bool sort_rows = GetParam() == BackendKind::kDask;
  EXPECT_EQ(out->CanonicalString(sort_rows),
            reference->CanonicalString(sort_rows));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PartitionAlignmentTest,
                         ::testing::Values(BackendKind::kPandas,
                                           BackendKind::kModin,
                                           BackendKind::kDask,
                                           BackendKind::kShard),
                         [](const auto& info) {
                           return BackendKindName(info.param);
                         });

}  // namespace
}  // namespace lafp::exec
