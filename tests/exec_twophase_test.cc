#include "exec/agg_twophase.h"

#include <gtest/gtest.h>

namespace lafp::exec {
namespace {

using df::AggFunc;
using df::AggSpec;
using df::Column;
using df::DataFrame;
using df::Scalar;

class TwoPhaseTest : public ::testing::Test {
 protected:
  DataFrame Part(std::vector<int64_t> keys, std::vector<double> values) {
    auto k = *Column::MakeInt(std::move(keys), {}, &tracker_);
    auto v = *Column::MakeDouble(std::move(values), {}, &tracker_);
    return *DataFrame::Make({"k", "v"}, {k, v});
  }

  MemoryTracker tracker_{0};
};

TEST_F(TwoPhaseTest, GroupBySumAcrossPartitions) {
  GroupByCombiner combiner({"k"}, {{"v", AggFunc::kSum, "s"}});
  ASSERT_TRUE(combiner.supported());
  ASSERT_TRUE(combiner.AddPartition(Part({1, 2, 1}, {1.0, 2.0, 3.0})).ok());
  ASSERT_TRUE(combiner.AddPartition(Part({2, 3}, {4.0, 5.0})).ok());
  auto out = combiner.Finish();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Groups in first-appearance order across partials: 1, 2, 3.
  const DataFrame& frame = out->frame;
  EXPECT_EQ(frame.num_rows(), 3u);
  EXPECT_EQ((*frame.column("k"))->IntAt(0), 1);
  EXPECT_DOUBLE_EQ((*frame.column("s"))->DoubleAt(0), 4.0);
  EXPECT_DOUBLE_EQ((*frame.column("s"))->DoubleAt(1), 6.0);
  EXPECT_DOUBLE_EQ((*frame.column("s"))->DoubleAt(2), 5.0);
}

TEST_F(TwoPhaseTest, GroupByMeanDecomposesIntoSumAndCount) {
  GroupByCombiner combiner({"k"}, {{"v", AggFunc::kMean, "m"}});
  ASSERT_TRUE(combiner.AddPartition(Part({1, 1}, {1.0, 2.0})).ok());
  ASSERT_TRUE(combiner.AddPartition(Part({1}, {6.0})).ok());
  auto out = combiner.Finish();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->frame.num_rows(), 1u);
  // Mean of {1,2,6} = 3, not mean-of-means (1.5+6)/2 = 3.75.
  EXPECT_DOUBLE_EQ((*out->frame.column("m"))->DoubleAt(0), 3.0);
}

TEST_F(TwoPhaseTest, GroupByMinMaxCount) {
  GroupByCombiner combiner({"k"}, {{"v", AggFunc::kMin, "lo"},
                                   {"v", AggFunc::kMax, "hi"},
                                   {"v", AggFunc::kCount, "n"}});
  ASSERT_TRUE(combiner.AddPartition(Part({1, 1}, {5.0, 3.0})).ok());
  ASSERT_TRUE(combiner.AddPartition(Part({1, 1}, {9.0, 1.0})).ok());
  auto out = combiner.Finish();
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out->frame.column("lo"))->DoubleAt(0), 1.0);
  EXPECT_DOUBLE_EQ((*out->frame.column("hi"))->DoubleAt(0), 9.0);
  EXPECT_EQ((*out->frame.column("n"))->IntAt(0), 4);
}

TEST_F(TwoPhaseTest, NuniqueUnsupported) {
  GroupByCombiner combiner({"k"}, {{"v", AggFunc::kNunique, "u"}});
  EXPECT_FALSE(combiner.supported());
  EXPECT_FALSE(combiner.AddPartition(Part({1}, {1.0})).ok());
}

TEST_F(TwoPhaseTest, FinishWithoutPartitionsFails) {
  GroupByCombiner combiner({"k"}, {{"v", AggFunc::kSum, "s"}});
  EXPECT_FALSE(combiner.Finish().ok());
}

DataFrame Series(std::vector<double> values, MemoryTracker* tracker) {
  auto v = *Column::MakeDouble(std::move(values), {}, tracker);
  return *DataFrame::Make({"v"}, {v});
}

TEST_F(TwoPhaseTest, ReduceSumMeanAcrossPartitions) {
  ReduceCombiner sum(AggFunc::kSum);
  ASSERT_TRUE(sum.AddPartition(Series({1.0, 2.0}, &tracker_)).ok());
  ASSERT_TRUE(sum.AddPartition(Series({3.0}, &tracker_)).ok());
  EXPECT_DOUBLE_EQ((*sum.Finish()).scalar.double_value(), 6.0);

  ReduceCombiner mean(AggFunc::kMean);
  ASSERT_TRUE(mean.AddPartition(Series({1.0, 2.0}, &tracker_)).ok());
  ASSERT_TRUE(mean.AddPartition(Series({6.0}, &tracker_)).ok());
  EXPECT_DOUBLE_EQ((*mean.Finish()).scalar.double_value(), 3.0);
}

TEST_F(TwoPhaseTest, ReduceIntSumStaysInt) {
  ReduceCombiner sum(AggFunc::kSum);
  auto ints = *Column::MakeInt({1, 2, 3}, {}, &tracker_);
  auto frame = *DataFrame::Make({"v"}, {ints});
  ASSERT_TRUE(sum.AddPartition(frame).ok());
  Scalar out = sum.Finish()->scalar;
  EXPECT_EQ(out.type(), df::DataType::kInt64);
  EXPECT_EQ(out.int_value(), 6);
}

TEST_F(TwoPhaseTest, ReduceMinMaxAndEmpty) {
  ReduceCombiner mn(AggFunc::kMin);
  ASSERT_TRUE(mn.AddPartition(Series({5.0, 2.0}, &tracker_)).ok());
  ASSERT_TRUE(mn.AddPartition(Series({7.0}, &tracker_)).ok());
  EXPECT_DOUBLE_EQ((*mn.Finish()).scalar.double_value(), 2.0);

  ReduceCombiner empty(AggFunc::kMax);
  EXPECT_TRUE((*empty.Finish()).scalar.is_null());
}

TEST_F(TwoPhaseTest, ReduceNuniqueUnionsPartitions) {
  ReduceCombiner nu(AggFunc::kNunique);
  ASSERT_TRUE(nu.AddPartition(Series({1.0, 2.0, 1.0}, &tracker_)).ok());
  ASSERT_TRUE(nu.AddPartition(Series({2.0, 3.0}, &tracker_)).ok());
  EXPECT_EQ((*nu.Finish()).scalar.int_value(), 3);
}

TEST_F(TwoPhaseTest, ReduceStringMinMax) {
  ReduceCombiner mn(AggFunc::kMin);
  auto s1 = *Column::MakeString({"pear", "apple"}, {}, &tracker_);
  auto s2 = *Column::MakeString({"banana"}, {}, &tracker_);
  ASSERT_TRUE(
      mn.AddPartition(*DataFrame::Make({"v"}, {s1})).ok());
  ASSERT_TRUE(
      mn.AddPartition(*DataFrame::Make({"v"}, {s2})).ok());
  EXPECT_EQ((*mn.Finish()).scalar.string_value(), "apple");
}

TEST_F(TwoPhaseTest, ReduceRejectsMultiColumnPartition) {
  ReduceCombiner sum(AggFunc::kSum);
  EXPECT_FALSE(sum.AddPartition(Part({1}, {1.0})).ok());
}

}  // namespace
}  // namespace lafp::exec
