#include <gtest/gtest.h>

#include <cmath>

#include "dataframe/ops.h"

namespace lafp::df {
namespace {

class GroupByTest : public ::testing::Test {
 protected:
  DataFrame MakeTrips() {
    auto day = *Column::MakeInt({0, 1, 0, 1, 2, 0}, {}, &tracker_);
    auto pax = *Column::MakeInt({1, 2, 3, 4, 5, 6}, {}, &tracker_);
    auto fare = *Column::MakeDouble({10.0, 20.0, 30.0, 40.0, 50.0, 60.0},
                                    {}, &tracker_);
    auto city = *Column::MakeString({"NY", "SF", "NY", "NY", "SF", "LA"}, {},
                                    &tracker_);
    return *DataFrame::Make({"day", "pax", "fare", "city"},
                            {day, pax, fare, city});
  }

  MemoryTracker tracker_{0};
};

TEST_F(GroupByTest, SumByKey) {
  auto out = GroupByAgg(MakeTrips(), {"day"},
                        {{"pax", AggFunc::kSum, "pax_sum"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);  // days 0,1,2 in first-appearance order
  EXPECT_EQ(out->names(), (std::vector<std::string>{"day", "pax_sum"}));
  EXPECT_EQ((*out->column("day"))->IntAt(0), 0);
  EXPECT_EQ((*out->column("pax_sum"))->IntAt(0), 1 + 3 + 6);
  EXPECT_EQ((*out->column("pax_sum"))->IntAt(1), 2 + 4);
  EXPECT_EQ((*out->column("pax_sum"))->IntAt(2), 5);
}

TEST_F(GroupByTest, MultipleAggsAndKeys) {
  auto out = GroupByAgg(MakeTrips(), {"day", "city"},
                        {{"fare", AggFunc::kMean, "avg_fare"},
                         {"pax", AggFunc::kCount, "trips"}});
  ASSERT_TRUE(out.ok());
  // Groups: (0,NY), (1,SF), (1,NY), (2,SF), (0,LA).
  EXPECT_EQ(out->num_rows(), 5u);
  EXPECT_EQ((*out->column("avg_fare"))->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ((*out->column("avg_fare"))->DoubleAt(0), 20.0);
  EXPECT_EQ((*out->column("trips"))->IntAt(0), 2);
}

TEST_F(GroupByTest, MinMaxPreserveType) {
  auto out = GroupByAgg(MakeTrips(), {"city"},
                        {{"pax", AggFunc::kMin, "min_pax"},
                         {"fare", AggFunc::kMax, "max_fare"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out->column("min_pax"))->type(), DataType::kInt64);
  EXPECT_EQ((*out->column("max_fare"))->type(), DataType::kDouble);
  // NY rows: pax {1,3,4}, fares {10,30,40}.
  EXPECT_EQ((*out->column("min_pax"))->IntAt(0), 1);
  EXPECT_DOUBLE_EQ((*out->column("max_fare"))->DoubleAt(0), 40.0);
}

TEST_F(GroupByTest, NuniqueCountsDistinct) {
  auto out = GroupByAgg(MakeTrips(), {"city"},
                        {{"day", AggFunc::kNunique, "days"}});
  ASSERT_TRUE(out.ok());
  // NY days {0,1}; SF days {1,2}; LA days {0}.
  EXPECT_EQ((*out->column("days"))->IntAt(0), 2);
  EXPECT_EQ((*out->column("days"))->IntAt(1), 2);
  EXPECT_EQ((*out->column("days"))->IntAt(2), 1);
}

TEST_F(GroupByTest, NullKeysFormOwnGroup) {
  auto key = *Column::MakeInt({1, 1, 2}, {1, 0, 1}, &tracker_);
  auto val = *Column::MakeInt({10, 20, 30}, {}, &tracker_);
  auto frame = *DataFrame::Make({"k", "v"}, {key, val});
  auto out = GroupByAgg(frame, {"k"}, {{"v", AggFunc::kSum, "s"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);  // 1, null, 2
}

TEST_F(GroupByTest, NullValuesSkippedInAggregates) {
  auto key = *Column::MakeInt({1, 1, 1}, {}, &tracker_);
  auto val = *Column::MakeDouble({10.0, 0.0, 30.0}, {1, 0, 1}, &tracker_);
  auto frame = *DataFrame::Make({"k", "v"}, {key, val});
  auto out = GroupByAgg(
      frame, {"k"},
      {{"v", AggFunc::kSum, "s"}, {"v", AggFunc::kCount, "c"},
       {"v", AggFunc::kMean, "m"}});
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out->column("s"))->DoubleAt(0), 40.0);
  EXPECT_EQ((*out->column("c"))->IntAt(0), 2);
  EXPECT_DOUBLE_EQ((*out->column("m"))->DoubleAt(0), 20.0);
}

TEST_F(GroupByTest, RequiresKeys) {
  EXPECT_FALSE(
      GroupByAgg(MakeTrips(), {}, {{"pax", AggFunc::kSum, "s"}}).ok());
  EXPECT_FALSE(
      GroupByAgg(MakeTrips(), {"ghost"}, {{"pax", AggFunc::kSum, "s"}})
          .ok());
}

TEST_F(GroupByTest, StringMinMax) {
  auto out = GroupByAgg(MakeTrips(), {"day"},
                        {{"city", AggFunc::kMin, "first_city"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out->column("first_city"))->type(), DataType::kString);
  EXPECT_EQ((*out->column("first_city"))->StringAt(0), "LA");  // day 0
}

TEST_F(GroupByTest, ReduceScalars) {
  auto fares = *Column::MakeDouble({1.0, 2.0, 3.0}, {}, &tracker_);
  EXPECT_DOUBLE_EQ((*Reduce(*fares, AggFunc::kSum)).double_value(), 6.0);
  EXPECT_DOUBLE_EQ((*Reduce(*fares, AggFunc::kMean)).double_value(), 2.0);
  EXPECT_EQ((*Reduce(*fares, AggFunc::kCount)).int_value(), 3);
  EXPECT_DOUBLE_EQ((*Reduce(*fares, AggFunc::kMin)).double_value(), 1.0);
  EXPECT_DOUBLE_EQ((*Reduce(*fares, AggFunc::kMax)).double_value(), 3.0);

  auto ints = *Column::MakeInt({4, 5}, {}, &tracker_);
  Scalar s = *Reduce(*ints, AggFunc::kSum);
  EXPECT_EQ(s.type(), DataType::kInt64);
  EXPECT_EQ(s.int_value(), 9);
}

TEST_F(GroupByTest, ReduceEdgeCases) {
  auto empty = *Column::MakeDouble({}, {}, &tracker_);
  EXPECT_TRUE((*Reduce(*empty, AggFunc::kMean)).is_null());
  EXPECT_DOUBLE_EQ((*Reduce(*empty, AggFunc::kSum)).double_value(), 0.0);
  EXPECT_TRUE((*Reduce(*empty, AggFunc::kMin)).is_null());

  auto strs = *Column::MakeString({"b", "a"}, {}, &tracker_);
  EXPECT_FALSE(Reduce(*strs, AggFunc::kMean).ok());
  EXPECT_EQ((*Reduce(*strs, AggFunc::kMin)).string_value(), "a");
  EXPECT_EQ((*Reduce(*strs, AggFunc::kNunique)).int_value(), 2);

  auto with_nan =
      *Column::MakeDouble({1.0, std::nan(""), 3.0}, {}, &tracker_);
  EXPECT_DOUBLE_EQ((*Reduce(*with_nan, AggFunc::kMean)).double_value(), 2.0);
}

TEST_F(GroupByTest, DropDuplicatesSubsetAndAll) {
  auto frame = MakeTrips();
  auto by_city = DropDuplicates(frame, {"city"});
  ASSERT_TRUE(by_city.ok());
  EXPECT_EQ(by_city->num_rows(), 3u);  // NY, SF, LA first occurrences
  EXPECT_EQ((*by_city->column("pax"))->IntAt(0), 1);

  auto all_cols = DropDuplicates(frame, {});
  ASSERT_TRUE(all_cols.ok());
  EXPECT_EQ(all_cols->num_rows(), 6u);  // all rows distinct
  EXPECT_FALSE(DropDuplicates(frame, {"ghost"}).ok());
}

TEST_F(GroupByTest, UniquePreservesFirstAppearance) {
  auto col = *Column::MakeString({"b", "a", "b", "c"}, {}, &tracker_);
  auto u = Unique(*col);
  ASSERT_TRUE(u.ok());
  ASSERT_EQ((*u)->size(), 3u);
  EXPECT_EQ((*u)->StringAt(0), "b");
  EXPECT_EQ((*u)->StringAt(1), "a");
  EXPECT_EQ((*u)->StringAt(2), "c");
}

TEST_F(GroupByTest, ValueCountsSortedDescending) {
  auto col = *Column::MakeString({"a", "b", "a", "c", "a", "b"}, {},
                                 &tracker_);
  auto vc = ValueCounts(*col, "val");
  ASSERT_TRUE(vc.ok());
  EXPECT_EQ(vc->names(), (std::vector<std::string>{"val", "count"}));
  EXPECT_EQ((*vc->column("val"))->StringAt(0), "a");
  EXPECT_EQ((*vc->column("count"))->IntAt(0), 3);
  EXPECT_EQ((*vc->column("count"))->IntAt(1), 2);
  EXPECT_EQ((*vc->column("count"))->IntAt(2), 1);
}

TEST_F(GroupByTest, ValueCountsDropsNulls) {
  auto col = *Column::MakeInt({1, 1, 2}, {1, 0, 1}, &tracker_);
  auto vc = ValueCounts(*col, "v");
  ASSERT_TRUE(vc.ok());
  EXPECT_EQ(vc->num_rows(), 2u);
}

// Hash keys are typed tuples, not separator-joined byte strings: these
// rows used to collide as "a\x1f" "b" == "a" "\x1fb".
TEST_F(GroupByTest, CompositeKeysDoNotCollideThroughSeparator) {
  auto a = *Column::MakeString({"a\x1f", "a"}, {}, &tracker_);
  auto b = *Column::MakeString({"b", "\x1f" "b"}, {}, &tracker_);
  auto frame = *DataFrame::Make({"a", "b"}, {a, b});
  auto out = GroupByAgg(frame, {"a", "b"}, {{"a", AggFunc::kCount, "n"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  auto dedup = DropDuplicates(frame, {"a", "b"});
  ASSERT_TRUE(dedup.ok());
  EXPECT_EQ(dedup->num_rows(), 2u);
}

// A null key cell is its own value, never equal to any string: these rows
// used to collide as the null marker "\x02N\x03" followed by "\x1fb".
TEST_F(GroupByTest, NullKeyCellDiffersFromEveryString) {
  auto a = *Column::MakeString({"", "\x02N\x03"}, {0, 1}, &tracker_);
  auto b = *Column::MakeString({"\x1f" "b", "b"}, {}, &tracker_);
  auto frame = *DataFrame::Make({"a", "b"}, {a, b});
  auto out = GroupByAgg(frame, {"a", "b"}, {{"b", AggFunc::kCount, "n"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  EXPECT_EQ((*Unique(*a))->size(), 2u);
}

// pandas' khash rule: double keys compare by value, so -0.0 == 0.0 and
// every NaN (whatever its payload) is one key.
TEST_F(GroupByTest, SignedZerosAndNaNsAreOneKey) {
  auto col = *Column::MakeDouble({0.0, -0.0, 1.0}, {}, &tracker_);
  auto vc = ValueCounts(*col, "v");
  ASSERT_TRUE(vc.ok());
  ASSERT_EQ(vc->num_rows(), 2u);
  EXPECT_EQ((*vc->column("count"))->IntAt(0), 2);
  EXPECT_EQ((*Reduce(*col, AggFunc::kNunique)).int_value(), 2);

  const double nan_a = std::nan("");
  const double nan_b = std::nan("7");
  auto nans = *Column::MakeDouble({nan_a, -nan_b, 0.0, -0.0}, {}, &tracker_);
  auto frame = *DataFrame::Make({"k"}, {nans});
  auto out = GroupByAgg(frame, {"k"}, {{"k", AggFunc::kCount, "n"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  auto dedup = DropDuplicates(frame, {});
  ASSERT_TRUE(dedup.ok());
  EXPECT_EQ(dedup->num_rows(), 2u);
}

// min/max of a bool column keep the bool dtype (this used to abort on an
// int append into the bool output column).
TEST_F(GroupByTest, BoolMinMaxStaysBool) {
  auto k = *Column::MakeInt({1, 1, 2}, {}, &tracker_);
  auto b = *Column::MakeBool({1, 0, 1}, {}, &tracker_);
  auto frame = *DataFrame::Make({"k", "b"}, {k, b});
  auto out = GroupByAgg(frame, {"k"}, {{"b", AggFunc::kMin, "lo"},
                                       {"b", AggFunc::kMax, "hi"}});
  ASSERT_TRUE(out.ok());
  const Column& lo = **out->column("lo");
  ASSERT_EQ(lo.type(), DataType::kBool);
  EXPECT_FALSE(lo.BoolAt(0));
  EXPECT_TRUE(lo.BoolAt(1));
  EXPECT_TRUE((*out->column("hi"))->BoolAt(0));
}

TEST_F(GroupByTest, DescribeSummarizesNumericColumns) {
  auto d = Describe(MakeTrips());
  ASSERT_TRUE(d.ok());
  // stat + day + pax + fare (city excluded: not numeric).
  EXPECT_EQ(d->num_columns(), 4u);
  EXPECT_EQ(d->num_rows(), 5u);
  EXPECT_EQ((*d->column("stat"))->StringAt(0), "count");
  EXPECT_DOUBLE_EQ((*d->column("fare"))->DoubleAt(0), 6.0);   // count
  EXPECT_DOUBLE_EQ((*d->column("fare"))->DoubleAt(1), 35.0);  // mean
  EXPECT_DOUBLE_EQ((*d->column("fare"))->DoubleAt(3), 10.0);  // min
  EXPECT_DOUBLE_EQ((*d->column("fare"))->DoubleAt(4), 60.0);  // max
}

}  // namespace
}  // namespace lafp::df
