#include <gtest/gtest.h>

#include <cmath>

#include "dataframe/ops.h"

namespace lafp::df {
namespace {

class JoinSortTest : public ::testing::Test {
 protected:
  MemoryTracker tracker_{0};
};

TEST_F(JoinSortTest, InnerJoinMatchesKeys) {
  auto trips = *DataFrame::Make(
      {"city_id", "fare"},
      {*Column::MakeInt({1, 2, 1, 3}, {}, &tracker_),
       *Column::MakeDouble({10.0, 20.0, 30.0, 40.0}, {}, &tracker_)});
  auto cities = *DataFrame::Make(
      {"city_id", "name"},
      {*Column::MakeInt({1, 2}, {}, &tracker_),
       *Column::MakeString({"NY", "SF"}, {}, &tracker_)});
  auto joined = Merge(trips, cities, {"city_id"}, JoinType::kInner);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 3u);  // city 3 dropped
  EXPECT_EQ(joined->names(),
            (std::vector<std::string>{"city_id", "fare", "name"}));
  EXPECT_EQ((*joined->column("name"))->StringAt(0), "NY");
  EXPECT_EQ((*joined->column("name"))->StringAt(1), "SF");
  EXPECT_EQ((*joined->column("name"))->StringAt(2), "NY");
}

TEST_F(JoinSortTest, LeftJoinKeepsUnmatchedWithNulls) {
  auto left = *DataFrame::Make(
      {"k", "v"},
      {*Column::MakeInt({1, 9}, {}, &tracker_),
       *Column::MakeInt({100, 900}, {}, &tracker_)});
  auto right = *DataFrame::Make(
      {"k", "w"},
      {*Column::MakeInt({1}, {}, &tracker_),
       *Column::MakeString({"one"}, {}, &tracker_)});
  auto joined = Merge(left, right, {"k"}, JoinType::kLeft);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2u);
  EXPECT_EQ((*joined->column("w"))->StringAt(0), "one");
  EXPECT_FALSE((*joined->column("w"))->IsValid(1));
}

TEST_F(JoinSortTest, OneToManyFansOut) {
  auto left = *DataFrame::Make(
      {"k"}, {*Column::MakeInt({5}, {}, &tracker_)});
  auto right = *DataFrame::Make(
      {"k", "tag"},
      {*Column::MakeInt({5, 5, 5}, {}, &tracker_),
       *Column::MakeString({"a", "b", "c"}, {}, &tracker_)});
  auto joined = Merge(left, right, {"k"}, JoinType::kInner);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 3u);
}

TEST_F(JoinSortTest, OverlappingColumnsGetSuffixes) {
  auto left = *DataFrame::Make(
      {"k", "v"},
      {*Column::MakeInt({1}, {}, &tracker_),
       *Column::MakeInt({10}, {}, &tracker_)});
  auto right = *DataFrame::Make(
      {"k", "v"},
      {*Column::MakeInt({1}, {}, &tracker_),
       *Column::MakeInt({99}, {}, &tracker_)});
  auto joined = Merge(left, right, {"k"}, JoinType::kInner);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->names(),
            (std::vector<std::string>{"k", "v_x", "v_y"}));
  EXPECT_EQ((*joined->column("v_x"))->IntAt(0), 10);
  EXPECT_EQ((*joined->column("v_y"))->IntAt(0), 99);
}

TEST_F(JoinSortTest, MultiKeyJoin) {
  auto left = *DataFrame::Make(
      {"a", "b", "v"},
      {*Column::MakeInt({1, 1, 2}, {}, &tracker_),
       *Column::MakeString({"x", "y", "x"}, {}, &tracker_),
       *Column::MakeInt({10, 20, 30}, {}, &tracker_)});
  auto right = *DataFrame::Make(
      {"a", "b", "w"},
      {*Column::MakeInt({1, 2}, {}, &tracker_),
       *Column::MakeString({"y", "x"}, {}, &tracker_),
       *Column::MakeInt({7, 8}, {}, &tracker_)});
  auto joined = Merge(left, right, {"a", "b"}, JoinType::kInner);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2u);
  EXPECT_EQ((*joined->column("v"))->IntAt(0), 20);
  EXPECT_EQ((*joined->column("w"))->IntAt(0), 7);
}

// int64 against float64 keys compare by value, as pandas' merge does.
// Comparing raw bits matched 0 == 0.0 only.
TEST_F(JoinSortTest, IntKeysMatchDoubleKeysByValue) {
  auto li = *Column::MakeInt({0, 1, 2}, {}, &tracker_);
  auto lv = *Column::MakeString({"a", "b", "c"}, {}, &tracker_);
  auto rd = *Column::MakeDouble({2.0, 1.0, 0.0, 0.5}, {}, &tracker_);
  auto rv = *Column::MakeInt({20, 10, 0, 5}, {}, &tracker_);
  auto left = *DataFrame::Make({"k", "l"}, {li, lv});
  auto right = *DataFrame::Make({"k", "r"}, {rd, rv});
  auto out = Merge(left, right, {"k"}, JoinType::kInner);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
  EXPECT_EQ((*out->column("k"))->type(), DataType::kInt64);
  EXPECT_EQ((*out->column("r"))->IntAt(1), 10);
  auto flipped = Merge(right, left, {"k"}, JoinType::kInner);
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(flipped->num_rows(), 3u);
}

TEST_F(JoinSortTest, CompositeKeysDoNotCollideThroughSeparator) {
  auto la = *Column::MakeString({"a\x1f"}, {}, &tracker_);
  auto lb = *Column::MakeString({"b"}, {}, &tracker_);
  auto ra = *Column::MakeString({"a"}, {}, &tracker_);
  auto rb = *Column::MakeString({"\x1f" "b"}, {}, &tracker_);
  auto left = *DataFrame::Make({"a", "b"}, {la, lb});
  auto right = *DataFrame::Make({"a", "b"}, {ra, rb});
  auto out = Merge(left, right, {"a", "b"}, JoinType::kInner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
}

// Nulls match nulls; a bool key matches only a bool key.
TEST_F(JoinSortTest, NullsMatchAndBoolsStayApart) {
  auto lk = *Column::MakeInt({1, 0}, {1, 0}, &tracker_);
  auto rk = *Column::MakeDouble({0.0, 1.0}, {0, 1}, &tracker_);
  auto left = *DataFrame::Make({"k"}, {lk});
  auto right = *DataFrame::Make({"k"}, {rk});
  auto out = Merge(left, right, {"k"}, JoinType::kInner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  auto lb = *Column::MakeBool({1}, {}, &tracker_);
  auto ri = *Column::MakeInt({1}, {}, &tracker_);
  auto bools = Merge(*DataFrame::Make({"k"}, {lb}),
                     *DataFrame::Make({"k"}, {ri}), {"k"}, JoinType::kInner);
  ASSERT_TRUE(bools.ok());
  EXPECT_EQ(bools->num_rows(), 0u);
}

TEST_F(JoinSortTest, MergeRequiresKeys) {
  DataFrame empty;
  EXPECT_FALSE(Merge(empty, empty, {}, JoinType::kInner).ok());
}

TEST_F(JoinSortTest, SortSingleKeyAscending) {
  auto frame = *DataFrame::Make(
      {"v", "tag"},
      {*Column::MakeInt({3, 1, 2}, {}, &tracker_),
       *Column::MakeString({"c", "a", "b"}, {}, &tracker_)});
  auto sorted = SortValues(frame, {"v"}, {true});
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ((*sorted->column("v"))->IntAt(0), 1);
  EXPECT_EQ((*sorted->column("v"))->IntAt(2), 3);
  EXPECT_EQ((*sorted->column("tag"))->StringAt(0), "a");
}

TEST_F(JoinSortTest, SortDescendingAndMultiKey) {
  auto frame = *DataFrame::Make(
      {"g", "v"},
      {*Column::MakeString({"b", "a", "b", "a"}, {}, &tracker_),
       *Column::MakeInt({1, 2, 3, 4}, {}, &tracker_)});
  auto sorted = SortValues(frame, {"g", "v"}, {true, false});
  ASSERT_TRUE(sorted.ok());
  // a:4, a:2, b:3, b:1
  EXPECT_EQ((*sorted->column("g"))->StringAt(0), "a");
  EXPECT_EQ((*sorted->column("v"))->IntAt(0), 4);
  EXPECT_EQ((*sorted->column("v"))->IntAt(1), 2);
  EXPECT_EQ((*sorted->column("v"))->IntAt(2), 3);
  EXPECT_EQ((*sorted->column("v"))->IntAt(3), 1);
}

TEST_F(JoinSortTest, SortIsStable) {
  auto frame = *DataFrame::Make(
      {"k", "order"},
      {*Column::MakeInt({1, 1, 1}, {}, &tracker_),
       *Column::MakeInt({0, 1, 2}, {}, &tracker_)});
  auto sorted = SortValues(frame, {"k"}, {true});
  ASSERT_TRUE(sorted.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*sorted->column("order"))->IntAt(i), i);
  }
}

TEST_F(JoinSortTest, SortNullsLast) {
  auto frame = *DataFrame::Make(
      {"v"}, {*Column::MakeInt({2, 0, 1}, {1, 0, 1}, &tracker_)});
  auto asc = SortValues(frame, {"v"}, {true});
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ((*asc->column("v"))->IntAt(0), 1);
  EXPECT_FALSE((*asc->column("v"))->IsValid(2));
  auto desc = SortValues(frame, {"v"}, {false});
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ((*desc->column("v"))->IntAt(0), 2);
  EXPECT_FALSE((*desc->column("v"))->IsValid(2));  // still last
}

TEST_F(JoinSortTest, SortNaNAfterNumbers) {
  auto frame = *DataFrame::Make(
      {"v"},
      {*Column::MakeDouble({2.0, std::nan(""), 1.0}, {}, &tracker_)});
  auto sorted = SortValues(frame, {"v"}, {true});
  ASSERT_TRUE(sorted.ok());
  EXPECT_DOUBLE_EQ((*sorted->column("v"))->DoubleAt(0), 1.0);
  EXPECT_TRUE(std::isnan((*sorted->column("v"))->DoubleAt(2)));
}

TEST_F(JoinSortTest, SortBroadcastsSingleAscendingFlag) {
  auto frame = *DataFrame::Make(
      {"a", "b"},
      {*Column::MakeInt({1, 1, 0}, {}, &tracker_),
       *Column::MakeInt({5, 3, 9}, {}, &tracker_)});
  auto sorted = SortValues(frame, {"a", "b"}, {false});
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ((*sorted->column("a"))->IntAt(0), 1);
  EXPECT_EQ((*sorted->column("b"))->IntAt(0), 5);
}

TEST_F(JoinSortTest, ConcatStacksFrames) {
  auto a = *DataFrame::Make(
      {"x", "s"},
      {*Column::MakeInt({1}, {}, &tracker_),
       *Column::MakeString({"a"}, {}, &tracker_)});
  auto b = *DataFrame::Make(
      {"x", "s"},
      {*Column::MakeInt({2, 3}, {}, &tracker_),
       *Column::MakeString({"b", "c"}, {}, &tracker_)});
  auto cat = Concat({a, b});
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ(cat->num_rows(), 3u);
  EXPECT_EQ((*cat->column("x"))->IntAt(2), 3);
  EXPECT_EQ((*cat->column("s"))->StringAt(1), "b");
}

TEST_F(JoinSortTest, ConcatWidensIntToDouble) {
  auto a = *DataFrame::Make({"x"},
                            {*Column::MakeInt({1}, {}, &tracker_)});
  auto b = *DataFrame::Make(
      {"x"}, {*Column::MakeDouble({2.5}, {}, &tracker_)});
  auto cat = Concat({a, b});
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ((*cat->column("x"))->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ((*cat->column("x"))->DoubleAt(0), 1.0);
}

TEST_F(JoinSortTest, ConcatRejectsSchemaMismatch) {
  auto a = *DataFrame::Make({"x"},
                            {*Column::MakeInt({1}, {}, &tracker_)});
  auto b = *DataFrame::Make({"y"},
                            {*Column::MakeInt({2}, {}, &tracker_)});
  EXPECT_FALSE(Concat({a, b}).ok());
  auto c = *DataFrame::Make(
      {"x"}, {*Column::MakeString({"s"}, {}, &tracker_)});
  EXPECT_FALSE(Concat({a, c}).ok());
}

TEST_F(JoinSortTest, ConcatEmptyListYieldsEmptyFrame) {
  auto cat = Concat({});
  ASSERT_TRUE(cat.ok());
  EXPECT_EQ(cat->num_rows(), 0u);
}

}  // namespace
}  // namespace lafp::df
