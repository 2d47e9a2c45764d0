// Partition spill (the §5.4 disk-persist extension): a spilled partition
// is an LFC file (io/columnar.h), so every dtype reloads exactly —
// categories keep their dictionaries — and a reload re-charges the
// tracker. The codec's hostile-input sweeps live in io_columnar_test.
#include "exec/partition.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/macros.h"
#include "dataframe/ops.h"

namespace lafp::exec {
namespace {

using df::Column;
using df::DataFrame;
using df::DataType;

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "spill_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  DataFrame AllTypesFrame() {
    auto ints = *Column::MakeInt({1, 2, 3}, {1, 0, 1}, &tracker_);
    auto doubles = *Column::MakeDouble({1.5, 2.5, -0.25}, {}, &tracker_);
    auto strings =
        *Column::MakeString({"alpha", "", "gamma"}, {1, 1, 1}, &tracker_);
    auto bools = *Column::MakeBool({1, 0, 1}, {}, &tracker_);
    auto ts = *Column::MakeTimestamp(
        {*df::ParseTimestamp("2024-01-01"), 0,
         *df::ParseTimestamp("1969-12-31 23:00:00")},
        {1, 0, 1}, &tracker_);
    auto cat = *df::CategorizeStrings(
        **Column::MakeString({"y", "x", "y"}, {}, &tracker_), &tracker_);
    return *DataFrame::Make({"i", "d", "s", "b", "t", "c"},
                            {ints, doubles, strings, bools, ts, cat});
  }

  /// Spill `frame` as partition `name` and load it back.
  Result<DataFrame> RoundTrip(DataFrame frame, const std::string& name) {
    Partition partition(std::move(frame));
    LAFP_RETURN_NOT_OK(partition.SpillTo(dir_, name));
    return partition.Load(&tracker_);
  }

  std::string dir_;
  MemoryTracker tracker_{0};
};

TEST_F(SpillTest, RoundTripsAllTypes) {
  DataFrame frame = AllTypesFrame();
  auto back = RoundTrip(frame, "all");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 3u);
  EXPECT_EQ(back->names(), frame.names());
  // Categories come back as categories, dictionary order included.
  const Column& cat = **back->column("c");
  ASSERT_EQ(cat.type(), DataType::kCategory);
  EXPECT_EQ(*cat.dictionary(), (df::Dictionary{"y", "x"}));
  for (size_t c = 0; c < frame.num_columns(); ++c) {
    EXPECT_EQ(back->column(c)->type(), frame.column(c)->type());
    for (size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(back->column(c)->ValueString(r),
                frame.column(c)->ValueString(r))
          << "col " << frame.names()[c] << " row " << r;
      EXPECT_EQ(back->column(c)->IsValid(r), frame.column(c)->IsValid(r));
    }
  }
}

TEST_F(SpillTest, EmptyFrameRoundTrips) {
  df::ColumnBuilder b(DataType::kInt64, &tracker_);
  auto empty = *DataFrame::Make({"v"}, {*b.Finish()});
  auto back = RoundTrip(empty, "empty");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->num_columns(), 1u);
}

TEST_F(SpillTest, ReloadChargesTracker) {
  Partition partition(AllTypesFrame());
  ASSERT_TRUE(partition.SpillTo(dir_, "charge").ok());
  MemoryTracker fresh(0);
  auto back = partition.Load(&fresh);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(fresh.current(), 0);
  MemoryTracker tiny(8);
  EXPECT_TRUE(partition.Load(&tiny).status().IsOutOfMemory());
}

TEST_F(SpillTest, PartitionSpillReleasesMemory) {
  MemoryTracker tracker(0);
  auto big = *Column::MakeInt(std::vector<int64_t>(10000, 7), {}, &tracker);
  auto frame = *DataFrame::Make({"v"}, {big});
  big.reset();
  Partition partition(std::move(frame));
  int64_t before = tracker.current();
  EXPECT_GT(before, 0);
  ASSERT_TRUE(partition.SpillTo(dir_, "p0").ok());
  EXPECT_LT(tracker.current(), before / 10);  // memory released
  EXPECT_TRUE(partition.spilled());
  EXPECT_EQ(partition.num_rows(), 10000u);
  auto reloaded = partition.Load(&tracker);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->num_rows(), 10000u);
  EXPECT_EQ((*reloaded->column("v"))->IntAt(9999), 7);
}

}  // namespace
}  // namespace lafp::exec
