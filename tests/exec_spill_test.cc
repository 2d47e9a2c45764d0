#include "exec/spill.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "dataframe/ops.h"
#include "exec/partition.h"

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
        **Column::MakeString({"x", "y", "x"}, {}, &tracker_), &tracker_);
    return *DataFrame::Make({"i", "d", "s", "b", "t", "c"},
                            {ints, doubles, strings, bools, ts, cat});
  }

  std::string dir_;
  MemoryTracker tracker_{0};
};

TEST_F(SpillTest, RoundTripsAllTypes) {
  DataFrame frame = AllTypesFrame();
  std::string path = dir_ + "/all.bin";
  ASSERT_TRUE(WriteSpillFile(frame, path).ok());
  auto back = ReadSpillFile(path, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 3u);
  EXPECT_EQ(back->names(), frame.names());
  // Categories come back as plain strings; values must match.
  EXPECT_EQ((*back->column("c"))->type(), DataType::kString);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < frame.num_columns(); ++c) {
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
  std::string path = dir_ + "/empty.bin";
  ASSERT_TRUE(WriteSpillFile(empty, path).ok());
  auto back = ReadSpillFile(path, &tracker_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->num_columns(), 1u);
}

// The exchange wire format must round-trip a zero-row partition that
// still carries a real column table (names + dtypes). Shard workers send
// these routinely — a filter that empties one partition must not lose
// the schema or fail the clamp checks sized for nrows >= 1.
TEST_F(SpillTest, ZeroRowNonEmptyColumnsRoundTripOnWire) {
  df::ColumnBuilder ints(DataType::kInt64, &tracker_);
  df::ColumnBuilder strs(DataType::kString, &tracker_);
  df::ColumnBuilder dbls(DataType::kDouble, &tracker_);
  auto empty = *DataFrame::Make(
      {"i", "s", "d"}, {*ints.Finish(), *strs.Finish(), *dbls.Finish()});
  auto bytes = SerializeFrame(empty);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto back = DeserializeFrame(*bytes, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 0u);
  ASSERT_EQ(back->num_columns(), 3u);
  EXPECT_EQ(back->names(), empty.names());
  EXPECT_EQ((*back->column("i"))->type(), DataType::kInt64);
  EXPECT_EQ((*back->column("s"))->type(), DataType::kString);
  EXPECT_EQ((*back->column("d"))->type(), DataType::kDouble);
}

// Message-framed payloads carry an exact length: trailing bytes after
// the frame mean protocol desync and must fail, not be ignored.
TEST_F(SpillTest, WirePayloadRejectsTrailingJunk) {
  DataFrame frame = AllTypesFrame();
  auto bytes = SerializeFrame(frame);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(DeserializeFrame(*bytes, &tracker_).ok());
  EXPECT_FALSE(DeserializeFrame(*bytes + "x", &tracker_).ok());
}

// Rows claimed with no columns to hold them are unrepresentable; the
// header clamp must reject the combination (ncols == 0 && nrows > 0)
// while keeping the legitimate zero-row / zero-column cases working.
TEST_F(SpillTest, RejectsRowsWithoutColumns) {
  auto bytes = SerializeFrame(DataFrame());
  ASSERT_TRUE(bytes.ok());
  // Patch nrows (u64 at offset 12, after u64 magic + u32 ncols) to 5.
  std::string forged = *bytes;
  ASSERT_GE(forged.size(), 20u);
  forged[12] = 5;
  auto back = DeserializeFrame(forged, &tracker_);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("no columns"), std::string::npos)
      << back.status().ToString();
}

TEST_F(SpillTest, RejectsGarbageAndTruncation) {
  std::string path = dir_ + "/garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a spill file at all";
  }
  EXPECT_FALSE(ReadSpillFile(path, &tracker_).ok());

  // Truncate a valid file mid-payload.
  DataFrame frame = AllTypesFrame();
  std::string full = dir_ + "/full.bin";
  ASSERT_TRUE(WriteSpillFile(frame, full).ok());
  auto size = std::filesystem::file_size(full);
  std::filesystem::resize_file(full, size / 2);
  EXPECT_FALSE(ReadSpillFile(full, &tracker_).ok());

  EXPECT_FALSE(ReadSpillFile(dir_ + "/missing.bin", &tracker_).ok());
}

TEST_F(SpillTest, ReloadChargesTracker) {
  DataFrame frame = AllTypesFrame();
  std::string path = dir_ + "/charge.bin";
  ASSERT_TRUE(WriteSpillFile(frame, path).ok());
  MemoryTracker fresh(0);
  auto back = ReadSpillFile(path, &fresh);
  ASSERT_TRUE(back.ok());
  EXPECT_GT(fresh.current(), 0);
  MemoryTracker tiny(8);
  EXPECT_TRUE(ReadSpillFile(path, &tiny).status().IsOutOfMemory());
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
