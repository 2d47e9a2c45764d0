#include "meta/metadata.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "io/csv.h"

namespace lafp::meta {
namespace {

class MetaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "meta_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/data.csv";
    std::ofstream out(csv_path_);
    out << "id,fare,city,when\n";
    for (int i = 0; i < 100; ++i) {
      out << i << "," << (i * 0.5) << ","
          << (i % 3 == 0 ? "NY" : (i % 3 == 1 ? "SF" : "LA"))
          << ",2024-01-0" << (i % 9 + 1) << " 08:00:00\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string csv_path_;
};

TEST_F(MetaTest, RowWidthsCountQuotedNewlinesInTheirRow) {
  // 40 rows of exactly 12 bytes, four of them spanning two lines.
  std::ofstream out(csv_path_);
  out << "id,note\n";
  for (int i = 10; i < 50; ++i) {
    out << i << (i % 10 == 0 ? ",\"ab\ncde\"\n" : ",abcdefgh\n");
  }
  out.close();
  ComputeOptions options;
  options.sample_rows = 20;
  auto md = ComputeFileMetadata(csv_path_, options);
  ASSERT_TRUE(md.ok()) << md.status().ToString();
  EXPECT_EQ(md->sample_rows, 20);
  EXPECT_DOUBLE_EQ(md->avg_row_bytes, 12.0);
  EXPECT_EQ(md->approx_rows, 40);
}

TEST_F(MetaTest, ComputeBasicStats) {
  auto md = ComputeFileMetadata(csv_path_);
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->sample_rows, 100);
  EXPECT_NEAR(md->approx_rows, 100, 10);  // estimated from byte widths
  ASSERT_EQ(md->columns.size(), 4u);
  const ColumnMeta* id = md->FindColumn("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->type, df::DataType::kInt64);
  EXPECT_EQ(id->sample_distinct, 100);
  EXPECT_EQ(id->min_value, "0");
  EXPECT_EQ(id->max_value, "99");
  const ColumnMeta* city = md->FindColumn("city");
  ASSERT_NE(city, nullptr);
  EXPECT_EQ(city->type, df::DataType::kString);
  EXPECT_EQ(city->sample_distinct, 3);
  const ColumnMeta* when = md->FindColumn("when");
  ASSERT_NE(when, nullptr);
  EXPECT_EQ(when->type, df::DataType::kTimestamp);
}

TEST_F(MetaTest, NumericRangeUsesNumericOrder) {
  // Lexicographic order would claim max(id)="99" > "100"; numeric must win.
  std::string p = dir_ + "/range.csv";
  std::ofstream out(p);
  out << "v\n9\n100\n25\n";
  out.close();
  auto md = ComputeFileMetadata(p);
  ASSERT_TRUE(md.ok());
  EXPECT_EQ(md->FindColumn("v")->min_value, "9");
  EXPECT_EQ(md->FindColumn("v")->max_value, "100");
}

TEST_F(MetaTest, SerializeDeserializeRoundTrip) {
  auto md = ComputeFileMetadata(csv_path_);
  ASSERT_TRUE(md.ok());
  auto back = FileMetadata::Deserialize(md->Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->path, md->path);
  EXPECT_EQ(back->modified_time, md->modified_time);
  EXPECT_EQ(back->approx_rows, md->approx_rows);
  ASSERT_EQ(back->columns.size(), md->columns.size());
  for (size_t i = 0; i < md->columns.size(); ++i) {
    EXPECT_EQ(back->columns[i].name, md->columns[i].name);
    EXPECT_EQ(back->columns[i].type, md->columns[i].type);
    EXPECT_EQ(back->columns[i].sample_distinct,
              md->columns[i].sample_distinct);
  }
}

TEST_F(MetaTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(FileMetadata::Deserialize("not key value").ok());
  EXPECT_FALSE(FileMetadata::Deserialize("path=x\n").ok());  // missing keys
}

TEST_F(MetaTest, CategoryCandidatesLowCardinalityStringsOnly) {
  auto md = ComputeFileMetadata(csv_path_);
  ASSERT_TRUE(md.ok());
  auto candidates = md->CategoryCandidates(10);
  EXPECT_EQ(candidates, std::vector<std::string>{"city"});
  // id has 100 distinct ints; city is the only low-card string.
  EXPECT_TRUE(md->CategoryCandidates(2).empty());
}

TEST_F(MetaTest, DtypeHintsRespectReadOnlySafety) {
  auto md = ComputeFileMetadata(csv_path_);
  ASSERT_TRUE(md.ok());
  // city read-only -> category.
  auto hints = md->DtypeHints({"city"}, 10);
  EXPECT_EQ(hints.at("city"), df::DataType::kCategory);
  EXPECT_EQ(hints.at("id"), df::DataType::kInt64);
  // city written by the program -> stays string (paper's safety rule).
  auto unsafe = md->DtypeHints({}, 10);
  EXPECT_EQ(unsafe.at("city"), df::DataType::kString);
}

TEST_F(MetaTest, EstimateMemoryScalesWithSelection) {
  auto md = ComputeFileMetadata(csv_path_);
  ASSERT_TRUE(md.ok());
  int64_t all = md->EstimateMemoryBytes({});
  int64_t just_id = md->EstimateMemoryBytes({"id"});
  EXPECT_GT(all, just_id);
  EXPECT_GT(just_id, 0);
}

TEST_F(MetaTest, StoreRoundTripAndFreshness) {
  MetaStore store(dir_ + "/metastore");
  auto miss = store.Lookup(csv_path_);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->has_value());

  auto computed = store.ComputeAndStore(csv_path_);
  ASSERT_TRUE(computed.ok());
  auto hit = store.Lookup(csv_path_);
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->has_value());
  EXPECT_EQ((*hit)->approx_rows, computed->approx_rows);
}

TEST_F(MetaTest, StaleMetadataIgnoredAfterFileUpdate) {
  MetaStore store(dir_ + "/metastore");
  ASSERT_TRUE(store.ComputeAndStore(csv_path_).ok());
  // Touch the dataset with a strictly newer mtime.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  {
    std::ofstream out(csv_path_, std::ios::app);
    out << "101,1.0,NY,2024-01-01 00:00:00\n";
  }
  auto stale = store.Lookup(csv_path_);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->has_value());  // refused

  auto refreshed = store.GetOrCompute(csv_path_);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->sample_rows, 101);
}

// A file rewritten within the same second: the stored sample must not
// type the new contents. The mtimes are set explicitly, 0.5 s apart inside
// one second, so the case does not depend on the clock.
TEST_F(MetaTest, RewriteWithinTheSameSecondIsStale) {
  namespace fs = std::filesystem;
  const std::string path = dir_ + "/x.csv";
  const auto second = fs::last_write_time(csv_path_);
  const auto base =
      std::chrono::time_point_cast<std::chrono::seconds>(second);
  auto write = [&](const std::string& text, int ms) {
    std::ofstream(path, std::ios::trunc) << text;
    fs::last_write_time(path, base + std::chrono::milliseconds(ms));
  };
  MetaStore store(dir_ + "/metastore");

  // Size changes (13 -> 25 bytes): x = 3, 4 becomes 3.75, 4.5, 7.25.
  write("id,x\n1,3\n2,4\n", 100);
  ASSERT_EQ(FileSizeBytes(path), 13);
  ASSERT_TRUE(store.ComputeAndStore(path).ok());
  write("id,x\n1,3.75\n2,4.5\n3,7.25\n", 600);
  ASSERT_EQ(FileSizeBytes(path), 25);
  auto stale = store.Lookup(path);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->has_value());
  auto md = store.GetOrCompute(path);
  ASSERT_TRUE(md.ok());
  io::CsvReadOptions options;
  options.dtypes = md->DtypeHints({"id", "x"}, 64);
  EXPECT_EQ(options.dtypes.at("x"), df::DataType::kDouble);
  MemoryTracker tracker(0);
  auto frame = io::ReadCsv(path, options, &tracker);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  const df::Column& x = **frame->column("x");
  ASSERT_EQ(x.size(), 3u);
  EXPECT_EQ(x.DoubleAt(0), 3.75);
  EXPECT_EQ(x.DoubleAt(1), 4.5);
  EXPECT_EQ(x.DoubleAt(2), 7.25);

  // Same size, same second: only the full-resolution mtime tells.
  write("id,x\n1,3\n2,4\n", 100);
  ASSERT_TRUE(store.ComputeAndStore(path).ok());
  write("id,x\n1,a\n2,b\n", 600);
  auto same_size = store.Lookup(path);
  ASSERT_TRUE(same_size.ok());
  EXPECT_FALSE(same_size->has_value());
}

TEST_F(MetaTest, GetOrComputeCaches) {
  MetaStore store(dir_ + "/metastore");
  auto first = store.GetOrCompute(csv_path_);
  ASSERT_TRUE(first.ok());
  auto second = store.GetOrCompute(csv_path_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->Serialize(), second->Serialize());
}

TEST_F(MetaTest, DistinctPathsDoNotCollideInStore) {
  std::string other_dir = dir_ + "/other";
  std::filesystem::create_directories(other_dir);
  std::string other_csv = other_dir + "/data.csv";  // same basename
  {
    std::ofstream out(other_csv);
    out << "x\n1\n";
  }
  MetaStore store(dir_ + "/metastore");
  ASSERT_TRUE(store.ComputeAndStore(csv_path_).ok());
  ASSERT_TRUE(store.ComputeAndStore(other_csv).ok());
  auto a = store.Lookup(csv_path_);
  auto b = store.Lookup(other_csv);
  ASSERT_TRUE(a.ok() && a->has_value());
  ASSERT_TRUE(b.ok() && b->has_value());
  EXPECT_EQ((*a)->columns.size(), 4u);
  EXPECT_EQ((*b)->columns.size(), 1u);
}

TEST_F(MetaTest, MissingFileFails) {
  EXPECT_FALSE(ComputeFileMetadata("/no/such/file.csv").ok());
}

}  // namespace
}  // namespace lafp::meta
