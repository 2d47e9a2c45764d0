#include "io/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>

#include "dataframe/ops.h"

namespace lafp::io {
namespace {

using df::DataFrame;
using df::DataType;

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "csv_test_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

  std::string path_;
  MemoryTracker tracker_{0};
};

TEST_F(CsvTest, ReadsTypedColumns) {
  WriteFile(
      "id,fare,city,ok\n"
      "1,10.5,NY,True\n"
      "2,20.0,SF,False\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 2u);
  EXPECT_EQ((*frame->column("id"))->type(), DataType::kInt64);
  EXPECT_EQ((*frame->column("fare"))->type(), DataType::kDouble);
  EXPECT_EQ((*frame->column("city"))->type(), DataType::kString);
  EXPECT_EQ((*frame->column("ok"))->type(), DataType::kBool);
  EXPECT_EQ((*frame->column("id"))->IntAt(1), 2);
  EXPECT_DOUBLE_EQ((*frame->column("fare"))->DoubleAt(0), 10.5);
  EXPECT_TRUE((*frame->column("ok"))->BoolAt(0));
}

TEST_F(CsvTest, InfersTimestamps) {
  WriteFile(
      "when\n"
      "2024-01-01 08:00:00\n"
      "2024-01-02 09:30:00\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("when"))->type(), DataType::kTimestamp);
  EXPECT_EQ((*frame->column("when"))->ValueString(0),
            "2024-01-01 08:00:00");
}

TEST_F(CsvTest, UsecolsReadsOnlySelected) {
  WriteFile(
      "a,b,c\n"
      "1,2,3\n"
      "4,5,6\n");
  CsvReadOptions opts;
  opts.usecols = {"c", "a"};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  // pandas preserves file order for usecols.
  EXPECT_EQ(frame->names(), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ((*frame->column("c"))->IntAt(1), 6);
}

TEST_F(CsvTest, UsecolsUnknownColumnFails) {
  WriteFile("a\n1\n");
  CsvReadOptions opts;
  opts.usecols = {"ghost"};
  EXPECT_TRUE(ReadCsv(path_, opts, &tracker_).status().IsKeyError());
}

TEST_F(CsvTest, UsecolsReducesMemory) {
  std::string content = "a,b,c,d,e,f\n";
  for (int i = 0; i < 500; ++i) {
    content += "1,2,3,4,5,6\n";
  }
  WriteFile(content);
  MemoryTracker all_tracker(0), some_tracker(0);
  auto all = ReadCsv(path_, {}, &all_tracker);
  CsvReadOptions opts;
  opts.usecols = {"a"};
  auto some = ReadCsv(path_, opts, &some_tracker);
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(some.ok());
  EXPECT_LT(some->footprint_bytes(), all->footprint_bytes() / 4);
}

TEST_F(CsvTest, DtypeOverrides) {
  WriteFile(
      "zip,label\n"
      "02134,x\n"
      "10001,y\n");
  CsvReadOptions opts;
  opts.dtypes = {{"zip", DataType::kString}};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("zip"))->type(), DataType::kString);
  EXPECT_EQ((*frame->column("zip"))->StringAt(0), "02134");  // leading zero kept
}

TEST_F(CsvTest, CategoryDtypeProducesDictionary) {
  WriteFile(
      "city\n"
      "NY\nSF\nNY\nNY\n");
  CsvReadOptions opts;
  opts.dtypes = {{"city", DataType::kCategory}};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("city"))->type(), DataType::kCategory);
  EXPECT_EQ((*frame->column("city"))->dictionary()->size(), 2u);
  EXPECT_EQ((*frame->column("city"))->StringAt(2), "NY");
}

TEST_F(CsvTest, BlankFieldsBecomeNulls) {
  WriteFile(
      "a,b\n"
      "1,x\n"
      ",y\n"
      "3,\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE((*frame->column("a"))->IsValid(1));
  EXPECT_FALSE((*frame->column("b"))->IsValid(2));
  EXPECT_EQ((*frame->column("a"))->IntAt(2), 3);
}

TEST_F(CsvTest, MixedIntDoubleWidens) {
  WriteFile(
      "v\n"
      "1\n"
      "2.5\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("v"))->type(), DataType::kDouble);
}

TEST_F(CsvTest, QuotedFieldsWithCommasAndEscapes) {
  WriteFile(
      "name,desc\n"
      "\"Smith, John\",\"said \"\"hi\"\"\"\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("name"))->StringAt(0), "Smith, John");
  EXPECT_EQ((*frame->column("desc"))->StringAt(0), "said \"hi\"");
}

TEST_F(CsvTest, NrowsLimitsRead) {
  WriteFile("v\n1\n2\n3\n4\n");
  CsvReadOptions opts;
  opts.nrows = 2;
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 2u);
}

TEST_F(CsvTest, ChunkedReaderStreamsAllRows) {
  std::string content = "v\n";
  for (int i = 0; i < 100; ++i) content += std::to_string(i) + "\n";
  WriteFile(content);
  auto reader = CsvChunkReader::Open(path_, {}, &tracker_);
  ASSERT_TRUE(reader.ok());
  size_t total = 0;
  int chunks = 0;
  int64_t next_expected = 0;
  while (true) {
    auto chunk = (*reader)->NextChunk(7);
    ASSERT_TRUE(chunk.ok());
    if (!chunk->has_value()) break;
    ++chunks;
    EXPECT_LE((*chunk)->num_rows(), 7u);
    const auto& col = *(*chunk)->column(0);
    for (size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(col.IntAt(i), next_expected++);
    }
    total += (*chunk)->num_rows();
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(chunks, 15);  // ceil(100/7)
}

TEST_F(CsvTest, ChunkedInferencePrefixLargerThanChunk) {
  // infer_rows (64) larger than chunk size: buffered lines must drain
  // correctly across chunks.
  std::string content = "v\n";
  for (int i = 0; i < 30; ++i) content += std::to_string(i) + "\n";
  WriteFile(content);
  auto reader = CsvChunkReader::Open(path_, {}, &tracker_);
  ASSERT_TRUE(reader.ok());
  auto c1 = (*reader)->NextChunk(10);
  ASSERT_TRUE(c1.ok() && c1->has_value());
  EXPECT_EQ((*c1)->num_rows(), 10u);
  auto c2 = (*reader)->NextChunk(100);
  ASSERT_TRUE(c2.ok() && c2->has_value());
  EXPECT_EQ((*c2)->num_rows(), 20u);
  auto c3 = (*reader)->NextChunk(10);
  ASSERT_TRUE(c3.ok());
  EXPECT_FALSE(c3->has_value());
}

TEST_F(CsvTest, MissingFileFails) {
  EXPECT_TRUE(
      ReadCsv("/nonexistent/nope.csv", {}, &tracker_).status().code() ==
      StatusCode::kIOError);
}

TEST_F(CsvTest, HeaderOnlyFileGivesEmptyFrame) {
  WriteFile("a,b\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 0u);
  EXPECT_EQ(frame->num_columns(), 2u);
}

TEST_F(CsvTest, WriteReadRoundTrip) {
  auto id = *df::Column::MakeInt({1, 2}, {}, &tracker_);
  auto name = *df::Column::MakeString({"a,b", "c\"d"}, {}, &tracker_);
  auto fare = *df::Column::MakeDouble({1.5, 2.0}, {1, 0}, &tracker_);
  auto frame = *DataFrame::Make({"id", "name", "fare"}, {id, name, fare});
  ASSERT_TRUE(WriteCsv(frame, path_).ok());
  auto back = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 2u);
  EXPECT_EQ((*back->column("name"))->StringAt(0), "a,b");
  EXPECT_EQ((*back->column("name"))->StringAt(1), "c\"d");
  EXPECT_FALSE((*back->column("fare"))->IsValid(1));
}

TEST_F(CsvTest, CrLfLineEndings) {
  WriteFile("a,b\r\n1,x\r\n2,y\r\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 2u);
  EXPECT_EQ((*frame->column("b"))->StringAt(1), "y");
}

TEST_F(CsvTest, SplitCsvLineEdgeCases) {
  EXPECT_EQ(SplitCsvLine("a,b", ','),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitCsvLine("\"a,b\",c", ','),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(SplitCsvLine("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitCsvLine("\"\"\"\"", ','),
            (std::vector<std::string>{"\""}));
}

TEST_F(CsvTest, CategoryHintSurvivesManyRanges) {
  // More rows than one parse range: every range appends to the same
  // dictionary-coded column. (Concatenating per-chunk category columns
  // decays them to strings.)
  std::string content = "city,n\n";
  const char* cities[] = {"pune", "delhi", "mumbai"};
  for (int i = 0; i < 70000; ++i) {
    content += std::string(cities[i % 3]) + "," + std::to_string(i) + "\n";
  }
  WriteFile(content);
  CsvReadOptions opts;
  opts.dtypes = {{"city", DataType::kCategory}};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  const df::Column& city = **frame->column("city");
  ASSERT_EQ(city.type(), DataType::kCategory);
  EXPECT_EQ(city.dictionary()->size(), 3u);
  EXPECT_EQ(city.StringAt(69999), "pune");
  // Peak equals the result: no second copy of any column.
  EXPECT_EQ(tracker_.peak(), frame->footprint_bytes());
}

TEST_F(CsvTest, RangesParseConcurrentlyLikeOneRead) {
  std::string content = "id,v,s\n";
  for (int i = 0; i < 5000; ++i) {
    content += std::to_string(i) + "," + std::to_string(i * 0.25) + ",s" +
               std::to_string(i % 7) + (i % 11 == 0 ? "\n" : "x\n");
  }
  WriteFile(content);
  CsvReadOptions opts;
  opts.dtypes = {{"s", DataType::kCategory}};
  auto whole = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(whole.ok());
  auto reader = CsvChunkReader::Open(path_, opts, &tracker_);
  ASSERT_TRUE(reader.ok());
  std::vector<CsvRange> ranges;
  while (true) {
    auto range = (*reader)->NextRange(300);
    ASSERT_TRUE(range.ok());
    if (!range->has_value()) break;
    ranges.push_back(**range);
  }
  ASSERT_EQ(ranges.size(), 17u);
  // Modin's partitioned read: ranges parse on worker threads against one
  // shared tracker.
  std::vector<Result<DataFrame>> parts(ranges.size(), DataFrame());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < ranges.size(); i += 4) {
        parts[i] = (*reader)->ParseRange(ranges[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  size_t offset = 0;
  for (auto& part : parts) {
    ASSERT_TRUE(part.ok());
    for (size_t c = 0; c < part->num_columns(); ++c) {
      const df::Column& got = *part->column(c);
      const df::Column& want = *whole->column(c);
      ASSERT_EQ(got.type(), want.type());
      for (size_t r = 0; r < got.size(); ++r) {
        ASSERT_EQ(got.ValueString(r), want.ValueString(offset + r));
      }
    }
    offset += part->num_rows();
  }
  EXPECT_EQ(offset, 5000u);
}

TEST_F(CsvTest, OutOfMemoryDuringReadSurfacesAsStatus) {
  std::string content = "v\n";
  for (int i = 0; i < 10000; ++i) content += std::to_string(i) + "\n";
  WriteFile(content);
  MemoryTracker small(1024);  // far below 10000 * 8 bytes
  auto frame = ReadCsv(path_, {}, &small);
  EXPECT_TRUE(frame.status().IsOutOfMemory());
}

}  // namespace
}  // namespace lafp::io
