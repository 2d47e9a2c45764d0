#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "io/csv.h"

namespace lafp::io {
namespace {

class CsvEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "csv_edge_" +
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

TEST_F(CsvEdgeTest, DuplicateHeaderNamesRejected) {
  WriteFile("a,b,a\n1,2,3\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  EXPECT_FALSE(frame.ok());
}

TEST_F(CsvEdgeTest, RaggedShortRowsPadWithNulls) {
  WriteFile("a,b,c\n1,2,3\n4,5\n6\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->num_rows(), 3u);
  EXPECT_EQ((*frame->column("c"))->IntAt(0), 3);
  EXPECT_FALSE((*frame->column("c"))->IsValid(1));
  EXPECT_FALSE((*frame->column("b"))->IsValid(2));
}

TEST_F(CsvEdgeTest, TypeDriftAfterInferenceWindowCoerces) {
  // The inference window sees only integers; a later alphabetic value
  // cannot be represented and becomes null (errors='coerce' semantics).
  std::string content = "v\n";
  for (int i = 0; i < 70; ++i) content += std::to_string(i) + "\n";
  content += "oops\n";
  WriteFile(content);
  CsvReadOptions opts;
  opts.infer_rows = 64;
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("v"))->type(), df::DataType::kInt64);
  EXPECT_EQ(frame->num_rows(), 71u);
  EXPECT_FALSE((*frame->column("v"))->IsValid(70));
}

TEST_F(CsvEdgeTest, WideInferenceWindowAvoidsTheDrift) {
  std::string content = "v\n";
  for (int i = 0; i < 70; ++i) content += std::to_string(i) + "\n";
  content += "oops\n";
  WriteFile(content);
  CsvReadOptions opts;
  opts.infer_rows = 200;  // sees the string: column inferred as string
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("v"))->type(), df::DataType::kString);
  EXPECT_EQ((*frame->column("v"))->StringAt(70), "oops");
}

TEST_F(CsvEdgeTest, VeryLongFieldSurvives) {
  std::string big(100000, 'x');
  WriteFile("a,b\n1," + big + "\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("b"))->StringAt(0).size(), big.size());
}

TEST_F(CsvEdgeTest, ExtraFieldsAreIgnored) {
  WriteFile("a,b\n1,2,3,4\n5,6\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_columns(), 2u);
  EXPECT_EQ((*frame->column("b"))->IntAt(0), 2);
}

TEST_F(CsvEdgeTest, WhitespaceOnlyNumbersAreNull) {
  WriteFile("a\n1\n   \n3\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_rows(), 3u);
  EXPECT_FALSE((*frame->column("a"))->IsValid(1));
}

TEST_F(CsvEdgeTest, NegativeAndScientificNumbers) {
  WriteFile("a,b\n-5,1e3\n+0,-2.5E-2\n");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame->column("a"))->type(), df::DataType::kInt64);
  EXPECT_EQ((*frame->column("a"))->IntAt(0), -5);
  EXPECT_EQ((*frame->column("b"))->type(), df::DataType::kDouble);
  EXPECT_DOUBLE_EQ((*frame->column("b"))->DoubleAt(0), 1000.0);
  EXPECT_DOUBLE_EQ((*frame->column("b"))->DoubleAt(1), -0.025);
}

TEST_F(CsvEdgeTest, UsecolsSingleOfMany) {
  std::string content = "a,b,c,d\n";
  for (int i = 0; i < 10; ++i) content += "1,2,3,4\n";
  WriteFile(content);
  CsvReadOptions opts;
  opts.usecols = {"d"};
  auto frame = ReadCsv(path_, opts, &tracker_);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->num_columns(), 1u);
  EXPECT_EQ(frame->names()[0], "d");
  EXPECT_EQ((*frame->column("d"))->IntAt(9), 4);
}

TEST_F(CsvEdgeTest, EmptyFileIsACleanIOError) {
  WriteFile("");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kIOError);
  EXPECT_NE(frame.status().message().find("empty"), std::string::npos);
  EXPECT_FALSE(CsvChunkReader::Open(path_, {}, &tracker_).ok());
}

/// A file of exactly one page whose last record has no newline: the
/// mapping ends at the page boundary, so any read past the last byte
/// faults (ASan cannot see past the end of an mmap).
class CsvPageEndTest : public CsvEdgeTest {
 protected:
  /// Pads `header` with filler rows so that `last` ends the file at
  /// exactly 4096 bytes.
  std::string PageFile(const std::string& header, const std::string& filler,
                       const std::string& last) {
    std::string content = header;
    while (content.size() + filler.size() + last.size() <= 4096) {
      content += filler;
    }
    content += std::string(4096 - content.size() - last.size(), '\n');
    content += last;
    EXPECT_EQ(content.size(), 4096u);
    WriteFile(content);
    return content;
  }
};

TEST_F(CsvPageEndTest, EndsInANumber) {
  PageFile("a,b\n", "1,2.5\n", "7,12.75");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  const size_t last = frame->num_rows() - 1;
  EXPECT_EQ((*frame->column("a"))->IntAt(last), 7);
  EXPECT_EQ((*frame->column("b"))->DoubleAt(last), 12.75);
}

TEST_F(CsvPageEndTest, EndsInATimestamp) {
  PageFile("id,ts\n", "1,2024-01-05 08:00:00\n", "2,2024-03-09 10:11:12");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  const df::Column& ts = **frame->column("ts");
  ASSERT_EQ(ts.type(), df::DataType::kTimestamp);
  EXPECT_EQ(ts.ValueString(ts.size() - 1), "2024-03-09 10:11:12");
}

TEST_F(CsvPageEndTest, EndsInAnUnterminatedQuote) {
  PageFile("id,s\n", "1,x\n", "2,\"open\nto the end");
  auto frame = ReadCsv(path_, {}, &tracker_);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  const df::Column& s = **frame->column("s");
  // The open quote runs to the end of the file, newline included.
  EXPECT_EQ(s.StringAt(s.size() - 1), "open\nto the end");
  for (size_t chunk : {1, 5}) {
    auto reader = CsvChunkReader::Open(path_, {}, &tracker_);
    ASSERT_TRUE(reader.ok());
    size_t rows = 0;
    while (true) {
      auto next = (*reader)->NextChunk(chunk);
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      rows += (*next)->num_rows();
    }
    EXPECT_EQ(rows, frame->num_rows());
  }
}

}  // namespace
}  // namespace lafp::io
