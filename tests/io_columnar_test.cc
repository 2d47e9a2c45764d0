// LFC native columnar format: round-trip property tests over every
// dtype and edge shape, projection/row-limit contracts, zone-map pruning
// correctness per comparison op, the format-abuse sweep (checked-in
// corrupt corpus + exhaustive truncation and bit-flip mutations) over
// both decoder entry points (file path and in-memory bytes), the mmap
// reader's concurrent-chunk-read thread safety, and the optimizer's
// zone-prune pass end to end.
#include "io/columnar.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/wire.h"
#include "dataframe/ops.h"
#include "exec/partitioned.h"
#include "lazy/fat_dataframe.h"
#include "optimizer/passes.h"

namespace lafp::io {
namespace {

namespace fs = std::filesystem;
using df::Column;
using df::CompareOp;
using df::DataFrame;
using df::DataType;
using df::Scalar;

class LfcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "lfc_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global()->Clear();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  /// Full-fidelity textual form: schema, types, validity, and every cell
  /// (ValueString renders NaN/null identically, so validity is explicit).
  static std::string FrameRepr(const DataFrame& frame) {
    std::string out;
    for (size_t c = 0; c < frame.num_columns(); ++c) {
      const Column& col = *frame.column(c);
      out += frame.names()[c] + ":" + df::DataTypeName(col.type()) + "[";
      for (size_t i = 0; i < col.size(); ++i) {
        if (i > 0) out += ",";
        out += col.IsValid(i) ? col.ValueString(i) : "<null>";
      }
      out += "]\n";
    }
    return out;
  }

  /// One column of every physical type, each with nulls, duplicates, and
  /// the classic value-level hazards (NaN, signed zero, empty strings).
  DataFrame MixedFrame(size_t rows) {
    std::vector<int64_t> ints, stamps;
    std::vector<double> dbls;
    std::vector<uint8_t> bools, valid;
    std::vector<std::string> strs;
    for (size_t i = 0; i < rows; ++i) {
      ints.push_back(static_cast<int64_t>(i) * 3 - 7);
      stamps.push_back(1700000000 + static_cast<int64_t>(i) * 86400);
      dbls.push_back(i % 5 == 0 ? -0.0 : (i % 7 == 0 ? std::nan("") : i * 0.5));
      bools.push_back(i % 2);
      strs.push_back(i % 4 == 0 ? "" : "s" + std::to_string(i % 3));
      valid.push_back(i % 6 == 0 ? 0 : 1);
    }
    auto c_int = *Column::MakeInt(ints, valid, &tracker_);
    auto c_ts = *Column::MakeTimestamp(stamps, valid, &tracker_);
    auto c_dbl = *Column::MakeDouble(dbls, valid, &tracker_);
    auto c_bool = *Column::MakeBool(bools, valid, &tracker_);
    auto c_str = *Column::MakeString(strs, valid, &tracker_);
    auto c_cat = *df::CategorizeStrings(*c_str, &tracker_);
    return *DataFrame::Make({"i", "ts", "d", "b", "s", "cat"},
                            {c_int, c_ts, c_dbl, c_bool, c_str, c_cat});
  }

  /// Single int column 0..rows-1 in `chunk_rows`-sized chunks — the
  /// pruning fixtures' workhorse (chunk k spans [k*cr, (k+1)*cr)).
  std::string WriteIntLadder(size_t rows, size_t chunk_rows) {
    std::vector<int64_t> vals;
    for (size_t i = 0; i < rows; ++i) vals.push_back(static_cast<int64_t>(i));
    auto col = *Column::MakeInt(vals, {}, &tracker_);
    auto frame = *DataFrame::Make({"a"}, {col});
    const std::string path = Path("ladder.lfc");
    LfcWriteOptions wo;
    wo.chunk_rows = chunk_rows;
    EXPECT_TRUE(WriteLfcFile(frame, path, wo).ok());
    return path;
  }

  std::vector<char> FileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  /// The bytes entry point over the first `len` bytes of `bytes`.
  Result<DataFrame> Decode(const std::vector<char>& bytes, size_t len) {
    return DecodeLfc(std::string_view(bytes.data(), len), &tracker_);
  }

  void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
  MemoryTracker tracker_{0};
};

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST_F(LfcTest, RoundTripEveryDtypeAcrossChunkSizes) {
  DataFrame frame = MixedFrame(23);
  const std::string expected = FrameRepr(frame);
  for (size_t chunk_rows : {size_t{1}, size_t{3}, size_t{7}, size_t{1024}}) {
    const std::string path = Path("mixed_" + std::to_string(chunk_rows));
    LfcWriteOptions wo;
    wo.chunk_rows = chunk_rows;
    ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok()) << chunk_rows;
    EXPECT_TRUE(IsLfcFile(path));
    auto back = ReadLfcFile(path, {}, &tracker_);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(FrameRepr(*back), expected) << "chunk_rows=" << chunk_rows;
    // Logical types survive exactly — category stays category.
    EXPECT_EQ(back->column(5)->type(), DataType::kCategory);
    EXPECT_EQ(back->column(1)->type(), DataType::kTimestamp);
    // The bytes encoder writes exactly the file, and decodes alike.
    auto bytes = EncodeLfc(frame, wo);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    const std::vector<char> file = FileBytes(path);
    EXPECT_EQ(*bytes, std::string(file.begin(), file.end()));
    auto decoded = DecodeLfc(*bytes, &tracker_);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(FrameRepr(*decoded), expected) << "chunk_rows=" << chunk_rows;
  }
}

TEST_F(LfcTest, RoundTripEmptyFrame) {
  auto col = *Column::MakeInt({}, {}, &tracker_);
  auto strs = *Column::MakeString({}, {}, &tracker_);
  auto frame = *DataFrame::Make({"x", "y"}, {col, strs});
  const std::string path = Path("empty.lfc");
  ASSERT_TRUE(WriteLfcFile(frame, path).ok());
  auto back = ReadLfcFile(path, {}, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->names(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(back->column(0)->type(), DataType::kInt64);
  EXPECT_EQ(back->column(1)->type(), DataType::kString);
  auto info = ReadLfcInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->nrows, 0u);
  EXPECT_EQ(info->num_chunks, 0u);
  // The shard exchange ships empty partitions routinely: the bytes path
  // keeps the column table too.
  auto bytes = EncodeLfc(frame);
  ASSERT_TRUE(bytes.ok());
  auto decoded = DecodeLfc(*bytes, &tracker_);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(FrameRepr(*decoded), FrameRepr(*back));
}

// What an exchange payload must also reject: trailing bytes (the sender
// and receiver disagree about the frame's extent) and a footer re-sealed
// to claim rows without columns; a decode over budget is OutOfMemory.
// Errors name the bytes' source, not a path.
TEST_F(LfcTest, DecodeRejectsTrailingBytesAndColumnlessRows) {
  auto bytes = EncodeLfc(MixedFrame(5));
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(DecodeLfc(*bytes, &tracker_).ok());
  auto trailing = DecodeLfc(*bytes + "x", &tracker_, "shard exchange");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().message().find("(shard exchange)"),
            std::string::npos)
      << trailing.status().ToString();

  MemoryTracker tiny(8);
  EXPECT_TRUE(DecodeLfc(*bytes, &tiny).status().IsOutOfMemory());

  // Five rows in one chunk, no columns, checksum re-sealed.
  WireWriter footer;
  footer.U32(kLfcVersion);
  footer.U64(5);      // nrows
  footer.U64(65536);  // nominal chunk rows
  footer.U32(0);      // ncols
  footer.U32(1);      // nchunks
  footer.U64(5);      // chunk 0 rows
  const std::string body = footer.Take();
  WireWriter forged;
  forged.U64(kLfcMagic);
  forged.Raw(body);
  forged.U64(body.size());
  forged.U64(Fnv1a64(body.data(), body.size()));
  forged.U64(kLfcMagic);
  auto columnless = DecodeLfc(forged.Take(), &tracker_);
  ASSERT_FALSE(columnless.ok());
  EXPECT_NE(columnless.status().message().find("row count without columns"),
            std::string::npos)
      << columnless.status().ToString();
}

TEST_F(LfcTest, RoundTripSingleRow) {
  DataFrame frame = MixedFrame(1);
  const std::string path = Path("one.lfc");
  ASSERT_TRUE(WriteLfcFile(frame, path).ok());
  auto back = ReadLfcFile(path, {}, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(FrameRepr(*back), FrameRepr(frame));
}

TEST_F(LfcTest, RoundTripAllNullColumns) {
  std::vector<uint8_t> none(5, 0);
  auto ints = *Column::MakeInt({0, 0, 0, 0, 0}, none, &tracker_);
  auto dbls = *Column::MakeDouble({0, 0, 0, 0, 0}, none, &tracker_);
  auto strs = *Column::MakeString({"", "", "", "", ""}, none, &tracker_);
  auto frame = *DataFrame::Make({"i", "d", "s"}, {ints, dbls, strs});
  const std::string path = Path("allnull.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 2;
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
  auto back = ReadLfcFile(path, {}, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(FrameRepr(*back), FrameRepr(frame));
  for (size_t c = 0; c < back->num_columns(); ++c) {
    EXPECT_EQ(back->column(c)->null_count(), 5u);
  }
}

TEST_F(LfcTest, SignedZeroAndNanSurviveBitExact) {
  auto col = *Column::MakeDouble({0.0, -0.0, std::nan(""), 1.5}, {}, &tracker_);
  auto frame = *DataFrame::Make({"d"}, {col});
  const std::string path = Path("dbl.lfc");
  ASSERT_TRUE(WriteLfcFile(frame, path).ok());
  auto back = ReadLfcFile(path, {}, &tracker_);
  ASSERT_TRUE(back.ok());
  const auto& vals = back->column(0)->doubles();
  ASSERT_EQ(vals.size(), 4u);
  EXPECT_FALSE(std::signbit(vals[0]));
  EXPECT_TRUE(std::signbit(vals[1]));
  EXPECT_TRUE(std::isnan(vals[2]));
  EXPECT_EQ(vals[3], 1.5);
}

TEST_F(LfcTest, DictionaryHandlesDuplicatesAndEmptyStrings) {
  auto strs = *Column::MakeString({"", "dup", "dup", "", "x", "dup"},
                                  {1, 1, 1, 1, 1, 1}, &tracker_);
  auto cat = *df::CategorizeStrings(*strs, &tracker_);
  auto frame = *DataFrame::Make({"s", "c"}, {strs, cat});
  const std::string path = Path("dict.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 2;  // dictionary is file-level, chunks share it
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
  auto back = ReadLfcFile(path, {}, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(FrameRepr(*back), FrameRepr(frame));
  // The category dictionary survives verbatim (first-appearance order).
  const auto& dict = *back->column(1)->dictionary();
  EXPECT_EQ(dict.size(), 3u);
  EXPECT_EQ(dict[0], "");
  EXPECT_EQ(dict[1], "dup");
}

// An all-null column built from a null scalar lowers to kDouble with
// null validity (there is no public kNull column constructor); it must
// round-trip like any other all-null column.
TEST_F(LfcTest, NullScalarConstantColumnRoundTrips) {
  auto c = *Column::MakeConstant(Scalar::Null(), 3, &tracker_);
  auto frame = *DataFrame::Make({"n"}, {c});
  const std::string path = Path("null.lfc");
  ASSERT_TRUE(WriteLfcFile(frame, path).ok());
  auto back = ReadLfcFile(path, {}, &tracker_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(FrameRepr(*back), FrameRepr(frame));
  EXPECT_EQ(back->column(0)->null_count(), 3u);
}

// ---------------------------------------------------------------------------
// Projection and row limits
// ---------------------------------------------------------------------------

TEST_F(LfcTest, UsecolsSelectsInFileOrder) {
  DataFrame frame = MixedFrame(10);
  const std::string path = Path("proj.lfc");
  ASSERT_TRUE(WriteLfcFile(frame, path).ok());
  LfcReadOptions ro;
  ro.usecols = {"s", "i", "s"};  // unordered + duplicate, pandas-style
  auto back = ReadLfcFile(path, ro, &tracker_);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->names(), (std::vector<std::string>{"i", "s"}));
}

TEST_F(LfcTest, UsecolsUnknownColumnIsKeyError) {
  DataFrame frame = MixedFrame(4);
  const std::string path = Path("proj2.lfc");
  ASSERT_TRUE(WriteLfcFile(frame, path).ok());
  LfcReadOptions ro;
  ro.usecols = {"i", "nope"};
  auto back = ReadLfcFile(path, ro, &tracker_);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsKeyError()) << back.status().ToString();
  EXPECT_NE(back.status().message().find("nope"), std::string::npos);
}

TEST_F(LfcTest, NrowsLimitsAcrossChunkBoundaries) {
  const std::string path = WriteIntLadder(20, 3);
  for (size_t nrows : {size_t{1}, size_t{3}, size_t{7}, size_t{20},
                       size_t{50}}) {
    LfcReadOptions ro;
    ro.nrows = nrows;
    auto back = ReadLfcFile(path, ro, &tracker_);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->num_rows(), std::min<size_t>(nrows, 20));
    for (size_t i = 0; i < back->num_rows(); ++i) {
      EXPECT_EQ(back->column(0)->IntAt(i), static_cast<int64_t>(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Zone-map pruning correctness
// ---------------------------------------------------------------------------

// The core soundness contract, checked per comparison op and per scalar
// position (below/inside/boundary/above the data): the filter kernel over
// a pruned scan produces byte-identical output to the same kernel over
// the unpruned scan.
TEST_F(LfcTest, PrunedFilterMatchesUnprunedPerOp) {
  const std::string path = WriteIntLadder(20, 4);  // chunks [0,3]..[16,19]
  const std::vector<Scalar> scalars = {
      Scalar::Int(-1), Scalar::Int(0),  Scalar::Int(5),
      Scalar::Int(19), Scalar::Int(99), Scalar::Double(7.5),
      Scalar::Double(std::nan("")),     Scalar::Null()};
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const Scalar& scalar : scalars) {
      LfcReadOptions pruned_ro;
      pruned_ro.prune = {{"a", op, scalar}};
      LfcReadStats stats;
      auto pruned = ReadLfcFile(path, pruned_ro, &tracker_, &stats);
      ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
      auto unpruned = ReadLfcFile(path, {}, &tracker_);
      ASSERT_TRUE(unpruned.ok());

      auto apply = [&](const DataFrame& frame) {
        auto mask = df::Compare(*frame.column(0), op, scalar);
        EXPECT_TRUE(mask.ok());
        return *df::Filter(frame, **mask);
      };
      EXPECT_EQ(FrameRepr(apply(*pruned)), FrameRepr(apply(*unpruned)))
          << "op=" << static_cast<int>(op)
          << " scalar=" << scalar.ToString();
      EXPECT_EQ(stats.chunks_total, 5u);
      EXPECT_LE(stats.chunks_skipped, stats.chunks_total);
    }
  }
}

TEST_F(LfcTest, SelectiveEqPrunesAllButStraddlingChunk) {
  const std::string path = WriteIntLadder(20, 4);
  LfcReadOptions ro;
  ro.prune = {{"a", CompareOp::kEq, Scalar::Int(5)}};  // inside chunk 1
  LfcReadStats stats;
  auto frame = ReadLfcFile(path, ro, &tracker_, &stats);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(stats.chunks_skipped, 4u);  // every chunk but [4,7]
  ASSERT_EQ(frame->num_rows(), 4u);
  EXPECT_EQ(frame->column(0)->IntAt(0), 4);
  EXPECT_EQ(frame->column(0)->IntAt(3), 7);
  // prune_enabled=false keeps every chunk even with predicates attached.
  ro.prune_enabled = false;
  LfcReadStats off;
  auto full = ReadLfcFile(path, ro, &tracker_, &off);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(off.chunks_skipped, 0u);
  EXPECT_EQ(full->num_rows(), 20u);
}

// Direct zone-test unit checks per op at chunk boundaries: a chunk whose
// [min,max] straddles or touches the scalar must never be skipped.
TEST_F(LfcTest, ChunkMayMatchBoundaryCases) {
  const std::string path = WriteIntLadder(20, 4);
  auto reader = LfcReader::Open(path, &tracker_);
  ASSERT_TRUE(reader.ok());
  auto may = [&](size_t chunk, CompareOp op, const Scalar& s) {
    return (*reader)->ChunkMayMatch(chunk, {{"a", op, s}});
  };
  // Chunk 1 spans [4,7].
  EXPECT_TRUE(may(1, CompareOp::kEq, Scalar::Int(4)));    // boundary lo
  EXPECT_TRUE(may(1, CompareOp::kEq, Scalar::Int(7)));    // boundary hi
  EXPECT_TRUE(may(1, CompareOp::kEq, Scalar::Int(5)));    // straddle
  EXPECT_FALSE(may(1, CompareOp::kEq, Scalar::Int(8)));
  EXPECT_FALSE(may(1, CompareOp::kLt, Scalar::Int(4)));   // min >= 4
  EXPECT_TRUE(may(1, CompareOp::kLt, Scalar::Int(5)));
  EXPECT_FALSE(may(1, CompareOp::kLe, Scalar::Int(3)));
  EXPECT_TRUE(may(1, CompareOp::kLe, Scalar::Int(4)));
  EXPECT_FALSE(may(1, CompareOp::kGt, Scalar::Int(7)));   // max <= 7
  EXPECT_TRUE(may(1, CompareOp::kGt, Scalar::Int(6)));
  EXPECT_FALSE(may(1, CompareOp::kGe, Scalar::Int(8)));
  EXPECT_TRUE(may(1, CompareOp::kGe, Scalar::Int(7)));
  EXPECT_TRUE(may(1, CompareOp::kNe, Scalar::Int(5)));
  // Unknown columns are indeterminate, never a skip.
  EXPECT_TRUE((*reader)->ChunkMayMatch(
      1, {{"missing", CompareOp::kEq, Scalar::Int(0)}}));
}

TEST_F(LfcTest, PruningNanAndAllNullChunks) {
  // Chunk 0: all-NaN (valid). Chunk 1: all-null. Chunk 2: real values.
  std::vector<double> vals = {std::nan(""), std::nan(""), 0.0, 0.0, 1.0, 2.0};
  std::vector<uint8_t> valid = {1, 1, 0, 0, 1, 1};
  auto col = *Column::MakeDouble(vals, valid, &tracker_);
  auto frame = *DataFrame::Make({"d"}, {col});
  const std::string path = Path("nan.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 2;
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());

  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const Scalar& scalar : {Scalar::Double(1.0), Scalar::Null()}) {
      LfcReadOptions ro;
      ro.prune = {{"d", op, scalar}};
      LfcReadStats stats;
      auto pruned = ReadLfcFile(path, ro, &tracker_, &stats);
      ASSERT_TRUE(pruned.ok());
      auto unpruned = ReadLfcFile(path, {}, &tracker_);
      auto apply = [&](const DataFrame& f) {
        auto mask = df::Compare(*f.column(0), op, scalar);
        return *df::Filter(f, **mask);
      };
      EXPECT_EQ(FrameRepr(apply(*pruned)), FrameRepr(apply(*unpruned)))
          << "op=" << static_cast<int>(op)
          << " scalar=" << scalar.ToString();
    }
  }
  // The kernel treats NaN rows as non-matching for any non-null scalar,
  // so both the all-NaN and the all-null chunk are provably skippable.
  LfcReadOptions eq;
  eq.prune = {{"d", CompareOp::kEq, Scalar::Double(1.0)}};
  LfcReadStats stats;
  ASSERT_TRUE(ReadLfcFile(path, eq, &tracker_, &stats).ok());
  EXPECT_EQ(stats.chunks_skipped, 2u);
}

TEST_F(LfcTest, PruningDictionaryColumnsByMembership) {
  auto strs = *Column::MakeString({"aa", "bb", "aa", "cc", "bb", "aa"}, {},
                                  &tracker_);
  auto frame = *DataFrame::Make({"s"}, {strs});
  const std::string path = Path("dictprune.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 2;
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
  // Absent from the file dictionary: every chunk skipped, empty result —
  // identical to the unpruned+filtered scan.
  LfcReadOptions ro;
  ro.prune = {{"s", CompareOp::kEq, Scalar::String("zz")}};
  LfcReadStats stats;
  auto pruned = ReadLfcFile(path, ro, &tracker_, &stats);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(stats.chunks_skipped, 3u);
  EXPECT_EQ(pruned->num_rows(), 0u);
  // Present value: indeterminate per chunk (file-level dictionary), so
  // nothing is skipped and results match the plain scan.
  ro.prune = {{"s", CompareOp::kEq, Scalar::String("cc")}};
  LfcReadStats present;
  auto kept = ReadLfcFile(path, ro, &tracker_, &present);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(present.chunks_skipped, 0u);
  EXPECT_EQ(kept->num_rows(), 6u);
  // Ordering ops carry no dictionary metadata: never a skip.
  ro.prune = {{"s", CompareOp::kLt, Scalar::String("bb")}};
  LfcReadStats order;
  ASSERT_TRUE(ReadLfcFile(path, ro, &tracker_, &order).ok());
  EXPECT_EQ(order.chunks_skipped, 0u);
}

// Skipped chunks still consume the nrows quota, so pruning composes with
// row limits exactly like filtering the unpruned prefix.
TEST_F(LfcTest, PrunedChunksStillConsumeNrowsQuota) {
  const std::string path = WriteIntLadder(20, 4);
  LfcReadOptions ro;
  ro.prune = {{"a", CompareOp::kGe, Scalar::Int(16)}};  // only chunk 4
  ro.nrows = 8;  // window = chunks 0 and 1, both pruned
  auto windowed = ReadLfcFile(path, ro, &tracker_);
  ASSERT_TRUE(windowed.ok());
  EXPECT_EQ(windowed->num_rows(), 0u);
  ro.nrows = 0;
  auto full = ReadLfcFile(path, ro, &tracker_);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->num_rows(), 4u);
  EXPECT_EQ(full->column(0)->IntAt(0), 16);
}

// ---------------------------------------------------------------------------
// Concurrency (runs under the tsan-kernels preset)
// ---------------------------------------------------------------------------

TEST_F(LfcTest, ConcurrentChunkReadsAgainstSharedTracker) {
  DataFrame frame = MixedFrame(64);
  const std::string path = Path("conc.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 8;
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
  auto reader = LfcReader::Open(path, &tracker_);
  ASSERT_TRUE(reader.ok());
  auto sel = (*reader)->SelectColumns({});
  ASSERT_TRUE(sel.ok());

  const int64_t baseline = tracker_.current();
  std::atomic<int> failures{0};
  std::atomic<size_t> rows_read{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (size_t c = 0; c < (*reader)->num_chunks(); ++c) {
        auto chunk =
            (*reader)->ReadSlices(*sel, {{c, (*reader)->chunk_rows(c)}});
        if (!chunk.ok()) {
          ++failures;
          continue;
        }
        rows_read += chunk->num_rows();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(rows_read.load(), 8u * 64u);
  // Every decoded chunk released its reservation on destruction.
  EXPECT_EQ(tracker_.current(), baseline);
}

// A reader checks its dictionaries at open and builds their strings on a
// column's first read: a projection that skips the string columns never
// decodes them, and threads racing to read one decode it once, to the
// same values.
TEST_F(LfcTest, DictionariesDecodeOnFirstReadAcrossThreads) {
  DataFrame frame = MixedFrame(64);
  const std::string path = Path("dict_first_read.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 8;
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
  auto info = ReadLfcInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_EQ(info->columns.size(), 6u);
  EXPECT_EQ(info->columns[4].type, df::DataType::kString);
  EXPECT_EQ(info->columns[5].type, df::DataType::kCategory);

  auto reader = LfcReader::Open(path, &tracker_);
  ASSERT_TRUE(reader.ok());
  auto ints = (*reader)->SelectColumns({"i"});
  ASSERT_TRUE(ints.ok());
  auto first = (*reader)->ReadSlices(*ints, {{0, 8}});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->ToString(9),
            frame.Select({"i"})->SliceRows(0, 8)->ToString(9));

  auto strings = (*reader)->SelectColumns({"s", "cat"});
  ASSERT_TRUE(strings.ok());
  auto want = frame.Select({"s", "cat"});
  ASSERT_TRUE(want.ok());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const size_t c = (*reader)->num_chunks() - 1 - t % 4;
      auto chunk = (*reader)->ReadSlices(*strings, {{c, 8}});
      auto slice = want->SliceRows(c * 8, 8);
      if (!chunk.ok() || !slice.ok() ||
          chunk->ToString(9) != slice->ToString(9)) {
        ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// §3.6 category hints: dictionary codes straight from the file
// ---------------------------------------------------------------------------

/// Row-for-row value equality between a hinted (category) and a plain
/// (string) read of the same column, nulls included.
void ExpectSameValues(const Column& hinted, const Column& plain) {
  ASSERT_EQ(hinted.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(hinted.IsValid(i), plain.IsValid(i)) << "row " << i;
    if (plain.IsValid(i)) {
      EXPECT_EQ(hinted.StringAt(i), plain.StringAt(i)) << "row " << i;
    }
  }
}

TEST_F(LfcTest, HintedStringColumnReadsAsCategory) {
  DataFrame frame = MixedFrame(23);
  for (size_t chunk_rows : {size_t{1}, size_t{4}, size_t{1024}}) {
    const std::string path = Path("hinted_" + std::to_string(chunk_rows));
    LfcWriteOptions wo;
    wo.chunk_rows = chunk_rows;
    ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
    auto info = ReadLfcInfo(path);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->columns[4].dict_size, 4u);  // "s1", "s2", "s0", ""
    EXPECT_EQ(info->columns[0].dict_size, 0u);  // int64

    LfcReadOptions plain_ro;
    plain_ro.nrows = 19;  // a window that cuts a chunk
    LfcReadOptions hinted_ro = plain_ro;
    // A numeric column and a name the file lacks are ignored.
    hinted_ro.categories = {"i", "missing", "s"};
    auto plain = ReadLfcFile(path, plain_ro, &tracker_);
    auto hinted = ReadLfcFile(path, hinted_ro, &tracker_);
    ASSERT_TRUE(plain.ok() && hinted.ok()) << hinted.status().ToString();
    const Column& s = **hinted->column("s");
    ASSERT_EQ(s.type(), DataType::kCategory) << chunk_rows;
    EXPECT_TRUE(s.has_nulls());
    EXPECT_EQ(s.dictionary()->size(), 4u);
    ExpectSameValues(s, **plain->column("s"));
    EXPECT_EQ((*hinted->column("i"))->type(), DataType::kInt64);
    // Every other column reads exactly as without the hint.
    EXPECT_EQ(FrameRepr(*hinted->Select({"i", "ts", "d", "b", "cat"})),
              FrameRepr(*plain->Select({"i", "ts", "d", "b", "cat"})));
  }
}

// A partitioned scan (Modin, Dask, a shard worker) decodes every unit
// with the one reader: the hinted column's partitions share one
// dictionary, so no partition carries a copy of its own.
TEST_F(LfcTest, ScanUnitsShareOneDictionary) {
  DataFrame frame = MixedFrame(40);
  const std::string path = Path("units.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 6;
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
  exec::OpDesc desc;
  desc.kind = exec::OpKind::kReadLfc;
  desc.path = path;
  desc.lfc_options.usecols = {"s", "cat"};
  desc.lfc_options.categories = {"s"};
  auto units = exec::ScanUnits::Open(desc, 6, &tracker_);
  ASSERT_TRUE(units.ok()) << units.status().ToString();
  auto plain = ReadLfcFile(path, {}, &tracker_);
  ASSERT_TRUE(plain.ok());
  std::vector<df::DataFrame> parts;
  while (true) {
    auto unit = (*units)->Next();
    ASSERT_TRUE(unit.ok());
    if (!unit->has_value()) break;
    auto part = (*units)->Read(**unit);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    parts.push_back(*std::move(part));
  }
  ASSERT_EQ(parts.size(), 7u);
  size_t at = 0;
  for (const auto& part : parts) {
    for (const char* name : {"s", "cat"}) {
      const Column& col = **part.column(name);
      ASSERT_EQ(col.type(), DataType::kCategory) << name;
      EXPECT_EQ(col.dictionary().get(),
                (*parts[0].column(name))->dictionary().get())
          << name;
    }
    auto want = plain->Select({"s"})->SliceRows(at, part.num_rows());
    ASSERT_TRUE(want.ok());
    ExpectSameValues(**part.column("s"), **want->column("s"));
    at += part.num_rows();
  }
  EXPECT_EQ(at, 40u);
}

// A code past the dictionary fails cleanly whether the column decodes to
// codes (hinted) or to strings. The footer checksum covers only the
// footer, so the file opens; the decode finds the code.
TEST_F(LfcTest, CodePastDictionaryFailsOnCodesPath) {
  std::vector<std::string> labels;
  for (int i = 0; i < 40; ++i) labels.push_back("g" + std::to_string(i % 4));
  auto frame = *DataFrame::Make(
      {"label"}, {*Column::MakeString(labels, {}, &tracker_)});
  const std::string path = Path("bad_code.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 16;
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
  std::vector<char> bytes = FileBytes(path);
  // One all-valid string column: its u32 codes follow the 8-byte magic
  // in row order. Row 37 gets code 4, one past the 4-entry dictionary.
  const uint32_t bad_code = 4;
  std::memcpy(bytes.data() + 8 + 4 * 37, &bad_code, sizeof(bad_code));
  WriteBytes(path, bytes);
  ASSERT_TRUE(ReadLfcInfo(path).ok());

  const int64_t before = tracker_.current();
  LfcReadOptions hinted;
  hinted.categories = {"label"};
  for (const LfcReadOptions& ro : {hinted, LfcReadOptions{}}) {
    auto result = ReadLfcFile(path, ro, &tracker_);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("dictionary code out of range"),
              std::string::npos)
        << result.status().ToString();
  }
  EXPECT_EQ(tracker_.current(), before);
  // The chunks before the bad one still decode, to codes.
  LfcReadOptions window = hinted;
  window.nrows = 32;
  auto head = ReadLfcFile(path, window, &tracker_);
  ASSERT_TRUE(head.ok()) << head.status().ToString();
  EXPECT_EQ((*head->column("label"))->type(), DataType::kCategory);
}

// ---------------------------------------------------------------------------
// Optimizer zone-prune pass end to end
// ---------------------------------------------------------------------------

class LfcOptimizerTest : public LfcTest {
 protected:
  std::unique_ptr<lazy::Session> MakeSession() {
    lazy::SessionOptions opts;
    opts.backend = exec::BackendKind::kPandas;
    opts.mode = lazy::ExecutionMode::kLazy;
    opts.output = &output_;
    opts.tracker = &tracker_;
    return std::make_unique<lazy::Session>(opts);
  }
  std::stringstream output_;
};

TEST_F(LfcOptimizerTest, ZonePruneAttachesAndMatchesPlainScan) {
  const std::string path = WriteIntLadder(20, 4);
  auto session = MakeSession();
  auto frame = lazy::FatDataFrame::ReadLfc(session.get(), path);
  ASSERT_TRUE(frame.ok());
  auto mask = frame->Col("a")->CompareTo(CompareOp::kEq, Scalar::Int(5));
  auto filtered = frame->FilterBy(*mask);
  ASSERT_TRUE(filtered.ok());

  opt::PassStats stats;
  ASSERT_TRUE(
      opt::PruneZoneMaps(session.get(), {filtered->node()}, &stats).ok());
  EXPECT_EQ(stats.zone_prunes_attached, 1);
  // The filter now sits on a cloned read carrying the prune conjunct.
  const auto& read = filtered->node()->inputs[0];
  ASSERT_EQ(read->desc.kind, exec::OpKind::kReadLfc);
  ASSERT_EQ(read->desc.lfc_options.prune.size(), 1u);
  EXPECT_EQ(read->desc.lfc_options.prune[0].column, "a");

  auto eager = filtered->ToEager();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  ASSERT_EQ(eager->num_rows(), 1u);
  EXPECT_EQ(eager->column(0)->IntAt(0), 5);
}

// A user-held mask variable forced after the pass must still see the full
// unpruned scan: the pass clones the read instead of mutating it.
TEST_F(LfcOptimizerTest, SharedMaskVariableObservesFullScan) {
  const std::string path = WriteIntLadder(20, 4);
  auto session = MakeSession();
  auto frame = lazy::FatDataFrame::ReadLfc(session.get(), path);
  auto mask = frame->Col("a")->CompareTo(CompareOp::kEq, Scalar::Int(5));
  auto filtered = frame->FilterBy(*mask);

  opt::PassStats stats;
  ASSERT_TRUE(
      opt::PruneZoneMaps(session.get(), {filtered->node(), mask->node()},
                         &stats)
          .ok());
  EXPECT_EQ(stats.zone_prunes_attached, 1);
  // The original mask chain still hangs off the unpruned read.
  EXPECT_TRUE(frame->node()->desc.lfc_options.prune.empty());
  auto eager_filtered = filtered->ToEager();
  ASSERT_TRUE(eager_filtered.ok());
  EXPECT_EQ(eager_filtered->num_rows(), 1u);
  auto eager_mask = mask->ToEager();
  ASSERT_TRUE(eager_mask.ok()) << eager_mask.status().ToString();
  EXPECT_EQ(eager_mask->num_rows(), 20u);  // full length, not pruned
}

TEST_F(LfcOptimizerTest, InstallGateDisablesZonePrune) {
  const std::string path = WriteIntLadder(20, 4);
  for (bool enabled : {true, false}) {
    auto session = MakeSession();
    opt::OptimizerOptions options;
    options.zone_prune = enabled;
    opt::PassStats stats;
    opt::InstallDefaultOptimizer(session.get(), options, &stats);
    auto frame = lazy::FatDataFrame::ReadLfc(session.get(), path);
    auto mask = frame->Col("a")->CompareTo(CompareOp::kGt, Scalar::Int(15));
    auto filtered = frame->FilterBy(*mask);
    auto eager = filtered->ToEager();
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    EXPECT_EQ(eager->num_rows(), 4u);
    EXPECT_EQ(stats.zone_prunes_attached, enabled ? 1 : 0);
  }
}

// Every LFC scan, eager or partitioned, slices through one rule, so a
// zone-pruned read counts its skipped chunks on every backend.
TEST_F(LfcOptimizerTest, PrunedScanCountsSkippedChunksOnEveryBackend) {
  const std::string path = WriteIntLadder(20, 4);  // 5 chunks of 4 rows
  LfcReadOptions pruned;
  pruned.prune = {{"a", CompareOp::kGt, Scalar::Int(15)}};
  auto skipped = [] {
    return metrics::Registry::Global()->Scrape()["lfc.chunks_skipped"];
  };
  for (exec::BackendKind backend :
       {exec::BackendKind::kPandas, exec::BackendKind::kModin,
        exec::BackendKind::kDask}) {
    lazy::Session session(lazy::SessionOptions::Builder()
                              .backend(backend)
                              .tracker(&tracker_)
                              .output(&output_)
                              .Build());
    const int64_t before = skipped();
    auto frame = lazy::FatDataFrame::ReadLfc(&session, path, pruned);
    ASSERT_TRUE(frame.ok());
    auto mask = frame->Col("a")->CompareTo(CompareOp::kGt, Scalar::Int(15));
    auto eager = frame->FilterBy(*mask)->ToEager();
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    EXPECT_EQ(eager->num_rows(), 4u);
    EXPECT_EQ(skipped() - before, 4) << exec::BackendKindName(backend);
  }
}

// read_csv transparently dispatches on the LFC magic, carrying usecols.
TEST_F(LfcOptimizerTest, ReadCsvSniffsLfcMagic) {
  DataFrame frame = MixedFrame(12);
  const std::string path = Path("sniff.lfc");
  ASSERT_TRUE(WriteLfcFile(frame, path).ok());
  auto session = MakeSession();
  io::CsvReadOptions csv;
  csv.usecols = {"i", "d"};
  auto handle = lazy::FatDataFrame::ReadCsv(session.get(), path, csv);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->node()->desc.kind, exec::OpKind::kReadLfc);
  auto eager = handle->ToEager();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->names(), (std::vector<std::string>{"i", "d"}));
  EXPECT_EQ(eager->num_rows(), 12u);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST_F(LfcTest, InjectedWriteFaultLeavesNoPartialFile) {
  DataFrame frame = MixedFrame(10);
  const std::string path = Path("faulted.lfc");
  for (int nth = 1; nth <= 4; ++nth) {
    FaultScope scope("lfc.write:nth=" + std::to_string(nth));
    Status st = WriteLfcFile(frame, path);
    EXPECT_TRUE(st.IsIOError()) << "nth=" << nth << ": " << st.ToString();
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
  }
  ASSERT_TRUE(WriteLfcFile(frame, path).ok());
  EXPECT_TRUE(ReadLfcFile(path, {}, &tracker_).ok());
  // The bytes encoder fires no file fault site.
  FaultScope scope("lfc.write:nth=1");
  EXPECT_TRUE(EncodeLfc(frame).ok());
}

TEST_F(LfcTest, InjectedReadFaultSurfacesCleanly) {
  DataFrame frame = MixedFrame(6);
  const std::string path = Path("readfault.lfc");
  ASSERT_TRUE(WriteLfcFile(frame, path).ok());
  FaultScope scope("lfc.read:nth=1");
  // A bytes decode fires no file fault site: the armed fault waits.
  EXPECT_TRUE(DecodeLfc(*EncodeLfc(frame), &tracker_).ok());
  auto result = ReadLfcFile(path, {}, &tracker_);
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_TRUE(ReadLfcFile(path, {}, &tracker_).ok());  // single-shot
}

// ---------------------------------------------------------------------------
// Format abuse: corpus, truncations, bit flips
// ---------------------------------------------------------------------------

// Checked-in hostile files (tests/lfc_corpus): every one must fail with a
// clean Status from the full reader, the footer-only path and the bytes
// decoder — no crash, no over-read, no unbounded allocation, no tracker
// leak.
TEST_F(LfcTest, CorruptCorpusFailsCleanly) {
  const fs::path corpus = LAFP_LFC_CORPUS_DIR;
  ASSERT_TRUE(fs::exists(corpus)) << corpus;
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() != ".lfc") continue;
    const int64_t before = tracker_.current();
    auto result = ReadLfcFile(entry.path().string(), {}, &tracker_);
    EXPECT_FALSE(result.ok()) << entry.path().filename();
    const std::vector<char> bytes = FileBytes(entry.path().string());
    EXPECT_FALSE(Decode(bytes, bytes.size()).ok()) << entry.path().filename();
    EXPECT_EQ(tracker_.current(), before)
        << "tracker leak from " << entry.path().filename();
    EXPECT_FALSE(ReadLfcInfo(entry.path().string()).ok())
        << entry.path().filename();
    ++checked;
  }
  EXPECT_GE(checked, 12);
  EXPECT_FALSE(ReadLfcFile(Path("missing.lfc"), {}, &tracker_).ok());
}

// Every strict prefix of a valid file is a truncation the reader must
// reject: the trailer anchors all metadata, so no prefix can parse.
TEST_F(LfcTest, EveryTruncationFailsCleanly) {
  DataFrame frame = MixedFrame(7);
  const std::string path = Path("full.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 3;
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
  std::vector<char> bytes = FileBytes(path);
  ASSERT_GT(bytes.size(), 48u);
  const std::string trunc = Path("trunc.lfc");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteBytes(trunc, std::vector<char>(bytes.begin(), bytes.begin() + len));
    auto result = ReadLfcFile(trunc, {}, &tracker_);
    EXPECT_FALSE(result.ok()) << "prefix of length " << len << " succeeded";
    EXPECT_FALSE(Decode(bytes, len).ok())
        << "bytes prefix of length " << len << " succeeded";
  }
}

// Single-bit flips. Payload-region flips may be benign; any flip in the
// head magic or in the footer/trailer region must fail (the checksum
// covers the footer, the magics guard both ends) — and nothing crashes.
TEST_F(LfcTest, BitFlipsNeverCrashAndMetadataFlipsFail) {
  DataFrame frame = MixedFrame(9);
  const std::string path = Path("flipsrc.lfc");
  LfcWriteOptions wo;
  wo.chunk_rows = 4;
  ASSERT_TRUE(WriteLfcFile(frame, path, wo).ok());
  std::vector<char> bytes = FileBytes(path);
  // Recover the footer extent from the trailer to classify flip targets.
  uint64_t footer_len = 0;
  std::memcpy(&footer_len, bytes.data() + bytes.size() - 24, 8);
  const size_t footer_start = bytes.size() - 24 - footer_len;
  const std::string flipped = Path("flip.lfc");
  for (size_t i = 0; i < bytes.size(); ++i) {
    // Payload region: sample sparsely (every 7th byte) to keep the sweep
    // fast; metadata region: every byte.
    if (i >= 8 && i < footer_start && i % 7 != 0) continue;
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> mutated = bytes;
      mutated[i] ^= static_cast<char>(1 << bit);
      WriteBytes(flipped, mutated);
      // Must not crash, through either entry point.
      for (auto result : {ReadLfcFile(flipped, {}, &tracker_),
                          Decode(mutated, mutated.size())}) {
        if (i < 8 || i >= footer_start) {
          EXPECT_FALSE(result.ok())
              << "metadata flip byte " << i << " bit " << bit << " succeeded";
        } else if (result.ok()) {
          EXPECT_EQ(result->num_rows(), frame.num_rows());
        }
      }
    }
  }
}

}  // namespace
}  // namespace lafp::io
