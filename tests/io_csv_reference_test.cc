// Differential tests of the CSV reader against testing::ReferenceReadCsv,
// a char-at-a-time reader that shares no parsing code with it. Every
// read path must equal the reference cell for cell (doubles bit for bit),
// including whether each column carries a validity vector: the eager
// ReadCsv, CsvChunkReader at every chunk size, the partition ranges Modin
// and shard workers parse, and whole Pandas/Modin/Dask/Shard sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "io/csv.h"
#include "lazy/fat_dataframe.h"
#include "lazy/session.h"
#include "testing/csv_reference.h"
#include "testing/tablegen.h"

namespace lafp {
namespace {

using df::DataFrame;
using df::DataType;
using exec::BackendKind;
using io::CsvReadOptions;

bool StringLike(DataType t) {
  return t == DataType::kString || t == DataType::kCategory;
}

/// `got` equals rows [offset, offset + got.num_rows()) of `want`.
/// Partitioned sessions concatenate their partitions, which turns
/// category columns into strings, so `exact_types` may be relaxed there.
void ExpectSameCells(const DataFrame& got, const DataFrame& want,
                     size_t offset, const std::string& what,
                     bool exact_types = true) {
  ASSERT_EQ(got.names(), want.names()) << what;
  ASSERT_LE(offset + got.num_rows(), want.num_rows()) << what;
  for (size_t c = 0; c < got.num_columns(); ++c) {
    const df::Column& g = *got.column(c);
    const df::Column& w = *want.column(c);
    const std::string col = what + " column " + got.names()[c];
    if (exact_types || !StringLike(w.type())) {
      ASSERT_EQ(g.type(), w.type()) << col;
    } else {
      ASSERT_TRUE(StringLike(g.type())) << col;
    }
    bool want_nulls = false;
    for (size_t r = 0; r < g.size(); ++r) {
      const size_t wr = offset + r;
      want_nulls |= !w.IsValid(wr);
      ASSERT_EQ(g.IsValid(r), w.IsValid(wr)) << col << " row " << wr;
      if (!w.IsValid(wr)) continue;
      switch (w.type()) {
        case DataType::kDouble: {
          const double gd = g.DoubleAt(r), wd = w.DoubleAt(wr);
          ASSERT_EQ(std::memcmp(&gd, &wd, sizeof(double)), 0)
              << col << " row " << wr << ": " << gd << " vs " << wd;
          break;
        }
        case DataType::kBool:
          ASSERT_EQ(g.BoolAt(r), w.BoolAt(wr)) << col << " row " << wr;
          break;
        case DataType::kString:
        case DataType::kCategory:
          ASSERT_EQ(g.StringAt(r), w.StringAt(wr)) << col << " row " << wr;
          break;
        default:
          ASSERT_EQ(g.IntAt(r), w.IntAt(wr)) << col << " row " << wr;
      }
    }
    EXPECT_EQ(g.has_nulls(), want_nulls) << col << " validity vector";
  }
}

struct Variant {
  std::string name;
  CsvReadOptions options;
};

/// Option sets every input is read under: inference over a short prefix,
/// a row limit, one column out of several, and category hints on every
/// column the reference reads as strings.
std::vector<Variant> Variants(const std::string& path) {
  std::vector<Variant> out;
  out.push_back({"default", {}});
  Variant infer2{"infer_rows=2", {}};
  infer2.options.infer_rows = 2;
  out.push_back(infer2);
  Variant nrows{"nrows=3", {}};
  nrows.options.nrows = 3;
  out.push_back(nrows);
  MemoryTracker scratch(0);
  auto ref = testing::ReferenceReadCsv(path, {}, &scratch);
  if (!ref.ok()) return out;
  if (ref->num_columns() > 1) {
    Variant last{"usecols=last", {}};
    last.options.usecols = {ref->names().back()};
    out.push_back(last);
  }
  Variant category{"category", {}};
  for (size_t c = 0; c < ref->num_columns(); ++c) {
    if (ref->column(c)->type() == DataType::kString) {
      category.options.dtypes[ref->names()[c]] = DataType::kCategory;
    }
  }
  if (!category.options.dtypes.empty()) out.push_back(category);
  return out;
}

/// Every reader in this process against the reference: ReadCsv, and
/// CsvChunkReader at chunk sizes 1 to rows + 1 (the ranges Modin and
/// shard workers parse are these chunks).
void CheckReaders(const std::string& path, const Variant& v) {
  const std::string what = path + " [" + v.name + "]";
  MemoryTracker tracker(0);
  auto ref = testing::ReferenceReadCsv(path, v.options, &tracker);
  auto eager = io::ReadCsv(path, v.options, &tracker);
  ASSERT_EQ(eager.ok(), ref.ok())
      << what << ": " << eager.status().ToString() << " vs "
      << ref.status().ToString();
  if (!ref.ok()) return;
  ASSERT_EQ(eager->num_rows(), ref->num_rows()) << what;
  ExpectSameCells(*eager, *ref, 0, what + " ReadCsv");
  for (size_t chunk = 1; chunk <= ref->num_rows() + 1; ++chunk) {
    const std::string at = what + " chunk " + std::to_string(chunk);
    auto reader = io::CsvChunkReader::Open(path, v.options, &tracker);
    ASSERT_TRUE(reader.ok()) << at;
    size_t offset = 0;
    while (true) {
      auto next = (*reader)->NextChunk(chunk);
      ASSERT_TRUE(next.ok()) << at << ": " << next.status().ToString();
      if (!next->has_value()) break;
      ASSERT_LE((*next)->num_rows(), chunk) << at;
      ExpectSameCells(**next, *ref, offset, at);
      offset += (*next)->num_rows();
    }
    EXPECT_EQ(offset, ref->num_rows()) << at;
    if (ref->num_rows() == 0) {
      auto empty = (*reader)->EmptyFrame();
      ASSERT_TRUE(empty.ok()) << at;
      ExpectSameCells(*empty, *ref, 0, at + " empty");
    }
  }
}

/// The same read through a session on `backend` (two-row partitions).
void CheckSession(const std::string& path, const Variant& v,
                  BackendKind backend, int shards) {
  const std::string what = path + " [" + v.name + "] on backend " +
                           std::to_string(static_cast<int>(backend));
  MemoryTracker ref_tracker(0), tracker(0);
  auto ref = testing::ReferenceReadCsv(path, v.options, &ref_tracker);
  if (!ref.ok()) return;
  lazy::SessionOptions opts;
  opts.backend = backend;
  opts.tracker = &tracker;
  opts.backend_config.partition_rows = 2;
  opts.backend_config.shards = shards;
  lazy::Session session(opts);
  auto frame = lazy::FatDataFrame::ReadCsv(&session, path, v.options);
  ASSERT_TRUE(frame.ok()) << what;
  auto eager = frame->ToEager();
  ASSERT_TRUE(eager.ok()) << what << ": " << eager.status().ToString();
  ASSERT_EQ(eager->num_rows(), ref->num_rows()) << what;
  ExpectSameCells(*eager, *ref, 0, what, backend == BackendKind::kPandas);
}

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(LAFP_CSV_CORPUS_DIR)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CsvReferenceTest, CorpusMatchesEveryReader) {
  const auto files = CorpusFiles();
  ASSERT_GE(files.size(), 15u);
  for (const std::string& path : files) {
    for (const Variant& v : Variants(path)) CheckReaders(path, v);
  }
}

TEST(CsvReferenceTest, CorpusMatchesPartitionedSessions) {
  for (const std::string& path : CorpusFiles()) {
    for (const Variant& v : Variants(path)) {
      CheckSession(path, v, BackendKind::kPandas, 0);
      CheckSession(path, v, BackendKind::kModin, 0);
      CheckSession(path, v, BackendKind::kDask, 0);
      CheckSession(path, v, BackendKind::kShard, 2);
    }
  }
}

TEST(CsvReferenceTest, QuotedGeneratedTablesMatch) {
  const std::string dir = ::testing::TempDir() + "csv_reference_quoted";
  int quoted_newlines = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    testing::TableSpec spec;
    spec.name = "q" + std::to_string(seed);
    spec.seed = seed;
    spec.rows = 40;
    spec.quoted = true;
    auto path = testing::WriteTable(spec, dir);
    ASSERT_TRUE(path.ok());
    MemoryTracker tracker(0);
    auto ref = testing::ReferenceReadCsv(*path, {}, &tracker);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->num_rows(), 40u) << *path;
    for (size_t c = 0; c < ref->num_columns(); ++c) {
      const df::Column& col = *ref->column(c);
      if (col.type() != DataType::kString) continue;
      for (size_t r = 0; r < col.size(); ++r) {
        if (col.IsValid(r) && col.StringAt(r).find('\n') != std::string::npos) {
          ++quoted_newlines;
        }
      }
    }
    CheckReaders(*path, {"quoted", {}});
    CheckSession(*path, {"quoted", {}}, BackendKind::kModin, 0);
  }
  EXPECT_GT(quoted_newlines, 0);
  std::filesystem::remove_all(dir);
}

/// The writer quotes a string holding '\n'; every reader must give the
/// row count back. A line-at-a-time reader splits such rows in two.
TEST(CsvReferenceTest, QuotedNewlinesRoundTripOnEveryBackend) {
  const std::string path =
      ::testing::TempDir() + "csv_reference_newlines.csv";
  MemoryTracker tracker(0);
  std::vector<int64_t> ids;
  std::vector<std::string> notes;
  for (int i = 0; i < 102; ++i) {
    ids.push_back(i);
    notes.push_back(i % 10 == 3 ? "line " + std::to_string(i) + "\nnext"
                                : "n" + std::to_string(i));
  }
  auto frame = *DataFrame::Make(
      {"id", "note"}, {*df::Column::MakeInt(ids, {}, &tracker),
                       *df::Column::MakeString(notes, {}, &tracker)});
  ASSERT_TRUE(io::WriteCsv(frame, path).ok());

  auto back = io::ReadCsv(path, {}, &tracker);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), 102u);
  ExpectSameCells(*back, frame, 0, "ReadCsv");
  for (size_t chunk : {1, 7}) {
    auto reader = io::CsvChunkReader::Open(path, {}, &tracker);
    ASSERT_TRUE(reader.ok());
    size_t offset = 0;
    while (true) {
      auto next = (*reader)->NextChunk(chunk);
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      ExpectSameCells(**next, frame, offset, "chunk " + std::to_string(chunk));
      offset += (*next)->num_rows();
    }
    EXPECT_EQ(offset, 102u) << "chunk " << chunk;
  }
  const std::pair<BackendKind, int> backends[] = {{BackendKind::kPandas, 0},
                                                  {BackendKind::kModin, 0},
                                                  {BackendKind::kDask, 0},
                                                  {BackendKind::kShard, 2}};
  for (const auto& [backend, shards] : backends) {
    lazy::SessionOptions opts;
    opts.backend = backend;
    opts.tracker = &tracker;
    opts.backend_config.partition_rows = 7;
    opts.backend_config.shards = shards;
    lazy::Session session(opts);
    auto read = lazy::FatDataFrame::ReadCsv(&session, path);
    ASSERT_TRUE(read.ok());
    auto eager = read->ToEager();
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    ASSERT_EQ(eager->num_rows(), 102u)
        << "backend " << static_cast<int>(backend);
    ExpectSameCells(*eager, frame, 0,
                    "backend " + std::to_string(static_cast<int>(backend)));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lafp
