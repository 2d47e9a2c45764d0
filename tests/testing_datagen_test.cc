// Properties the shrinker relies on: table generation is deterministic in
// the spec, truncating rows keeps the surviving prefix byte-identical,
// and dropping columns via `keep` never perturbs the surviving cells.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "testing/csv_reference.h"
#include "testing/tablegen.h"

namespace {

using lafp::testing::FuzzColumn;
using lafp::testing::SchemaForSeed;
using lafp::testing::SchemaForSpec;
using lafp::testing::TableSpec;
using lafp::testing::WriteTable;

std::string TempDir(const std::string& leaf) {
  auto dir = std::filesystem::temp_directory_path() / leaf;
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Split one CSV line on commas (generated cells never contain commas).
std::vector<std::string> SplitCells(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.push_back("");
  return cells;
}

TEST(TablegenTest, SchemaIsDeterministicAndKeyed) {
  for (uint64_t seed : {1ull, 7ull, 12345ull}) {
    std::vector<FuzzColumn> a = SchemaForSeed(seed, "t0");
    std::vector<FuzzColumn> b = SchemaForSeed(seed, "t0");
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].name, b[i].name);
      EXPECT_EQ(a[i].kind, b[i].kind);
    }
    // The shared merge key and the low-cardinality category lead.
    ASSERT_GE(a.size(), 2u);
    EXPECT_EQ(a[0].name, "key");
    EXPECT_EQ(a[1].name, "cat_t0");
  }
}

TEST(TablegenTest, WriteIsDeterministic) {
  TableSpec spec;
  spec.name = "t0";
  spec.seed = 99;
  spec.rows = 25;
  auto p1 = WriteTable(spec, TempDir("lafp_tablegen_a"));
  auto p2 = WriteTable(spec, TempDir("lafp_tablegen_b"));
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(ReadLines(*p1), ReadLines(*p2));
}

TEST(TablegenTest, RowTruncationKeepsPrefix) {
  TableSpec full;
  full.name = "t0";
  full.seed = 1234;
  full.rows = 30;
  TableSpec truncated = full;
  truncated.rows = 11;
  auto pf = WriteTable(full, TempDir("lafp_tablegen_rows_f"));
  auto pt = WriteTable(truncated, TempDir("lafp_tablegen_rows_t"));
  ASSERT_TRUE(pf.ok() && pt.ok());
  std::vector<std::string> full_lines = ReadLines(*pf);
  std::vector<std::string> trunc_lines = ReadLines(*pt);
  ASSERT_EQ(trunc_lines.size(), 12u);  // header + 11 rows
  for (size_t i = 0; i < trunc_lines.size(); ++i) {
    EXPECT_EQ(trunc_lines[i], full_lines[i]) << "line " << i;
  }
}

TEST(TablegenTest, ColumnDropKeepsSurvivingCells) {
  TableSpec full;
  full.name = "t0";
  full.seed = 77;
  full.rows = 16;
  std::vector<FuzzColumn> schema = SchemaForSeed(full.seed, full.name);
  ASSERT_GE(schema.size(), 3u);
  TableSpec pruned = full;
  pruned.keep = {schema[0].name, schema[2].name};
  ASSERT_EQ(SchemaForSpec(pruned).size(), 2u);

  auto pf = WriteTable(full, TempDir("lafp_tablegen_keep_f"));
  auto pp = WriteTable(pruned, TempDir("lafp_tablegen_keep_p"));
  ASSERT_TRUE(pf.ok() && pp.ok());
  std::vector<std::string> full_lines = ReadLines(*pf);
  std::vector<std::string> pruned_lines = ReadLines(*pp);
  ASSERT_EQ(full_lines.size(), pruned_lines.size());

  // Column index of each surviving name in the full file.
  std::vector<std::string> header = SplitCells(full_lines[0]);
  std::map<std::string, size_t> index;
  for (size_t c = 0; c < header.size(); ++c) index[header[c]] = c;
  for (size_t r = 0; r < full_lines.size(); ++r) {
    std::vector<std::string> full_cells = SplitCells(full_lines[r]);
    std::vector<std::string> pruned_cells = SplitCells(pruned_lines[r]);
    ASSERT_EQ(pruned_cells.size(), 2u) << "row " << r;
    EXPECT_EQ(pruned_cells[0], full_cells[index[schema[0].name]]);
    EXPECT_EQ(pruned_cells[1], full_cells[index[schema[2].name]]);
  }
}

TEST(TablegenTest, DirectiveRoundTrips) {
  TableSpec spec;
  spec.name = "t3";
  spec.seed = 31337;
  spec.rows = 8;
  spec.keep = {"key", "f0_t3"};
  auto parsed = TableSpec::FromDirective(spec.ToDirective());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->name, spec.name);
  EXPECT_EQ(parsed->seed, spec.seed);
  EXPECT_EQ(parsed->rows, spec.rows);
  EXPECT_EQ(parsed->keep, spec.keep);
  EXPECT_FALSE(parsed->quoted);
  spec.quoted = true;
  parsed = TableSpec::FromDirective(spec.ToDirective());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->quoted);
}

TEST(TablegenTest, QuotedDecoratesOnlyStringCells) {
  for (uint64_t seed : {3ull, 8ull, 21ull}) {
    TableSpec plain;
    plain.name = "t0";
    plain.seed = seed;
    plain.rows = 60;
    TableSpec quoted = plain;
    quoted.quoted = true;
    auto pp = WriteTable(plain, TempDir("lafp_tablegen_plain"));
    auto pq = WriteTable(quoted, TempDir("lafp_tablegen_quoted"));
    ASSERT_TRUE(pp.ok() && pq.ok());
    for (const std::string& line : ReadLines(*pp)) {
      EXPECT_EQ(line.find('"'), std::string::npos) << line;
    }
    lafp::MemoryTracker tracker(0);
    auto a = lafp::testing::ReferenceReadCsv(*pp, {}, &tracker);
    auto b = lafp::testing::ReferenceReadCsv(*pq, {}, &tracker);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->names(), b->names());
    ASSERT_EQ(a->num_rows(), 60u);
    ASSERT_EQ(b->num_rows(), 60u);
    const std::vector<FuzzColumn> schema = SchemaForSeed(seed, "t0");
    int decorated = 0;
    for (size_t c = 0; c < schema.size(); ++c) {
      for (size_t r = 0; r < 60; ++r) {
        const std::string x = a->column(c)->ValueString(r);
        const std::string y = b->column(c)->ValueString(r);
        if (schema[c].kind != 's') {
          EXPECT_EQ(x, y);
          continue;
        }
        EXPECT_TRUE(y == x || y == x + ",x" || y == x + "\nx" ||
                    y == "\"" + x + "\"")
            << x << " vs " << y;
        decorated += y != x;
      }
    }
    EXPECT_GT(decorated, 0) << "seed " << seed;
  }
}

}  // namespace
