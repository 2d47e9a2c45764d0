#include "script/rewriter.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "io/columnar.h"
#include "script/analyze.h"
#include "script/codegen.h"

namespace lafp::script {
namespace {

class RewriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "rw_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/test.csv";
    std::ofstream out(csv_path_);
    // 6 columns; programs typically use 3 (paper: 22 columns, 3 used).
    out << "fare_amount,pickup_datetime,passenger_count,tip,tolls,vendor\n";
    for (int i = 0; i < 50; ++i) {
      out << i << ",2024-01-01 08:00:00," << (i % 4) << ",1,0,"
          << (i % 2 == 0 ? "acme" : "zoom") << "\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Result<std::string> RewriteToSource(const std::string& source,
                                      RewriteOptions options = {},
                                      RewriteStats* stats = nullptr) {
    auto module = Parse(source);
    if (!module.ok()) return module.status();
    auto ir = LowerToIR(*module);
    if (!ir.ok()) return ir.status();
    auto rewritten = Rewrite(*ir, options, stats);
    if (!rewritten.ok()) return rewritten.status();
    return GenerateSource(*rewritten);
  }

  std::string TaxiProgram() const {
    return "import lazyfatpandas.pandas as pd\n"
           "df = pd.read_csv(\"" + csv_path_ + "\")\n"
           "df = df[df.fare_amount > 0]\n"
           "df[\"day\"] = df.pickup_datetime.dt.dayofweek\n"
           "p_per_day = df.groupby([\"day\"])[\"passenger_count\"].sum()\n"
           "print(p_per_day)\n";
  }

  std::string dir_, csv_path_;
};

/// Paper Figure 3 -> Figure 4: the rewritten read_csv fetches only the
/// three used columns via usecols.
TEST_F(RewriterTest, ColumnSelectionMatchesPaperFigure4) {
  RewriteStats stats;
  RewriteOptions options;
  auto source = RewriteToSource(TaxiProgram(), options, &stats);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(stats.reads_pruned, 1);
  EXPECT_NE(
      source->find("usecols=[\"fare_amount\", \"passenger_count\", "
                   "\"pickup_datetime\"]"),
      std::string::npos)
      << *source;
  EXPECT_TRUE(stats.flush_inserted);
  EXPECT_NE(source->find("pd.flush()"), std::string::npos);
}

TEST_F(RewriterTest, NoPruningWhenWholeFramePrinted) {
  RewriteStats stats;
  auto source = RewriteToSource(
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "print(df)\n",
      {}, &stats);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(stats.reads_pruned, 0);
  EXPECT_EQ(source->find("usecols"), std::string::npos);
}

TEST_F(RewriterTest, ExistingUsecolsNotOverwritten) {
  RewriteStats stats;
  auto source = RewriteToSource(
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\", usecols=[\"tip\"])\n"
      "x = df.tip.sum()\n"
      "print(f\"{x}\")\n",
      {}, &stats);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(stats.reads_pruned, 0);
}

/// Paper Figure 10 -> Figure 11: compute(live_df=[df]) inserted before
/// the external plot call.
TEST_F(RewriterTest, ForcedComputeWithLiveDfMatchesPaperFigure11) {
  RewriteStats stats;
  auto source = RewriteToSource(
      "import lazyfatpandas.pandas as pd\n"
      "import matplotlib.pyplot as plt\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "p_per_day = df.groupby([\"day\"])[\"passenger_count\"].sum()\n"
      "plt.plot(p_per_day)\n"
      "avg_fare = df.fare_amount.mean()\n"
      "print(f\"Average fare: {avg_fare}\")\n",
      {}, &stats);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(stats.computes_inserted, 1);
  EXPECT_NE(source->find("plt.plot(p_per_day.compute(live_df=[df]))"),
            std::string::npos)
      << *source;
}

TEST_F(RewriterTest, ComputeInsertionDisabled) {
  RewriteOptions options;
  options.forced_compute = false;
  RewriteStats stats;
  auto source = RewriteToSource(
      "import lazyfatpandas.pandas as pd\n"
      "import matplotlib.pyplot as plt\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "plt.plot(df)\n",
      options, &stats);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(stats.computes_inserted, 0);
  EXPECT_EQ(source->find(".compute("), std::string::npos);
}

TEST_F(RewriterTest, MetadataDtypesAddCategoryForReadOnlyLowCardinality) {
  meta::MetaStore store(dir_ + "/metastore");
  RewriteOptions options;
  options.metastore = &store;
  options.category_max_distinct = 8;
  RewriteStats stats;
  auto source = RewriteToSource(
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "out = df.groupby([\"vendor\"])[\"fare_amount\"].sum()\n"
      "print(out)\n",
      options, &stats);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(stats.dtype_hints_added, 1);
  EXPECT_GE(stats.category_columns, 1);
  // vendor: 2 distinct strings, never assigned -> category.
  EXPECT_NE(source->find("\"vendor\": \"category\""), std::string::npos)
      << *source;
}

TEST_F(RewriterTest, AssignedColumnNotCategorized) {
  meta::MetaStore store(dir_ + "/metastore");
  RewriteOptions options;
  options.metastore = &store;
  options.category_max_distinct = 8;
  RewriteStats stats;
  auto source = RewriteToSource(
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "df[\"vendor\"] = \"other\"\n"
      "out = df.groupby([\"vendor\"])[\"fare_amount\"].sum()\n"
      "print(out)\n",
      options, &stats);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  // vendor is assigned by the program: categorizing it would be unsafe
  // (§3.6); it must stay a plain string.
  EXPECT_EQ(source->find("\"vendor\": \"category\""), std::string::npos)
      << *source;
}

// §3.6 on LFC needs no metastore: the footer holds each string column's
// exact dictionary. Of the file's string columns only `vendor` is hinted:
// `city` is assigned, `name` has 100 entries (more than 64), and `tolls`
// is pruned away by usecols. The same holds for read_lfc and for a
// read_csv pointed at the converted file.
TEST_F(RewriterTest, LfcFooterHintsOnlyLiveReadOnlySmallDictionaries) {
  const std::string csv = dir_ + "/people.csv";
  {
    std::ofstream out(csv);
    out << "fare_amount,vendor,city,name,tolls\n";
    for (int i = 0; i < 100; ++i) {
      out << i << "," << (i % 2 == 0 ? "acme" : "zoom") << ",c" << i % 3
          << ",n" << i << "," << (i % 2 == 0 ? "lo" : "hi") << "\n";
    }
  }
  const std::string lfc = dir_ + "/people.lfc";
  MemoryTracker tracker(0);
  ASSERT_TRUE(io::ConvertCsvToLfc(csv, lfc, {}, {}, &tracker).ok());
  for (const std::string read : {"read_lfc", "read_csv"}) {
    RewriteStats stats;
    auto source = RewriteToSource(
        "import lazyfatpandas.pandas as pd\n"
        "df = pd." + read + "(\"" + lfc + "\")\n"
        "df[\"city\"] = \"other\"\n"
        "df = df[df.name != \"n3\"]\n"
        "out = df.groupby([\"vendor\", \"city\"])[\"fare_amount\"].sum()\n"
        "print(out)\n",
        {}, &stats);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    EXPECT_EQ(stats.reads_pruned, 1) << read;
    EXPECT_EQ(stats.dtype_hints_added, 1) << read;
    EXPECT_EQ(stats.category_columns, 1) << read;
    EXPECT_NE(source->find("dtype="), std::string::npos) << *source;
    EXPECT_NE(source->find("{\"vendor\": \"category\"}"), std::string::npos)
        << *source;
    EXPECT_EQ(source->find("\"tolls\""), std::string::npos) << *source;

    // With every column live and none assigned, both small dictionaries
    // are hinted; the unique names still are not.
    RewriteStats all_stats;
    auto all = RewriteToSource(
        "import lazyfatpandas.pandas as pd\n"
        "df = pd." + read + "(\"" + lfc + "\")\n"
        "print(df)\n",
        {}, &all_stats);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_EQ(all_stats.category_columns, 3) << *all;
    EXPECT_NE(all->find("{\"city\": \"category\", \"tolls\": "
                        "\"category\", \"vendor\": \"category\"}"),
              std::string::npos)
        << *all;

    // The option turns the rewrite off.
    RewriteOptions off;
    off.metadata_dtypes = false;
    auto none = RewriteToSource(
        "import lazyfatpandas.pandas as pd\n"
        "df = pd." + read + "(\"" + lfc + "\")\n"
        "print(df)\n",
        off);
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(none->find("category"), std::string::npos) << *none;
  }
}

TEST_F(RewriterTest, AnalyzePipelineReportsTiming) {
  AnalyzeOptions options;
  auto result = Analyze(TaxiProgram(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->analysis_seconds, 0.0);
  EXPECT_LT(result->analysis_seconds, 1.0);  // paper: 0.04-0.59s
  EXPECT_FALSE(result->regenerated_source.empty());
  EXPECT_EQ(result->stats.reads_pruned, 1);
  // The regenerated program is itself parseable (SCIRPy -> Python).
  EXPECT_TRUE(Parse(result->regenerated_source).ok());
}

TEST_F(RewriterTest, RewritePreservesControlFlow) {
  RewriteStats stats;
  auto source = RewriteToSource(
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "n = len(df)\n"
      "if n > 10:\n"
      "    x = df.tip.sum()\n"
      "else:\n"
      "    x = df.tolls.sum()\n"
      "print(f\"{x}\")\n",
      {}, &stats);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EXPECT_EQ(stats.reads_pruned, 1);
  EXPECT_NE(source->find("usecols=[\"tip\", \"tolls\"]"),
            std::string::npos)
      << *source;
  EXPECT_NE(source->find("if"), std::string::npos);
  EXPECT_NE(source->find("else:"), std::string::npos);
}

}  // namespace
}  // namespace lafp::script
