#include "script/interpreter.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "io/columnar.h"
#include "lazy/fat_dataframe.h"
#include "optimizer/passes.h"
#include "script/analyze.h"
#include "shard/pool.h"

namespace lafp::script {
namespace {

using exec::BackendKind;
using lazy::ExecutionMode;
using lazy::Session;
using lazy::SessionOptions;

class InterpreterTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "interp_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/taxi.csv";
    std::ofstream out(csv_path_);
    out << "fare_amount,pickup_datetime,passenger_count,tip,vendor\n";
    for (int i = 0; i < 120; ++i) {
      out << ((i % 10) - 2) << ".5,"
          << "2024-01-" << (i % 28 + 1 < 10 ? "0" : "") << (i % 28 + 1)
          << " 0" << (i % 9) << ":00:00," << (i % 4 + 1) << "," << (i % 3)
          << "," << (i % 2 == 0 ? "acme" : "zoom") << "\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Run `source` and return the captured stdout.
  Result<std::string> Run(const std::string& source, bool analyze,
                          ExecutionMode mode, bool lazy_print = true,
                          bool optimizer = false) {
    SessionOptions opts;
    opts.backend = GetParam();
    opts.backend_config.partition_rows = 32;
    opts.mode = mode;
    opts.lazy_print = lazy_print;
    std::stringstream output;
    opts.output = &output;
    MemoryTracker tracker(0);
    opts.tracker = &tracker;
    Session session(opts);
    if (optimizer) opt::InstallDefaultOptimizer(&session);
    RunOptions run_opts;
    run_opts.analyze = analyze;
    LAFP_RETURN_NOT_OK(RunProgram(source, &session, run_opts));
    return output.str();
  }

  std::string Taxi() const {
    return "import lazyfatpandas.pandas as pd\n"
           "df = pd.read_csv(\"" + csv_path_ + "\")\n"
           "df = df[df.fare_amount > 0]\n"
           "df[\"day\"] = df.pickup_datetime.dt.dayofweek\n"
           "p_per_day = df.groupby([\"day\"])[\"passenger_count\"].sum()\n"
           "checksum(p_per_day)\n";
  }

  std::string dir_, csv_path_;
};

TEST(HashDoubleTest, RoundingTieHashesAlikeOneUlpApart) {
  // A mean of 48.54125 (38833 / 800), summed in one pass and in two
  // phases over partitions: the sums land a ULP either side of the
  // 6-digit tie, where "%.6g" alone prints 48.5412 and 48.5413.
  const double tie = 38833.0 / 800.0;
  const double below = std::nextafter(tie, 0.0);
  const double above = std::nextafter(tie, 100.0);
  char lo[40], hi[40];
  std::snprintf(lo, sizeof(lo), "%.6g", below);
  std::snprintf(hi, sizeof(hi), "%.6g", above);
  ASSERT_STRNE(lo, hi);
  EXPECT_EQ(HashDouble(below), HashDouble(tie));
  EXPECT_EQ(HashDouble(above), HashDouble(tie));
  // Away from ties the hash is plain "%.6g".
  EXPECT_EQ(HashDouble(2.0 / 3.0), "0.666667");
  EXPECT_EQ(HashDouble(1234567.0), "1.23457e+06");
  EXPECT_EQ(HashDouble(-0.0), "0");
}

TEST_P(InterpreterTest, TaxiProgramRunsInAllModes) {
  auto eager = Run(Taxi(), /*analyze=*/false, ExecutionMode::kEager);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  auto lazy_plain = Run(Taxi(), false, ExecutionMode::kLazy, false);
  ASSERT_TRUE(lazy_plain.ok()) << lazy_plain.status().ToString();
  auto lafp = Run(Taxi(), true, ExecutionMode::kLazy, true, true);
  ASSERT_TRUE(lafp.ok()) << lafp.status().ToString();
  // §5.2 regression methodology: identical checksums across modes.
  EXPECT_EQ(*eager, *lazy_plain);
  EXPECT_EQ(*eager, *lafp);
  EXPECT_NE(eager->find("checksum "), std::string::npos);
}

TEST_P(InterpreterTest, ArithmeticAndControlFlow) {
  std::string source =
      "x = 3\n"
      "total = 0\n"
      "while x > 0:\n"
      "    total = total + x * 2\n"
      "    x = x - 1\n"
      "if total == 12:\n"
      "    print(\"twelve\")\n"
      "else:\n"
      "    print(\"bug\")\n";
  auto out = Run(source, false, ExecutionMode::kEager);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, "twelve\n");
}

TEST_P(InterpreterTest, PaperFigure7MultiplePrints) {
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "print(df.head())\n"
      "df[\"day\"] = df.pickup_datetime.dt.dayofweek\n"
      "p_per_day = df.groupby([\"day\"])[\"passenger_count\"].sum()\n"
      "print(p_per_day)\n"
      "avg_fare = df.fare_amount.mean()\n"
      "print(f\"Average fare: {avg_fare}\")\n";
  auto out = Run(source, true, ExecutionMode::kLazy, true, true);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // All three outputs, in program order.
  size_t head_pos = out->find("fare_amount");
  size_t group_pos = out->find("day");
  size_t avg_pos = out->find("Average fare: 2.8");
  ASSERT_NE(head_pos, std::string::npos) << *out;
  ASSERT_NE(group_pos, std::string::npos) << *out;
  ASSERT_NE(avg_pos, std::string::npos) << *out;
  EXPECT_LT(head_pos, avg_pos);
}

TEST_P(InterpreterTest, PaperFigure10ExternalPlotOrdering) {
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "import matplotlib.pyplot as plt\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "print(df.head())\n"
      "df[\"day\"] = df.pickup_datetime.dt.dayofweek\n"
      "p_per_day = df.groupby([\"day\"])[\"passenger_count\"].sum()\n"
      "print(p_per_day)\n"
      "plt.plot(p_per_day)\n"
      "avg_fare = df.fare_amount.mean()\n"
      "print(f\"Average fare: {avg_fare}\")\n";
  auto out = Run(source, true, ExecutionMode::kLazy, true, true);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // §3.4: pending prints are flushed before the plot output appears, and
  // the final print after it.
  size_t head_pos = out->find("fare_amount");
  size_t plot_pos = out->find("[plt.plot:");
  size_t avg_pos = out->find("Average fare:");
  ASSERT_NE(head_pos, std::string::npos) << *out;
  ASSERT_NE(plot_pos, std::string::npos) << *out;
  ASSERT_NE(avg_pos, std::string::npos) << *out;
  EXPECT_LT(head_pos, plot_pos);
  EXPECT_LT(plot_pos, avg_pos);
}

TEST_P(InterpreterTest, MergeProgram) {
  std::string lookup = dir_ + "/vendors.csv";
  {
    std::ofstream out(lookup);
    out << "vendor,hq\nacme,NY\nzoom,SF\n";
  }
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "trips = pd.read_csv(\"" + csv_path_ + "\")\n"
      "vendors = pd.read_csv(\"" + lookup + "\")\n"
      "j = trips.merge(vendors, on=[\"vendor\"], how=\"inner\")\n"
      "out = j.groupby([\"hq\"])[\"tip\"].sum()\n"
      "checksum(out)\n";
  auto plain = Run(source, false, ExecutionMode::kEager);
  auto lafp = Run(source, true, ExecutionMode::kLazy, true, true);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(lafp.ok()) << lafp.status().ToString();
  EXPECT_EQ(*plain, *lafp);
}

TEST_P(InterpreterTest, SortAndFilterProgram) {
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "big = df[df.fare_amount > 2]\n"
      "sel = big[[\"fare_amount\", \"passenger_count\"]]\n"
      "top = sel.sort_values(by=[\"fare_amount\"], ascending=False)\n"
      "checksum(top)\n";
  auto plain = Run(source, false, ExecutionMode::kEager);
  auto lafp = Run(source, true, ExecutionMode::kLazy, true, true);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(lafp.ok()) << lafp.status().ToString();
  EXPECT_EQ(*plain, *lafp);
}

TEST_P(InterpreterTest, StringAndCategoryOps) {
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "df[\"vendor\"] = df.vendor.astype(\"category\")\n"
      "acme = df[df.vendor == \"acme\"]\n"
      "n = len(acme)\n"
      "print(f\"acme trips: {n}\")\n";
  auto out = Run(source, false, ExecutionMode::kEager);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("acme trips: 60"), std::string::npos) << *out;
}

TEST_P(InterpreterTest, ValueCountsAndUnique) {
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "counts = df.vendor.value_counts()\n"
      "checksum(counts)\n"
      "u = df.passenger_count.unique()\n"
      "n = len(u)\n"
      "print(f\"kinds: {n}\")\n";
  auto plain = Run(source, false, ExecutionMode::kEager);
  auto lafp = Run(source, true, ExecutionMode::kLazy, true, true);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(lafp.ok()) << lafp.status().ToString();
  EXPECT_EQ(*plain, *lafp);
  EXPECT_NE(plain->find("kinds: 4"), std::string::npos);
}

TEST_P(InterpreterTest, FillnaDropnaPipeline) {
  std::string gaps = dir_ + "/gaps.csv";
  {
    std::ofstream out(gaps);
    out << "a,b\n1,\n,x\n3,y\n4,z\n";
  }
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + gaps + "\")\n"
      "filled = df.fillna(0)\n"
      "checksum(filled)\n"
      "clean = df.dropna()\n"
      "n = len(clean)\n"
      "print(f\"clean: {n}\")\n";
  auto plain = Run(source, false, ExecutionMode::kEager);
  auto lafp = Run(source, true, ExecutionMode::kLazy, true, true);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(lafp.ok()) << lafp.status().ToString();
  EXPECT_EQ(*plain, *lafp);
  EXPECT_NE(plain->find("clean: 2"), std::string::npos);
}

TEST_P(InterpreterTest, ScalarFeedbackFilter) {
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "avg = df.fare_amount.mean()\n"
      "rich = df[df.fare_amount > avg]\n"
      "n = len(rich)\n"
      "print(f\"above mean: {n}\")\n";
  auto plain = Run(source, false, ExecutionMode::kEager);
  auto lafp = Run(source, true, ExecutionMode::kLazy, true, true);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(lafp.ok()) << lafp.status().ToString();
  EXPECT_EQ(*plain, *lafp);
}

TEST_P(InterpreterTest, UndefinedVariableError) {
  auto out = Run("print(ghost)\n", false, ExecutionMode::kEager);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kExecutionError);
}

TEST_P(InterpreterTest, MissingColumnSurfacesKeyError) {
  std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "x = df.no_such_column.sum()\n"
      "print(f\"{x}\")\n";
  auto out = Run(source, false, ExecutionMode::kEager);
  EXPECT_TRUE(out.status().IsKeyError()) << out.status().ToString();
}

// Keywords are read or refused, never dropped: an ignored keyword gives a
// silently wrong answer. Checked in eager mode and on LaFP.
TEST_P(InterpreterTest, HeadReadsNKeyword) {
  auto program = [&](const std::string& call) {
    return "import lazyfatpandas.pandas as pd\n"
           "df = pd.read_csv(\"" + csv_path_ + "\")\n"
           "print(df." + call + ")\n";
  };
  for (bool lafp : {false, true}) {
    const ExecutionMode mode =
        lafp ? ExecutionMode::kLazy : ExecutionMode::kEager;
    auto keyword = Run(program("head(n=3)"), lafp, mode, lafp, lafp);
    auto positional = Run(program("head(3)"), lafp, mode, lafp, lafp);
    ASSERT_TRUE(keyword.ok()) << keyword.status().ToString();
    ASSERT_TRUE(positional.ok()) << positional.status().ToString();
    EXPECT_EQ(*keyword, *positional) << (lafp ? "lafp" : "eager");
  }
}

TEST_P(InterpreterTest, UnreadKeywordFailsCleanly) {
  const std::string read =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n";
  for (bool lafp : {false, true}) {
    const ExecutionMode mode =
        lafp ? ExecutionMode::kLazy : ExecutionMode::kEager;
    auto dedup = Run(read +
                         "d = df.drop_duplicates(subset=[\"vendor\"], "
                         "keep=\"last\")\n"
                         "print(d)\n",
                     lafp, mode, lafp, lafp);
    EXPECT_TRUE(dedup.status().IsNotImplemented())
        << dedup.status().ToString();
    EXPECT_NE(dedup.status().message().find("drop_duplicates kwarg 'keep'"),
              std::string::npos)
        << dedup.status().ToString();
    auto agg = Run(read +
                       "g = df.groupby([\"vendor\"])[\"tip\"].sum("
                       "min_count=1)\n"
                       "print(g)\n",
                   lafp, mode, lafp, lafp);
    EXPECT_TRUE(agg.status().IsNotImplemented()) << agg.status().ToString();
    EXPECT_NE(agg.status().message().find("sum kwarg 'min_count'"),
              std::string::npos)
        << agg.status().ToString();
  }
}

// str.contains, pd.concat and pd.to_datetime read no keyword, so each
// one they are given is refused: dropping case=False matched only the
// exact-case rows.
TEST_P(InterpreterTest, KeywordsOfContainsConcatToDatetimeFailCleanly) {
  const std::string read =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"m = df[df.vendor.str.contains(\"ACME\", case=False)]\nprint(m)\n",
       "str.contains kwarg 'case'"},
      {"both = pd.concat([df, df], ignore_index=True)\nprint(len(both))\n",
       "pd.concat kwarg 'ignore_index'"},
      {"t = pd.to_datetime(df.pickup_datetime, dayfirst=True)\nprint(t)\n",
       "pd.to_datetime kwarg 'dayfirst'"},
  };
  for (bool lafp : {false, true}) {
    const ExecutionMode mode =
        lafp ? ExecutionMode::kLazy : ExecutionMode::kEager;
    for (const auto& [program, refusal] : cases) {
      auto out = Run(read + program, lafp, mode, lafp, lafp);
      EXPECT_TRUE(out.status().IsNotImplemented())
          << (lafp ? "lafp: " : "eager: ") << program
          << out.status().ToString();
      EXPECT_NE(out.status().message().find(refusal), std::string::npos)
          << out.status().ToString();
    }
  }
}

TEST_P(InterpreterTest, NegativeOrNonIntegerHeadFailsCleanly) {
  const std::string read =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n";
  for (bool lafp : {false, true}) {
    const ExecutionMode mode =
        lafp ? ExecutionMode::kLazy : ExecutionMode::kEager;
    auto negative = Run(read + "print(df.head(-7))\n", lafp, mode, lafp, lafp);
    EXPECT_TRUE(negative.status().IsNotImplemented())
        << negative.status().ToString();
    auto fraction = Run(read + "print(df.head(2.5))\n", lafp, mode, lafp, lafp);
    EXPECT_EQ(fraction.status().code(), StatusCode::kTypeError)
        << fraction.status().ToString();
  }
}

// A string literal may hold any byte, the control bytes included: print
// keeps its literal text apart from its values, so the bytes come out
// verbatim, in eager mode and on LaFP.
TEST_P(InterpreterTest, PrintKeepsLiteralControlBytes) {
  const std::string marker = std::string("\x01") + "0" + "\x02";
  const std::string bytes = std::string("a\x01\x02") + "b";
  const std::string read =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n";
  const std::vector<std::pair<std::string, std::string>> programs = {
      {read + "print(\"" + bytes + "\")\n", bytes + "\n"},
      {read +
       "n = len(df)\n"
       "print(\"[" + marker + "]\", n)\n",
       "[" + marker + "] 120\n"},
  };
  for (const auto& [source, want] : programs) {
    for (bool lafp : {false, true}) {
      auto out = Run(source, lafp,
                     lafp ? ExecutionMode::kLazy : ExecutionMode::kEager, lafp,
                     lafp);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_EQ(*out, want) << (lafp ? "lafp" : "eager");
    }
  }
}

// int() of a float truncates toward zero, as Python's does; NaN, an
// infinity or a value outside int64 fails cleanly instead of an undefined
// cast. An int passes through exactly.
TEST_P(InterpreterTest, IntOfFloatOutsideInt64FailsCleanly) {
  auto ok = Run("print(int(-3.7), int(2.9), int(9007199254740993))\n", false,
                ExecutionMode::kEager);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, "-3 2 9007199254740993\n");
  for (const char* arg : {"1e300", "-1e300", "9223372036854775808.0",
                          "1e300 * 1e300", "1e300 * 1e300 - 1e300 * 1e300"}) {
    auto out = Run(std::string("print(int(") + arg + "))\n", false,
                   ExecutionMode::kEager);
    EXPECT_TRUE(out.status().IsInvalid()) << arg << ": "
                                          << out.status().ToString();
  }
}

TEST_P(InterpreterTest, RewrittenProgramReadsFewerColumns) {
  // Observable effect of the §3.1 rewrite: head() after pruning shows
  // only the used columns.
  SessionOptions opts;
  opts.backend = GetParam();
  opts.mode = ExecutionMode::kLazy;
  std::stringstream output;
  opts.output = &output;
  MemoryTracker tracker(0);
  opts.tracker = &tracker;
  Session session(opts);
  RunOptions run_opts;
  run_opts.analyze = true;
  AnalyzeResult analyzed;
  ASSERT_TRUE(RunProgram(Taxi(), &session, run_opts, nullptr, &analyzed)
                  .ok());
  EXPECT_EQ(analyzed.stats.reads_pruned, 1);
  EXPECT_NE(analyzed.regenerated_source.find("usecols="),
            std::string::npos);
}

// The rewriter turns `n = len(clean)` ahead of `if n > 1:` into a hinted
// scalar compute. The branch then reads the scalar that compute left on
// its node: the compute and the final flush are the program's only two
// rounds, and the output is the eager one.
TEST_P(InterpreterTest, ComputedScalarRunsNoSecondRound) {
  const std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "clean = df[df.fare_amount > 0]\n"
      "n = len(clean)\n"
      "if n > 1:\n"
      "    print(f\"rows: {n}\")\n"
      "tips = clean.tip.sum()\n"
      "print(f\"tips: {tips}\")\n";
  auto eager = Run(source, false, ExecutionMode::kEager);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(*eager, "rows: 96\ntips: 96\n");

  SessionOptions opts;
  opts.backend = GetParam();
  opts.backend_config.partition_rows = 32;
  opts.mode = ExecutionMode::kLazy;
  std::stringstream output;
  opts.output = &output;
  MemoryTracker tracker(0);
  opts.tracker = &tracker;
  Session session(opts);
  opt::InstallDefaultOptimizer(&session);
  RunOptions run_opts;
  AnalyzeResult analyzed;
  ASSERT_TRUE(
      RunProgram(source, &session, run_opts, nullptr, &analyzed).ok());
  EXPECT_EQ(analyzed.stats.computes_inserted, 1);
  EXPECT_EQ(output.str(), *eager);
  EXPECT_EQ(session.num_rounds(), 2);
}

// Three prints and a checksum over one CSV. On LaFP Dask the round's
// prints and the checksum's compute are materialized together, so each
// range of the file is parsed once; plain Dask, whose prints force
// computation, parses the whole file for each print and for the
// checksum. Every mode prints what eager Pandas prints.
TEST_P(InterpreterTest, LazyPrintsShareOneScan) {
  const std::string source =
      "import lazyfatpandas.pandas as pd\n"
      "df = pd.read_csv(\"" + csv_path_ + "\")\n"
      "print(df.passenger_count.value_counts())\n"
      "by_vendor = df.groupby([\"vendor\"])[\"tip\"].sum()\n"
      "print(by_vendor)\n"
      "avg = df.fare_amount.mean()\n"
      "print(f\"avg: {avg}\")\n"
      "checksum(by_vendor)\n";
  auto eager = Run(source, false, ExecutionMode::kEager);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  metrics::Counter* ranges =
      metrics::Registry::Global()->GetCounter("csv.chunks");
  int64_t before = ranges->Value();
  auto lafp = Run(source, true, ExecutionMode::kLazy, true, true);
  const int64_t lafp_ranges = ranges->Value() - before;
  before = ranges->Value();
  auto plain = Run(source, false, ExecutionMode::kLazy, false);
  const int64_t plain_ranges = ranges->Value() - before;
  ASSERT_TRUE(lafp.ok()) << lafp.status().ToString();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(*lafp, *eager);
  EXPECT_EQ(*plain, *eager);
  if (GetParam() != BackendKind::kDask) return;
  // 120 rows in 32-row ranges: 4 ranges, then the end.
  EXPECT_EQ(lafp_ranges, 5);
  EXPECT_EQ(plain_ranges, 4 * 5);
}

// Partitions of one LFC reader share the footer's dictionary, so a column
// read as a category (§3.6) stays one through the gathers that
// concatenate partitions: Modin's and Dask's collect of the whole frame.
TEST(LfcCategoryTest, HintedColumnStaysCategoryOnEveryBackend) {
  const std::string dir = ::testing::TempDir() + "lfc_category_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/labels.lfc";
  {
    MemoryTracker tracker(0);
    std::vector<int64_t> ids;
    std::vector<std::string> labels;
    for (int i = 0; i < 700; ++i) {
      ids.push_back(i);
      labels.push_back(i % 3 == 0 ? "red" : (i % 3 == 1 ? "green" : "blue"));
    }
    auto frame = df::DataFrame::Make(
        {"id", "label"},
        {*df::Column::MakeInt(std::move(ids), {}, &tracker),
         *df::Column::MakeString(std::move(labels), {}, &tracker)});
    ASSERT_TRUE(frame.ok());
    io::LfcWriteOptions write;
    write.chunk_rows = 100;
    ASSERT_TRUE(io::WriteLfcFile(*frame, path, write).ok());
  }
  for (BackendKind backend :
       {BackendKind::kPandas, BackendKind::kModin, BackendKind::kDask}) {
    SessionOptions opts;
    opts.backend = backend;
    opts.mode = ExecutionMode::kLazy;
    opts.backend_config.partition_rows = 100;
    std::stringstream output;
    opts.output = &output;
    Session session(opts);
    io::LfcReadOptions read;
    read.categories = {"label"};
    auto lazy = lazy::FatDataFrame::ReadLfc(&session, path, read);
    ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
    auto eager = lazy->ToEager();
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
    ASSERT_EQ(eager->num_rows(), 700u);
    const df::Column& label = **eager->column("label");
    EXPECT_EQ(label.type(), df::DataType::kCategory)
        << exec::BackendKindName(backend);
    EXPECT_EQ(label.StringAt(699), "red");
  }
  std::filesystem::remove_all(dir);
}

// Sessions on Pandas, Modin and Dask start no worker process: the shard
// worker pool exists from the first Shard lease on. No test in this
// binary runs Shard.
TEST(NoShardTest, OtherBackendsCreateNoWorkerPool) {
  const std::string dir = ::testing::TempDir() + "no_shard_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/t.csv");
    out << "a,b\n1,2\n3,4\n";
  }
  for (BackendKind backend :
       {BackendKind::kPandas, BackendKind::kModin, BackendKind::kDask}) {
    SessionOptions opts;
    opts.backend = backend;
    opts.mode = ExecutionMode::kLazy;
    std::stringstream output;
    opts.output = &output;
    Session session(opts);
    RunOptions run_opts;
    EXPECT_TRUE(RunProgram("import lazyfatpandas.pandas as pd\n"
                           "df = pd.read_csv(\"" + dir + "/t.csv\")\n"
                           "print(len(df))\n",
                           &session, run_opts)
                    .ok());
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(shard::WorkerPool::IfCreated(), nullptr);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, InterpreterTest,
                         ::testing::Values(BackendKind::kPandas,
                                           BackendKind::kModin,
                                           BackendKind::kDask),
                         [](const auto& info) {
                           return exec::BackendKindName(info.param);
                         });

}  // namespace
}  // namespace lafp::script
