// Exhaustive optimizer-pass matrix over a fixed program that contains a
// target shape for every pass: duplicate mask subexpressions (dedup),
// head-of-head chains and head-of-sort (top_k) chains (redundant
// elimination) and a filter above a row-wise-invariant op (predicate
// pushdown), beside elementwise chains
// over filtered projections. Every subset of {dedup, redundant, pushdown}
// on every backend, serial and parallel, must print and checksum exactly
// what the eager reference prints.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>

#include "exec/backend.h"
#include "testing/oracle.h"
#include "testing/progen.h"
#include "testing/tablegen.h"

namespace {

using lafp::testing::CompareOutcomes;
using lafp::testing::ExecuteUnderConfig;
using lafp::testing::OracleConfig;
using lafp::testing::OracleMode;
using lafp::testing::ReferenceConfig;
using lafp::testing::RunOutcome;
using lafp::testing::SubstitutePaths;
using lafp::testing::TableSpec;
using lafp::testing::WriteTable;

class OptimizerPassMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = std::filesystem::temp_directory_path() / "lafp_pass_matrix";
    std::filesystem::create_directories(dir);
    TableSpec spec;
    spec.name = "t0";
    spec.seed = 2;  // key, cat_t0, f0_t0, f1_t0, f2_t0, s0_t0
    spec.rows = 40;
    auto path = WriteTable(spec, dir.string());
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    source_ = SubstitutePaths(
        "import lazyfatpandas.pandas as pd\n"
        "df0 = pd.read_csv(\"{t0}\")\n"
        // Duplicate mask subexpression: dedup merges the two compares.
        "v1 = df0[(df0.f0_t0 >= 0.5)]\n"
        "v2 = df0[(df0.f0_t0 >= 0.5)]\n"
        "v3 = pd.concat([v1, v2])\n"
        // head(head(x)): redundant elimination collapses the chain.
        "v4 = v3.head(12)\n"
        "v5 = v4.head(5)\n"
        // Filter above sort_values: pushdown reorders them.
        "v6 = df0.sort_values(by=[\"key\"])\n"
        "v7 = v6[(v6.key != 1)]\n"
        // head(sort_values(x)) becomes top_k, once with a second consumer
        // of the sort (the filter above), once with two keys in mixed
        // directions over ties and nulls.
        "v9 = v6.head(4)\n"
        "v10 = df0.sort_values(by=[\"f1_t0\", \"key\"], "
        "ascending=[False, True])\n"
        "v11 = v10.head(7)\n"
        "s0 = len(v3)\n"
        "s1 = v7.f1_t0.sum()\n"
        // Anonymous filter -> get_column -> elementwise chain.
        "s2 = (df0[(df0.f1_t0 < 0.75)].f0_t0 * 2.0 + 0.25).abs().sum()\n"
        // Pure series chain inside a mask (arith, arith, compare).
        "v8 = df0[(df0.f2_t0 * 2.0 + 0.25 >= 1.0)]\n"
        "print(f\"s0: {s0}\")\n"
        "print(f\"s1: {s1}\")\n"
        "print(f\"s2: {s2}\")\n"
        "checksum(v3)\n"
        "checksum(v5)\n"
        "checksum(v7)\n"
        "checksum(v8)\n"
        "print(v9)\n"
        "print(v11)\n",
        {{"t0", *path}});
    reference_ = ExecuteUnderConfig(source_, ReferenceConfig());
    ASSERT_TRUE(reference_.status.ok())
        << reference_.status.ToString();
  }

  std::string source_;
  RunOutcome reference_;
};

TEST_F(OptimizerPassMatrixTest, EveryPassSubsetMatchesReference) {
  for (auto backend :
       {lafp::exec::BackendKind::kPandas, lafp::exec::BackendKind::kModin,
        lafp::exec::BackendKind::kDask}) {
    for (unsigned mask = 0; mask < 8; ++mask) {
      for (int threads : {1, 4}) {
        OracleConfig config;
        config.backend = backend;
        config.mode = mask == 0 ? OracleMode::kLazy : OracleMode::kLafp;
        config.dedup = (mask & 1) != 0;
        config.redundant = (mask & 2) != 0;
        config.pushdown = (mask & 4) != 0;
        config.num_threads = threads;
        config.partition_rows = 16;  // several partitions per frame
        RunOutcome run = ExecuteUnderConfig(source_, config);
        std::optional<std::string> diff =
            CompareOutcomes(reference_, run, config);
        EXPECT_FALSE(diff.has_value())
            << config.Name() << ":\n"
            << (diff.has_value() ? *diff : "");
      }
    }
  }
}

}  // namespace
