// Differential test of the hash-keyed kernels (groupby, drop_duplicates,
// unique, value_counts, nunique, merge) against the std::map reference in
// src/testing/key_reference.*, over key-hostile tablegen frames: every
// dtype as a key, nulls, NaNs of two payloads, ±0.0, strings holding
// "\x1f" and "\x02N\x03", 1-3 key columns, every AggFunc, empty and
// all-null frames.
//
// In the serial context (morsel_rows 0) the kernels must equal the
// reference bit for bit, Kahan sums included. At morsel_rows 1, 7 and
// 1024 they must give the same bits for 1, 2 and 8 threads, and match the
// reference up to the Kahan merge rounding of sums and means.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

#include "common/thread_pool.h"
#include "dataframe/kernel_context.h"
#include "dataframe/ops.h"
#include "testing/key_reference.h"
#include "testing/rng.h"
#include "testing/tablegen.h"

namespace lafp {
namespace {

using df::AggFunc;
using df::Column;
using df::DataFrame;
using df::DataType;

const std::vector<std::string> kColumns = {"i", "g", "f", "s",
                                           "s2", "c", "t", "b"};
const AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kMean,
                          AggFunc::kMin,   AggFunc::kMax, AggFunc::kNunique};
constexpr int kSeeds = 48;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// "" when `a` and `b` have the same names, dtypes, validity and values
/// (doubles by raw bits, or within relative `tolerance` when it is > 0).
std::string Diff(const DataFrame& a, const DataFrame& b,
                 double tolerance = 0.0) {
  std::ostringstream out;
  if (a.names() != b.names()) return "column names differ";
  if (a.num_rows() != b.num_rows()) {
    out << "rows " << a.num_rows() << " vs " << b.num_rows();
    return out.str();
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& x = *a.column(c);
    const Column& y = *b.column(c);
    if (x.type() != y.type()) return "dtype of " + a.names()[c] + " differs";
    for (size_t r = 0; r < x.size(); ++r) {
      bool same = x.IsValid(r) == y.IsValid(r);
      if (same && x.IsValid(r)) {
        switch (x.type()) {
          case DataType::kDouble: {
            const double u = x.DoubleAt(r);
            const double v = y.DoubleAt(r);
            same = Bits(u) == Bits(v) ||
                   (tolerance > 0 &&
                    std::fabs(u - v) <=
                        tolerance * std::max(std::fabs(u), std::fabs(v)));
            break;
          }
          case DataType::kString:
          case DataType::kCategory:
            same = x.StringAt(r) == y.StringAt(r);
            break;
          case DataType::kBool:
            same = x.BoolAt(r) == y.BoolAt(r);
            break;
          default:
            same = x.IntAt(r) == y.IntAt(r);
        }
      }
      if (!same) {
        out << a.names()[c] << " row " << r << ": " << x.ValueString(r)
            << " vs " << y.ValueString(r);
        return out.str();
      }
    }
  }
  return "";
}

DataFrame Frame(const df::ColumnPtr& col) {
  return *DataFrame::Make({"v"}, {col});
}

/// One seed's workload: a groupby, dedups, per-column unique /
/// value_counts / nunique, and inner and left merges.
struct Case {
  DataFrame frame;
  std::vector<std::string> keys;
  std::vector<df::AggSpec> aggs;
  DataFrame left, right;
  std::vector<std::string> on;
};

Case DrawCase(int seed, MemoryTracker* tracker) {
  static const int64_t kRows[] = {0, 1, 3, 17, 64, 300};
  testing::SplitMix rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL);
  const int64_t rows = kRows[seed % 6];
  const bool all_null = seed % 7 == 3;
  Case c;
  c.frame = *testing::KeyTable(seed, rows, all_null, tracker);
  std::vector<std::string> pool = kColumns;
  const size_t nkeys = 1 + rng.Below(3);
  for (size_t k = 0; k < nkeys; ++k) {
    const size_t pick = rng.Below(pool.size());
    c.keys.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<long>(pick));
  }
  int j = 0;
  for (AggFunc func : kFuncs) {
    c.aggs.push_back({kColumns[rng.Below(kColumns.size())], func,
                      "a" + std::to_string(j++)});
  }
  // Merge sides: each key slot pairs a random left column with a random
  // right column (int vs double, text vs number, bool vs int all occur).
  DataFrame right_src =
      *testing::KeyTable(seed + 7777, kRows[(seed + 2) % 6], false, tracker);
  std::vector<std::string> lnames, rnames;
  std::vector<df::ColumnPtr> lcols, rcols;
  const size_t non = 1 + rng.Below(3);
  for (size_t k = 0; k < non; ++k) {
    const std::string name = "k" + std::to_string(k);
    c.on.push_back(name);
    lnames.push_back(name);
    rnames.push_back(name);
    lcols.push_back(*c.frame.column(kColumns[rng.Below(kColumns.size())]));
    rcols.push_back(*right_src.column(kColumns[rng.Below(kColumns.size())]));
  }
  for (const char* n : {"i", "s"}) {
    lnames.push_back(n);
    lcols.push_back(*c.frame.column(n));
  }
  for (const char* n : {"i", "c", "f"}) {
    rnames.push_back(n);
    rcols.push_back(*right_src.column(n));
  }
  c.left = *DataFrame::Make(lnames, lcols);
  c.right = *DataFrame::Make(rnames, rcols);
  return c;
}

/// Every kernel output of one case, in a fixed order, under the current
/// kernel context.
std::vector<DataFrame> RunKernels(const Case& c) {
  std::vector<DataFrame> out;
  out.push_back(*df::GroupByAgg(c.frame, c.keys, c.aggs));
  out.push_back(*df::DropDuplicates(c.frame, c.keys));
  out.push_back(*df::DropDuplicates(c.frame, {}));
  for (const auto& name : kColumns) {
    const Column& col = **c.frame.column(name);
    out.push_back(Frame(*df::Unique(col)));
    out.push_back(*df::ValueCounts(col, name));
    const df::Scalar nunique = *df::Reduce(col, AggFunc::kNunique);
    out.push_back(Frame(*Column::MakeInt({nunique.int_value()}, {},
                                         c.frame.tracker())));
  }
  out.push_back(*df::Merge(c.left, c.right, c.on, df::JoinType::kInner));
  out.push_back(*df::Merge(c.left, c.right, c.on, df::JoinType::kLeft));
  return out;
}

std::vector<DataFrame> RunReference(const Case& c) {
  std::vector<DataFrame> out;
  out.push_back(*testing::ReferenceGroupByAgg(c.frame, c.keys, c.aggs));
  out.push_back(*testing::ReferenceDropDuplicates(c.frame, c.keys));
  out.push_back(*testing::ReferenceDropDuplicates(c.frame, {}));
  for (const auto& name : kColumns) {
    const Column& col = **c.frame.column(name);
    out.push_back(Frame(*testing::ReferenceUnique(col)));
    out.push_back(*testing::ReferenceValueCounts(col, name));
    out.push_back(Frame(*Column::MakeInt({testing::ReferenceNunique(col)},
                                         {}, c.frame.tracker())));
  }
  out.push_back(
      *testing::ReferenceMerge(c.left, c.right, c.on, df::JoinType::kInner));
  out.push_back(
      *testing::ReferenceMerge(c.left, c.right, c.on, df::JoinType::kLeft));
  return out;
}

std::string Describe(const Case& c, size_t output) {
  std::ostringstream out;
  out << "rows=" << c.frame.num_rows() << " keys=";
  for (const auto& k : c.keys) out << k << ",";
  out << " output #" << output;
  return out.str();
}

TEST(KeyIndexDifferentialTest, SerialMatchesReferenceBitForBit) {
  MemoryTracker tracker(0);
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = DrawCase(seed, &tracker);
    const auto got = RunKernels(c);
    const auto want = RunReference(c);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(Diff(got[i], want[i]), "") << Describe(c, i);
    }
  }
}

TEST(KeyIndexDifferentialTest, MorselsAreThreadInvariant) {
  MemoryTracker tracker(0);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Case c = DrawCase(seed, &tracker);
    const auto want = RunReference(c);
    for (size_t morsel_rows : {size_t{1}, size_t{7}, size_t{1024}}) {
      std::vector<DataFrame> serial;
      {
        df::KernelContext ctx(nullptr, 1, morsel_rows);
        df::KernelScope scope(&ctx);
        serial = RunKernels(c);
      }
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(Diff(serial[i], want[i], 1e-12), "")
            << "morsel_rows=" << morsel_rows << " " << Describe(c, i);
      }
      for (auto [threads, pool] : {std::pair{2, &pool2}, {8, &pool8}}) {
        df::KernelContext ctx(pool, threads, morsel_rows);
        df::KernelScope scope(&ctx);
        const auto got = RunKernels(c);
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(Diff(got[i], serial[i]), "")
              << "morsel_rows=" << morsel_rows << " threads=" << threads
              << " " << Describe(c, i);
        }
      }
    }
  }
}

}  // namespace
}  // namespace lafp
