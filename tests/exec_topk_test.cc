// df::TopK against its definition, Head(SortValues(frame)), on random
// frames: whole, and folded over partitions through the top_k combiner
// as Modin, Dask and Shard run it.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dataframe/kernel_context.h"
#include "dataframe/ops.h"
#include "exec/agg_twophase.h"

namespace lafp::exec {
namespace {

using df::Column;
using df::ColumnPtr;
using df::DataFrame;
using df::DataType;

/// Every cell of `got` equals `want`'s: names, types, validity, integer
/// and double bits (so -0.0 differs from 0.0), strings. `same_codes`
/// also requires equal category codes and dictionaries: the kernel's
/// result is one TakeRows of its input, as the sort's is. Without it a
/// string column may stand for a category one: df::Concat, which joins
/// the partials of every partitioned op, writes categories on different
/// dictionaries as strings.
void ExpectSameFrame(const DataFrame& got, const DataFrame& want,
                     bool same_codes, const std::string& what) {
  ASSERT_EQ(got.names(), want.names()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Column& g = *got.column(c);
    const Column& w = *want.column(c);
    if (same_codes || w.type() != DataType::kCategory ||
        g.type() != DataType::kString) {
      ASSERT_EQ(g.type(), w.type()) << what << " column " << c;
    }
    if (same_codes) {
      EXPECT_EQ(g.validity(), w.validity()) << what << " column " << c;
    }
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(g.IsValid(r), w.IsValid(r)) << what << " cell " << r;
      if (!w.IsValid(r)) continue;
      switch (w.type()) {
        case DataType::kDouble:
          ASSERT_EQ(std::bit_cast<uint64_t>(g.DoubleAt(r)),
                    std::bit_cast<uint64_t>(w.DoubleAt(r)))
              << what << " cell " << r;
          break;
        case DataType::kInt64:
        case DataType::kTimestamp:
          ASSERT_EQ(g.IntAt(r), w.IntAt(r)) << what << " cell " << r;
          break;
        case DataType::kBool:
          ASSERT_EQ(g.BoolAt(r), w.BoolAt(r)) << what << " cell " << r;
          break;
        case DataType::kString:
        case DataType::kCategory:
          ASSERT_EQ(g.StringAt(r), w.StringAt(r)) << what << " cell " << r;
          if (same_codes && w.type() == DataType::kCategory) {
            ASSERT_EQ(g.CodeAt(r), w.CodeAt(r)) << what << " cell " << r;
          }
          break;
        case DataType::kNull:
          break;
      }
    }
    if (same_codes && w.type() == DataType::kCategory) {
      EXPECT_EQ(*g.dictionary(), *w.dictionary()) << what;
    }
  }
}

class TopKTest : public ::testing::Test {
 protected:
  /// A random frame whose columns tie often: small value domains, nulls,
  /// NaN and both zeros in the doubles, a category and a string column,
  /// plus a row-id column that tells tied rows apart.
  DataFrame RandomFrame(std::mt19937_64& rng, size_t rows) {
    auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
    std::vector<uint8_t> iv(rows, 1), dv(rows, 1), sv(rows, 1), cv(rows, 1);
    std::vector<int64_t> ints(rows), ids(rows), stamps(rows);
    std::vector<double> doubles(rows);
    std::vector<std::string> strings(rows);
    std::vector<int32_t> codes(rows);
    std::vector<uint8_t> bools(rows);
    const double kDoubles[] = {-0.0, 0.0, 1.5, -2.25, 7.0,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
    const char* kStrings[] = {"", "a", "ab", "b", "Z", "zz"};
    for (size_t r = 0; r < rows; ++r) {
      ids[r] = static_cast<int64_t>(r);
      ints[r] = static_cast<int64_t>(pick(5)) - 2;
      stamps[r] = 1'600'000'000 + static_cast<int64_t>(pick(3)) * 3600;
      doubles[r] = kDoubles[pick(std::size(kDoubles))];
      strings[r] = kStrings[pick(std::size(kStrings))];
      codes[r] = static_cast<int32_t>(pick(4));
      bools[r] = pick(2);
      iv[r] = pick(6) != 0;
      dv[r] = pick(7) != 0;
      sv[r] = pick(8) != 0;
      cv[r] = pick(5) != 0;
    }
    // Dictionary order differs from string order: keys sort by value.
    auto dict = std::make_shared<df::Dictionary>(
        df::Dictionary{"pear", "apple", "fig", "Apple"});
    std::vector<ColumnPtr> cols = {
        *Column::MakeInt(std::move(ids), {}, &tracker_),
        *Column::MakeInt(std::move(ints), std::move(iv), &tracker_),
        *Column::MakeDouble(std::move(doubles), std::move(dv), &tracker_),
        *Column::MakeString(std::move(strings), std::move(sv), &tracker_),
        *Column::MakeCategory(std::move(codes), std::move(cv), dict,
                              &tracker_),
        *Column::MakeBool(std::move(bools), {}, &tracker_),
        *Column::MakeTimestamp(std::move(stamps), {}, &tracker_)};
    return *DataFrame::Make({"id", "i", "d", "s", "c", "b", "t"},
                            std::move(cols));
  }

  /// One to three distinct key columns, each ascending or descending.
  static void RandomKeys(std::mt19937_64& rng, std::vector<std::string>* by,
                         std::vector<bool>* ascending) {
    std::vector<std::string> keys = {"i", "d", "s", "c", "b", "t"};
    std::shuffle(keys.begin(), keys.end(), rng);
    by->assign(keys.begin(), keys.begin() + 1 + rng() % 3);
    ascending->clear();
    // Sometimes one flag for every key, as sort_values(ascending=False).
    const size_t flags = rng() % 3 == 0 ? 1 : by->size();
    for (size_t k = 0; k < flags; ++k) ascending->push_back(rng() % 2 == 0);
  }

  /// `frame` cut at random points into `parts` partitions, some empty.
  static std::vector<DataFrame> Split(std::mt19937_64& rng,
                                      const DataFrame& frame, size_t parts) {
    std::vector<size_t> cuts = {0, frame.num_rows()};
    for (size_t p = 1; p < parts; ++p) {
      cuts.push_back(rng() % (frame.num_rows() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    std::vector<DataFrame> out;
    for (size_t p = 0; p + 1 < cuts.size(); ++p) {
      out.push_back(*frame.SliceRows(cuts[p], cuts[p + 1] - cuts[p]));
    }
    return out;
  }

  MemoryTracker tracker_{0};
};

TEST_F(TopKTest, MatchesHeadOfSortOnWholeFrames) {
  std::mt19937_64 rng(20240611);
  // Eight threads over 7-row morsels: TakeRows gathers on the pool.
  ThreadPool pool(8);
  df::KernelContext ctx(&pool, 8, 7);
  df::KernelScope scope(&ctx);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t rows = rng() % 60;
    DataFrame frame = RandomFrame(rng, rows);
    std::vector<std::string> by;
    std::vector<bool> ascending;
    RandomKeys(rng, &by, &ascending);
    auto sorted = df::SortValues(frame, by, ascending);
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, rows, rows + 5}) {
      auto want = df::Head(*sorted, n);
      auto got = df::TopK(frame, by, ascending, n);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameFrame(*got, *want, /*same_codes=*/true,
                      "trial " + std::to_string(trial) + " n " +
                          std::to_string(n));
    }
  }
}

TEST_F(TopKTest, FoldOverPartitionsMatchesHeadOfSort) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t rows = rng() % 80;
    DataFrame frame = RandomFrame(rng, rows);
    OpDesc desc;
    desc.kind = OpKind::kTopK;
    RandomKeys(rng, &desc.columns, &desc.ascending);
    auto sorted = df::SortValues(frame, desc.columns, desc.ascending);
    ASSERT_TRUE(sorted.ok());
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, rows, rows + 5}) {
      desc.n = n;
      const size_t parts = 1 + rng() % 11;
      std::unique_ptr<Combiner> combiner = CombinerFor(desc);
      ASSERT_NE(combiner, nullptr);
      ASSERT_NE(combiner->phase_one(), nullptr);
      for (const DataFrame& part : Split(rng, frame, parts)) {
        ASSERT_TRUE(combiner->AddPartition(part).ok());
      }
      auto got = combiner->Finish();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // Concatenated partials carry categories as strings, so values
      // are compared, not codes.
      ExpectSameFrame(got->frame, *df::Head(*sorted, n), /*same_codes=*/false,
                      "trial " + std::to_string(trial) + " n " +
                          std::to_string(n) + " parts " +
                          std::to_string(parts));
    }
  }
}

TEST_F(TopKTest, RejectsWhatSortRejects) {
  std::mt19937_64 rng(1);
  DataFrame frame = RandomFrame(rng, 10);
  EXPECT_FALSE(df::TopK(frame, {}, {}, 3).ok());
  EXPECT_FALSE(df::TopK(frame, {"missing"}, {}, 3).ok());
  EXPECT_FALSE(df::TopK(frame, {"i", "d"}, {true, false, true}, 3).ok());
}

}  // namespace
}  // namespace lafp::exec
