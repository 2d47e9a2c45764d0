// Thread-count invariance suite for the morsel-driven kernel layer.
//
// The contract under test (dataframe/kernel_context.h): morsel boundaries
// are a pure function of (row count, morsel_rows) and partial merges run
// in fixed morsel order, so for a fixed morsel_rows every kernel produces
// byte-identical output for any intra-op thread count — including the
// Kahan-compensated sums, whose non-associativity would otherwise leak
// the parallel schedule into the result. A second property checked here:
// with the default morsel size (or none), results match the legacy
// sequential path bit-for-bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dataframe/kernel_context.h"
#include "dataframe/ops.h"

namespace lafp::df {
namespace {

/// Bit-exact fingerprint of a column: doubles are rendered as their raw
/// bit pattern, so 1 ulp of drift (or -0.0 vs 0.0) changes the string.
std::string Fingerprint(const Column& col) {
  std::ostringstream os;
  os << DataTypeName(col.type()) << ":" << col.size() << "[";
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsValid(i)) {
      os << "_;";
      continue;
    }
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        os << col.IntAt(i);
        break;
      case DataType::kDouble: {
        uint64_t bits = 0;
        double v = col.DoubleAt(i);
        std::memcpy(&bits, &v, sizeof(bits));
        os << std::hex << bits << std::dec;
        break;
      }
      case DataType::kBool:
        os << (col.BoolAt(i) ? "t" : "f");
        break;
      case DataType::kString:
      case DataType::kCategory:
        os << col.StringAt(i);
        break;
      case DataType::kNull:
        os << "?";
        break;
    }
    os << ";";
  }
  os << "]";
  return os.str();
}

/// Bit-exact scalar fingerprint (ToString would round doubles away).
std::string Fingerprint(const Scalar& s) {
  if (s.type() == DataType::kDouble) {
    uint64_t bits = 0;
    double v = s.double_value();
    std::memcpy(&bits, &v, sizeof(bits));
    std::ostringstream os;
    os << "d:" << std::hex << bits;
    return os.str();
  }
  return s.ToString();
}

std::string Fingerprint(const DataFrame& df) {
  std::ostringstream os;
  for (size_t c = 0; c < df.num_columns(); ++c) {
    os << df.names()[c] << "=" << Fingerprint(*df.column(c)) << "\n";
  }
  return os.str();
}

/// Runs `fn` under a KernelContext with the given thread count and morsel
/// size and returns the result's fingerprint. threads <= 1 uses no pool
/// (the serial-over-morsels path); morsel_rows == 0 disables splitting
/// entirely (the legacy path).
class InvarianceTest : public ::testing::Test {
 protected:
  template <typename Fn>
  std::string RunWith(int threads, size_t morsel_rows, Fn fn) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    KernelContext ctx(pool.get(), threads, morsel_rows);
    KernelScope scope(&ctx);
    return fn();
  }

  /// Asserts `fn`'s result is byte-identical for threads 1, 2 and 8 at
  /// each tested morsel size (including 1-row morsels), and identical to
  /// the legacy no-context run when the data fits one morsel.
  template <typename Fn>
  void CheckInvariant(Fn fn) {
    const std::string legacy = fn();  // no context installed
    for (size_t morsel_rows : {size_t{1}, size_t{7}, size_t{64},
                               KernelContext::kDefaultMorselRows}) {
      const std::string t1 = RunWith(1, morsel_rows, fn);
      for (int threads : {2, 8}) {
        EXPECT_EQ(t1, RunWith(threads, morsel_rows, fn))
            << "thread-count variance at morsel_rows=" << morsel_rows
            << " threads=" << threads;
      }
      if (morsel_rows == KernelContext::kDefaultMorselRows) {
        // All test inputs fit one default-size morsel, so this must be
        // the legacy sequential path bit-for-bit.
        EXPECT_EQ(legacy, t1) << "diverged from the legacy serial path";
      }
    }
  }

  ColumnPtr Ints(std::vector<int64_t> v, std::vector<uint8_t> validity = {}) {
    return *Column::MakeInt(std::move(v), std::move(validity), &tracker_);
  }
  ColumnPtr Doubles(std::vector<double> v,
                    std::vector<uint8_t> validity = {}) {
    return *Column::MakeDouble(std::move(v), std::move(validity), &tracker_);
  }
  ColumnPtr Strings(std::vector<std::string> v,
                    std::vector<uint8_t> validity = {}) {
    return *Column::MakeString(std::move(v), std::move(validity), &tracker_);
  }

  /// A mixed frame whose doubles include Kahan-hostile magnitude jumps
  /// (1e16 +/- 1 sequences), NaNs and nulls, sized to span many morsels
  /// at the small test morsel sizes.
  DataFrame TestFrame(size_t n) {
    std::vector<int64_t> ints(n);
    std::vector<double> dbls(n);
    std::vector<uint8_t> dvalid(n, 1);
    std::vector<std::string> strs(n);
    for (size_t i = 0; i < n; ++i) {
      ints[i] = static_cast<int64_t>(i * 37 % 101) - 50;
      switch (i % 7) {
        case 0:
          dbls[i] = 1e16;
          break;
        case 1:
          dbls[i] = 1.0;
          break;
        case 2:
          dbls[i] = -1e16;
          break;
        case 3:
          dbls[i] = 0.1 * static_cast<double>(i);
          break;
        case 4:
          dbls[i] = std::nan("");
          break;
        case 5:
          dbls[i] = 0.0;
          dvalid[i] = 0;
          break;
        default:
          dbls[i] = -3.25 * static_cast<double>(i % 13);
          break;
      }
      strs[i] = "g" + std::to_string(i % 5);
    }
    return *DataFrame::Make(
        {"i", "d", "k"},
        {Ints(std::move(ints)), Doubles(std::move(dbls), std::move(dvalid)),
         Strings(std::move(strs))});
  }

  MemoryTracker tracker_{0};
};

constexpr size_t kRows = 300;  // ~43 morsels at 7 rows, 300 at 1 row

TEST_F(InvarianceTest, FilterAndMaskToIndices) {
  DataFrame df = TestFrame(kRows);
  CheckInvariant([&] {
    ColumnPtr mask =
        *Compare(*df.column(size_t{0}), CompareOp::kGt, Scalar::Int(0));
    return Fingerprint(*Filter(df, *mask));
  });
}

TEST_F(InvarianceTest, ArithScalarAndColumns) {
  DataFrame df = TestFrame(kRows);
  CheckInvariant([&] {
    ColumnPtr a = *Arith(*df.column(size_t{1}), ArithOp::kMul,
                         Scalar::Double(1.0000001));
    ColumnPtr b = *ArithColumns(*df.column(size_t{1}), ArithOp::kAdd,
                                *df.column(size_t{0}));
    ColumnPtr c = *ArithScalarLeft(Scalar::Double(2.5), ArithOp::kSub,
                                   *df.column(size_t{1}));
    return Fingerprint(*a) + Fingerprint(*b) + Fingerprint(*c);
  });
}

TEST_F(InvarianceTest, CompareAndBoolean) {
  DataFrame df = TestFrame(kRows);
  CheckInvariant([&] {
    ColumnPtr gt =
        *Compare(*df.column(size_t{1}), CompareOp::kGe, Scalar::Double(0.0));
    ColumnPtr cc = *CompareColumns(*df.column(size_t{0}), CompareOp::kLt,
                                   *df.column(size_t{1}));
    ColumnPtr both = *BooleanAnd(*gt, *cc);
    ColumnPtr isnull = *IsNull(*df.column(size_t{1}));
    return Fingerprint(*both) + Fingerprint(*isnull);
  });
}

TEST_F(InvarianceTest, ReduceSumMeanCountWithKahanStress) {
  DataFrame df = TestFrame(kRows);
  CheckInvariant([&] {
    std::string out;
    for (AggFunc f : {AggFunc::kSum, AggFunc::kMean, AggFunc::kCount,
                      AggFunc::kMin, AggFunc::kMax}) {
      out += Fingerprint(*Reduce(*df.column(size_t{1}), f)) + "|";
      out += Fingerprint(*Reduce(*df.column(size_t{0}), f)) + "|";
    }
    return out;
  });
}

TEST_F(InvarianceTest, GroupByAggWithNullsAndKahan) {
  DataFrame df = TestFrame(kRows);
  CheckInvariant([&] {
    DataFrame out = *GroupByAgg(df, {"k"},
                                {{"d", AggFunc::kSum, "s"},
                                 {"d", AggFunc::kMean, "m"},
                                 {"d", AggFunc::kCount, "c"},
                                 {"i", AggFunc::kSum, "is"},
                                 {"k", AggFunc::kNunique, "u"}});
    return Fingerprint(out);
  });
}

TEST_F(InvarianceTest, TakeAndSort) {
  DataFrame df = TestFrame(kRows);
  CheckInvariant([&] {
    DataFrame sorted = *SortValues(df, {"k", "i"}, {true, false});
    std::vector<int64_t> idx;
    for (size_t i = 0; i < kRows; i += 3) {
      idx.push_back(static_cast<int64_t>(kRows - 1 - i));
    }
    ColumnPtr taken = *df.column(size_t{1})->Take(idx);
    return Fingerprint(sorted) + Fingerprint(*taken);
  });
}

TEST_F(InvarianceTest, JoinAfterParallelFilter) {
  DataFrame left = TestFrame(kRows);
  DataFrame right = *DataFrame::Make(
      {"k", "v"},
      {Strings({"g0", "g1", "g2", "g3"}), Ints({10, 11, 12, 13})});
  CheckInvariant([&] {
    ColumnPtr mask =
        *Compare(*left.column(size_t{0}), CompareOp::kNe, Scalar::Int(0));
    DataFrame filtered = *Filter(left, *mask);
    DataFrame joined = *Merge(filtered, right, {"k"}, JoinType::kInner);
    return Fingerprint(joined);
  });
}

TEST_F(InvarianceTest, DatetimeParseAndAccessors) {
  std::vector<std::string> dates;
  std::vector<uint8_t> valid;
  for (size_t i = 0; i < kRows; ++i) {
    if (i % 11 == 3) {
      dates.push_back("not a date");
      valid.push_back(1);
    } else if (i % 13 == 5) {
      dates.push_back("");
      valid.push_back(0);
    } else {
      dates.push_back("2021-0" + std::to_string(1 + i % 9) + "-" +
                      (i % 28 < 9 ? "0" : "") + std::to_string(1 + i % 28) +
                      " 07:3" + std::to_string(i % 10) + ":00");
      valid.push_back(1);
    }
  }
  ColumnPtr raw = Strings(std::move(dates), std::move(valid));
  CheckInvariant([&] {
    ColumnPtr ts = *ToDatetime(*raw);
    std::string out = Fingerprint(*ts);
    for (DtField f : {DtField::kYear, DtField::kMonth, DtField::kDay,
                      DtField::kDayOfWeek, DtField::kHour}) {
      out += Fingerprint(**DtAccessor(*ts, f));
    }
    return out;
  });
}

TEST_F(InvarianceTest, EmptyFrame) {
  DataFrame df = TestFrame(0);
  CheckInvariant([&] {
    ColumnPtr mask =
        *Compare(*df.column(size_t{0}), CompareOp::kGt, Scalar::Int(0));
    DataFrame filtered = *Filter(df, *mask);
    DataFrame grouped =
        *GroupByAgg(df, {"k"}, {{"d", AggFunc::kSum, "s"}});
    std::string out = Fingerprint(filtered) + Fingerprint(grouped);
    out += Fingerprint(*Reduce(*df.column(size_t{1}), AggFunc::kSum));
    return out;
  });
}

TEST_F(InvarianceTest, AllNullColumn) {
  const size_t n = 50;
  ColumnPtr nulls =
      Doubles(std::vector<double>(n, 0.0), std::vector<uint8_t>(n, 0));
  ColumnPtr keys = Strings([&] {
    std::vector<std::string> k(n);
    for (size_t i = 0; i < n; ++i) k[i] = i % 2 != 0 ? "a" : "b";
    return k;
  }());
  DataFrame df = *DataFrame::Make({"d", "k"}, {nulls, keys});
  CheckInvariant([&] {
    std::string out = Fingerprint(*Reduce(*nulls, AggFunc::kSum)) + "|" +
                      Fingerprint(*Reduce(*nulls, AggFunc::kMean)) + "|" +
                      Fingerprint(*Reduce(*nulls, AggFunc::kCount)) + "|";
    out += Fingerprint(*GroupByAgg(df, {"k"},
                                   {{"d", AggFunc::kMean, "m"},
                                    {"d", AggFunc::kMax, "mx"}}));
    out += Fingerprint(**Arith(*nulls, ArithOp::kAdd, Scalar::Double(1.0)));
    return out;
  });
}

// Sanity check on the geometry primitive itself: chunk boundaries must
// not depend on the pool or thread count.
TEST_F(InvarianceTest, MorselGeometryIgnoresThreads) {
  auto boundaries = [&](int threads) {
    return RunWith(threads, 7, [] {
      std::ostringstream os;
      Status st = RunMorsels(100, [&](size_t begin, size_t end) {
        os << begin << "-" << end << ",";  // serialized by RunWith's t=1...
        return Status::OK();
      });
      EXPECT_TRUE(st.ok());
      return os.str();
    });
  };
  // Only the single-threaded run writes to the stream race-free; derive
  // the expected geometry from it and check NumMorsels agreement instead
  // of comparing racy parallel output.
  EXPECT_EQ(boundaries(1),
            "0-7,7-14,14-21,21-28,28-35,35-42,42-49,49-56,56-63,63-70,"
            "70-77,77-84,84-91,91-98,98-100,");
  KernelContext ctx(nullptr, 1, 7);
  KernelScope scope(&ctx);
  EXPECT_EQ(NumMorsels(100), 15u);
  EXPECT_EQ(NumMorsels(0), 0u);
  EXPECT_EQ(NumMorsels(7), 1u);
  EXPECT_EQ(NumMorsels(8), 2u);
}

}  // namespace
}  // namespace lafp::df
