// Cross-query plan/result cache (lazy/plan_fingerprint.h,
// lazy/result_cache.h): canonical fingerprint identity, cache hit/miss
// behaviour across sessions, input-file invalidation, LRU eviction under
// a byte budget, and concurrent lookup safety.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "io/columnar.h"
#include "lazy/fat_dataframe.h"
#include "lazy/plan_fingerprint.h"
#include "lazy/result_cache.h"

namespace lafp::lazy {
namespace {

using df::CompareOp;
using df::Scalar;

class ResultCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "result_cache_test_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/taxi.csv";
    WriteCsv(100);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void WriteCsv(int rows, int fare_offset = -2) {
    std::ofstream out(csv_path_, std::ios::trunc);
    out << "fare_amount,passenger_count,tip\n";
    for (int i = 0; i < rows; ++i) {
      out << (i % 10) + fare_offset << ".5," << (i % 4 + 1) << ","
          << (i % 3) << "\n";
    }
  }

  std::unique_ptr<Session> MakeSession(
      std::shared_ptr<ResultCache> cache = nullptr) {
    auto builder = SessionOptions::Builder()
                       .tracker(&tracker_)
                       .output(&output_);
    if (cache != nullptr) builder.cache(std::move(cache));
    return std::make_unique<Session>(builder.Build());
  }

  /// read(csv)[read(csv).fare_amount > threshold] — four nodes.
  Result<FatDataFrame> FilterPlan(Session* session, double threshold) {
    LAFP_ASSIGN_OR_RETURN(FatDataFrame frame,
                          FatDataFrame::ReadCsv(session, csv_path_));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame fare, frame.Col("fare_amount"));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame mask,
                          fare.CompareTo(CompareOp::kGt,
                                         Scalar::Double(threshold)));
    return frame.FilterBy(mask);
  }

  std::string dir_, csv_path_;
  MemoryTracker tracker_{0};
  std::stringstream output_;
};

TEST_F(ResultCacheTest, FingerprintIgnoresNodeIdentity) {
  auto session = MakeSession();
  auto a = FilterPlan(session.get(), 0.0);
  auto b = FilterPlan(session.get(), 0.0);  // distinct nodes, same plan
  ASSERT_TRUE(a.ok() && b.ok());
  PlanFingerprinter fp;
  const PlanFingerprint& fa = fp.Fingerprint(a->node());
  const PlanFingerprint& fb = fp.Fingerprint(b->node());
  EXPECT_TRUE(fa.cacheable);
  EXPECT_TRUE(fb.cacheable);
  EXPECT_EQ(fa.plan_hash, fb.plan_hash);
  EXPECT_EQ(fa.input_hash, fb.input_hash);
}

TEST_F(ResultCacheTest, FingerprintNormalizesSafeRenames) {
  auto session = MakeSession();
  auto read = FatDataFrame::ReadCsv(session.get(), csv_path_);
  ASSERT_TRUE(read.ok());
  auto plain = read->Select({"fare_amount", "tip"});
  auto renamed = read->Rename({{"fare_amount", "x"}});
  ASSERT_TRUE(renamed.ok());
  auto via_rename = renamed->Select({"x", "tip"});
  ASSERT_TRUE(plain.ok() && via_rename.ok());
  PlanFingerprinter fp;
  const PlanFingerprint fa = fp.Fingerprint(plain->node());
  const PlanFingerprint fb = fp.Fingerprint(via_rename->node());
  ASSERT_TRUE(fa.cacheable);
  ASSERT_TRUE(fb.cacheable);
  // The rename is normalized away: both select canonical columns
  // (fare_amount, tip) of the same source.
  EXPECT_EQ(fa.plan_hash, fb.plan_hash);
  EXPECT_EQ(fa.input_hash, fb.input_hash);
  EXPECT_TRUE(fa.identity_names());
  EXPECT_FALSE(fb.identity_names());  // visible "x", canonical "fare_amount"
}

TEST_F(ResultCacheTest, FingerprintSensitiveToParamsAndInputOrder) {
  auto session = MakeSession();
  auto read = FatDataFrame::ReadCsv(session.get(), csv_path_);
  ASSERT_TRUE(read.ok());
  PlanFingerprinter fp;
  auto h3 = read->Head(3);
  auto h4 = read->Head(4);
  ASSERT_TRUE(h3.ok() && h4.ok());
  EXPECT_NE(fp.Fingerprint(h3->node()).plan_hash,
            fp.Fingerprint(h4->node()).plan_hash);

  auto tip = read->Col("tip");
  auto pax = read->Col("passenger_count");
  ASSERT_TRUE(tip.ok() && pax.ok());
  auto tip_minus_pax = tip->ArithCol(df::ArithOp::kSub, *pax);
  auto pax_minus_tip = pax->ArithCol(df::ArithOp::kSub, *tip);
  ASSERT_TRUE(tip_minus_pax.ok() && pax_minus_tip.ok());
  EXPECT_NE(fp.Fingerprint(tip_minus_pax->node()).plan_hash,
            fp.Fingerprint(pax_minus_tip->node()).plan_hash);

  // Thresholds that display alike ("0.0") are different plans.
  auto lo = FilterPlan(session.get(), 1e-7);
  auto hi = FilterPlan(session.get(), 4e-7);
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_NE(fp.Fingerprint(lo->node()).plan_hash,
            fp.Fingerprint(hi->node()).plan_hash);
}

TEST_F(ResultCacheTest, FileEditChangesInputHashNotPlanHash) {
  auto session = MakeSession();
  auto plan = FilterPlan(session.get(), 0.0);
  ASSERT_TRUE(plan.ok());
  PlanFingerprinter before;
  const PlanFingerprint fa = before.Fingerprint(plan->node());
  ASSERT_TRUE(fa.cacheable);
  WriteCsv(120, /*fare_offset=*/1);  // different size and content
  PlanFingerprinter after;  // file identity is memoized per instance
  const PlanFingerprint fb = after.Fingerprint(plan->node());
  ASSERT_TRUE(fb.cacheable);
  EXPECT_EQ(fa.plan_hash, fb.plan_hash);
  EXPECT_NE(fa.input_hash, fb.input_hash);
}

TEST_F(ResultCacheTest, WarmSessionHitsCacheAndSkipsExecution) {
  auto cache = std::make_shared<ResultCache>();

  auto cold = MakeSession(cache);
  auto plan1 = FilterPlan(cold.get(), 0.0);
  ASSERT_TRUE(plan1.ok());
  auto eager1 = plan1->Compute();
  ASSERT_TRUE(eager1.ok()) << eager1.status().ToString();
  const int64_t cold_execs = cold->num_node_executions();
  EXPECT_GE(cold_execs, 4);
  EXPECT_GE(cache->inserts(), 1);
  EXPECT_EQ(cache->hits(), 0);

  auto warm = MakeSession(cache);
  auto plan2 = FilterPlan(warm.get(), 0.0);
  ASSERT_TRUE(plan2.ok());
  auto eager2 = plan2->Compute();
  ASSERT_TRUE(eager2.ok()) << eager2.status().ToString();
  EXPECT_GE(cache->hits(), 1);
  EXPECT_LT(warm->num_node_executions(), cold_execs);
  EXPECT_EQ(eager2->frame.num_rows(), eager1->frame.num_rows());
  EXPECT_EQ(eager2->ToDisplayString(), eager1->ToDisplayString());
}

TEST_F(ResultCacheTest, ScalarResultsRoundTripThroughCache) {
  auto cache = std::make_shared<ResultCache>();
  auto cold = MakeSession(cache);
  auto read1 = FatDataFrame::ReadCsv(cold.get(), csv_path_);
  ASSERT_TRUE(read1.ok());
  auto sum1 = read1->Col("tip")->Sum();
  ASSERT_TRUE(sum1.ok());
  auto v1 = sum1->Value();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  auto warm = MakeSession(cache);
  auto read2 = FatDataFrame::ReadCsv(warm.get(), csv_path_);
  ASSERT_TRUE(read2.ok());
  auto sum2 = read2->Col("tip")->Sum();
  ASSERT_TRUE(sum2.ok());
  const int64_t hits_before = cache->hits();
  auto v2 = sum2->Value();
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_GT(cache->hits(), hits_before);
  EXPECT_EQ(v1->ToString(), v2->ToString());
}

TEST_F(ResultCacheTest, ParameterChangeMisses) {
  auto cache = std::make_shared<ResultCache>();
  auto cold = MakeSession(cache);
  auto plan1 = FilterPlan(cold.get(), 0.0);
  ASSERT_TRUE(plan1.ok());
  ASSERT_TRUE(plan1->Compute().ok());

  auto warm = MakeSession(cache);
  auto plan2 = FilterPlan(warm.get(), 1.0);  // different threshold
  ASSERT_TRUE(plan2.ok());
  const int64_t hits_before = cache->hits();
  auto eager2 = plan2->Compute();
  ASSERT_TRUE(eager2.ok());
  EXPECT_EQ(cache->hits(), hits_before);
  EXPECT_GT(cache->misses(), 0);
  EXPECT_EQ(eager2->frame.num_rows(), 70u);  // fares {1.5..7.5} of each 10
}

TEST_F(ResultCacheTest, FileMutationInvalidates) {
  auto cache = std::make_shared<ResultCache>();
  auto cold = MakeSession(cache);
  auto plan1 = FilterPlan(cold.get(), 0.0);
  ASSERT_TRUE(plan1.ok());
  auto eager1 = plan1->Compute();
  ASSERT_TRUE(eager1.ok());
  EXPECT_EQ(eager1->frame.num_rows(), 80u);

  WriteCsv(120, /*fare_offset=*/1);  // every fare now > 0

  auto warm = MakeSession(cache);
  auto plan2 = FilterPlan(warm.get(), 0.0);
  ASSERT_TRUE(plan2.ok());
  const int64_t hits_before = cache->hits();
  auto eager2 = plan2->Compute();
  ASSERT_TRUE(eager2.ok());
  EXPECT_EQ(cache->hits(), hits_before);  // stale entry unreachable
  EXPECT_EQ(eager2->frame.num_rows(), 120u);
}

TEST_F(ResultCacheTest, LruEvictionUnderByteBudget) {
  ResultCache::Options options;
  options.capacity_bytes = 24 << 10;  // a couple of ~8 KiB frames
  ResultCache cache(options);

  MemoryTracker tracker(0);
  auto make_frame = [&](int64_t salt) {
    std::vector<int64_t> values(1000, salt);
    auto col = df::Column::MakeInt(std::move(values), {}, &tracker);
    EXPECT_TRUE(col.ok());
    auto frame = df::DataFrame::Make({"v"}, {*col});
    EXPECT_TRUE(frame.ok());
    return exec::EagerValue::Frame(*frame);
  };

  for (int64_t i = 0; i < 6; ++i) {
    CacheKey key{/*plan_hash=*/static_cast<uint64_t>(i + 1),
                 /*input_hash=*/7};
    ASSERT_TRUE(cache.Insert(key, make_frame(i)).ok());
  }
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_LE(cache.bytes(), options.capacity_bytes);
  EXPECT_LT(cache.entries(), 6u);
  // Most-recent entry survived; the oldest was evicted.
  EXPECT_NE(cache.Lookup(CacheKey{6, 7}), nullptr);
  EXPECT_EQ(cache.Lookup(CacheKey{1, 7}), nullptr);
  // An entry larger than the whole budget is skipped, not cached.
  std::vector<int64_t> big(10000, 1);
  auto col = df::Column::MakeInt(std::move(big), {}, &tracker);
  ASSERT_TRUE(col.ok());
  auto frame = df::DataFrame::Make({"v"}, {*col});
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(
      cache.Insert(CacheKey{99, 7}, exec::EagerValue::Frame(*frame)).ok());
  EXPECT_FALSE(cache.Contains(CacheKey{99, 7}));
}

TEST_F(ResultCacheTest, ConcurrentLookupsAndInsertsAreClean) {
  ResultCache cache;
  MemoryTracker tracker(0);
  auto make_value = [&](int64_t salt) {
    std::vector<int64_t> values(64, salt);
    auto col = df::Column::MakeInt(std::move(values), {}, &tracker);
    EXPECT_TRUE(col.ok());
    auto frame = df::DataFrame::Make({"v"}, {*col});
    EXPECT_TRUE(frame.ok());
    return exec::EagerValue::Frame(*frame);
  };
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        cache.Insert(CacheKey{static_cast<uint64_t>(i), 1}, make_value(i))
            .ok());
  }
  constexpr int kThreads = 4;
  constexpr int kIters = 250;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int i = 0; i < kIters; ++i) {
        const uint64_t key = static_cast<uint64_t>((i + t) % 8);
        auto value = cache.Lookup(CacheKey{key, 1});
        if (value != nullptr) {
          EXPECT_FALSE(value->is_scalar);
          EXPECT_EQ(value->frame.num_rows(), 64u);
        }
        if (i % 50 == t) {
          EXPECT_TRUE(cache.Insert(CacheKey{key, 1}, make_value(i)).ok());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kIters);
}

TEST_F(ResultCacheTest, BuilderKnobsControlSessionCache) {
  auto plain = MakeSession();
  EXPECT_EQ(plain->result_cache(), nullptr);  // off by default

  // The session's cache setting is the instance alone: its capacity and
  // the tracker it charges are the instance's own.
  auto sized = std::make_shared<ResultCache>(
      ResultCache::Options{1 << 20, &tracker_});
  auto session = MakeSession(sized);
  ASSERT_EQ(session->result_cache(), sized);
  EXPECT_EQ(session->result_cache()->capacity_bytes(), 1u << 20);
  {
    auto plan = FilterPlan(session.get(), 0.0);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(plan->Compute().ok());
  }
  session.reset();
  ASSERT_GE(sized->inserts(), 1);
  EXPECT_GT(sized->bytes(), 0u);
  EXPECT_GT(tracker_.current(), 0);  // the cached copies only
  sized->Clear();
  EXPECT_EQ(tracker_.current(), 0);
}

// ---- LFC input fingerprints (io/fingerprint.h FingerprintInputFile) ----
//
// Regression for the CSV-only fingerprint path: native columnar inputs
// must carry their own identity (stat + footer checksum), so an edited
// LFC file invalidates cached results even when size/mtime are
// indistinguishable at stat granularity.

class LfcCacheTest : public ResultCacheTest {
 protected:
  void WriteLfc(int rows, int fare_offset = -2) {
    WriteCsv(rows, fare_offset);
    lfc_path_ = dir_ + "/taxi.lfc";
    io::LfcWriteOptions wo;
    wo.chunk_rows = 16;
    ASSERT_TRUE(io::ConvertCsvToLfc(csv_path_, lfc_path_, {}, wo, &tracker_)
                    .ok());
  }

  Result<FatDataFrame> LfcFilterPlan(Session* session, double threshold) {
    LAFP_ASSIGN_OR_RETURN(FatDataFrame frame,
                          FatDataFrame::ReadLfc(session, lfc_path_));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame fare, frame.Col("fare_amount"));
    LAFP_ASSIGN_OR_RETURN(FatDataFrame mask,
                          fare.CompareTo(CompareOp::kGt,
                                         Scalar::Double(threshold)));
    return frame.FilterBy(mask);
  }

  std::string lfc_path_;
};

TEST_F(LfcCacheTest, LfcEditChangesInputHashNotPlanHash) {
  WriteLfc(100);
  auto session = MakeSession();
  auto plan = LfcFilterPlan(session.get(), 0.0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PlanFingerprinter before;
  const PlanFingerprint fa = before.Fingerprint(plan->node());
  ASSERT_TRUE(fa.cacheable);
  // Same row count and byte size — only cell values (and therefore the
  // footer checksum) change.
  WriteLfc(100, /*fare_offset=*/1);
  PlanFingerprinter after;
  const PlanFingerprint fb = after.Fingerprint(plan->node());
  ASSERT_TRUE(fb.cacheable);
  EXPECT_EQ(fa.plan_hash, fb.plan_hash);
  EXPECT_NE(fa.input_hash, fb.input_hash);
}

TEST_F(LfcCacheTest, WarmSessionHitsCacheOverLfcScan) {
  WriteLfc(100);
  auto cache = std::make_shared<ResultCache>();
  auto cold = MakeSession(cache);
  auto plan1 = LfcFilterPlan(cold.get(), 0.0);
  ASSERT_TRUE(plan1.ok());
  auto eager1 = plan1->Compute();
  ASSERT_TRUE(eager1.ok()) << eager1.status().ToString();
  EXPECT_GE(cache->inserts(), 1);

  auto warm = MakeSession(cache);
  auto plan2 = LfcFilterPlan(warm.get(), 0.0);
  ASSERT_TRUE(plan2.ok());
  auto eager2 = plan2->Compute();
  ASSERT_TRUE(eager2.ok());
  EXPECT_GE(cache->hits(), 1);
  EXPECT_EQ(eager2->frame.num_rows(), eager1->frame.num_rows());
}

TEST_F(LfcCacheTest, LfcMutationInvalidates) {
  WriteLfc(100);
  auto cache = std::make_shared<ResultCache>();
  auto cold = MakeSession(cache);
  auto plan1 = LfcFilterPlan(cold.get(), 0.0);
  ASSERT_TRUE(plan1.ok());
  auto eager1 = plan1->Compute();
  ASSERT_TRUE(eager1.ok());
  EXPECT_EQ(eager1->frame.num_rows(), 80u);

  WriteLfc(100, /*fare_offset=*/1);  // every fare now > 0; same shape

  auto warm = MakeSession(cache);
  auto plan2 = LfcFilterPlan(warm.get(), 0.0);
  ASSERT_TRUE(plan2.ok());
  const int64_t hits_before = cache->hits();
  auto eager2 = plan2->Compute();
  ASSERT_TRUE(eager2.ok()) << eager2.status().ToString();
  EXPECT_EQ(cache->hits(), hits_before);  // stale entry unreachable
  EXPECT_EQ(eager2->frame.num_rows(), 100u);
}

}  // namespace
}  // namespace lafp::lazy
