// Multi-session re-entrancy: N concurrent sessions over one shared
// ResultCache, one shared scheduler pool, and one parent memory budget
// must produce byte-identical output to the same programs run serially —
// and session-scoped fault injectors must never leak into a neighbor
// session. Runs under the tsan-scheduler preset, so every shared path
// (cache LRU, pool queue, tracker chain, injector TLS) is TSan-checked.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/trace.h"
#include "lazy/fat_dataframe.h"
#include "lazy/result_cache.h"
#include "optimizer/passes.h"
#include "script/analyze.h"

namespace lafp::lazy {
namespace {

using exec::BackendKind;

class MultiSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "multi_session_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/t.csv";
    std::ofstream out(csv_path_);
    out << "a,b,c\n";
    for (int i = 0; i < 200; ++i) {
      out << i << "," << i % 7 << "," << (i * 3) % 11 << "\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// One of `n` distinct programs (different filters / aggregations so
  /// concurrent sessions do not trivially share one plan).
  std::string Program(int i) const {
    std::string src = "import lazyfatpandas.pandas as pd\n";
    src += "df = pd.read_csv(\"" + csv_path_ + "\")\n";
    src += "df = df[df.a > " + std::to_string(i * 3) + "]\n";
    src += "g = df.groupby([\"b\"])[\"c\"].sum()\n";
    src += "print(g)\n";
    src += "print(len(df))\n";
    return src;
  }

  /// Run one program in a fresh session. `shared` wires the session to a
  /// cross-session cache / pool / parent budget; null fields fall back to
  /// private ones.
  struct Shared {
    std::shared_ptr<ResultCache> cache;
    ThreadPool* scheduler_pool = nullptr;
    MemoryTracker* parent_budget = nullptr;
    std::string faults;
    CancellationToken* cancel = nullptr;
  };

  struct Outcome {
    Status status;
    std::string output;
  };

  Outcome RunOne(const std::string& source, const Shared& shared) const {
    Outcome outcome;
    // Child budget carved from the shared parent (the serve carving
    // model); generous enough that correct runs never OOM.
    MemoryTracker tracker(shared.parent_budget, 0);
    std::stringstream output;

    SessionOptions opts;
    opts.backend = BackendKind::kPandas;
    opts.tracker = &tracker;
    opts.output = &output;
    opts.mode = ExecutionMode::kLazy;
    opts.lazy_print = true;
    opts.exec.num_threads = 4;
    opts.exec.scheduler_pool = shared.scheduler_pool;
    opts.exec.cancel = shared.cancel;
    opts.fault_config = shared.faults;
    opts.cache = shared.cache;
    Session session(opts);
    opt::InstallDefaultOptimizer(&session);
    script::RunOptions run_opts;
    run_opts.analyze = true;
    outcome.status = script::RunProgram(source, &session, run_opts);
    outcome.output = output.str();
    return outcome;
  }

  std::string dir_, csv_path_;
};

TEST_F(MultiSessionTest, ConcurrentSessionsMatchSerialByteForByte) {
  constexpr int kSessions = 6;
  // Serial reference: fresh cache, no sharing.
  std::vector<std::string> expected(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    Outcome ref = RunOne(Program(i), Shared{});
    ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
    ASSERT_FALSE(ref.output.empty());
    expected[i] = ref.output;
  }

  // Concurrent: one shared cache, one shared scheduler pool, one parent
  // budget — the serve wiring. Two waves so the second wave exercises
  // warm-cache splicing under concurrency.
  auto cache = std::make_shared<ResultCache>();
  ThreadPool pool(4);
  MemoryTracker parent(1u << 30);
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<Outcome> outcomes(kSessions);
    std::vector<std::thread> threads;
    threads.reserve(kSessions);
    for (int i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        Shared shared;
        shared.cache = cache;
        shared.scheduler_pool = &pool;
        shared.parent_budget = &parent;
        outcomes[i] = RunOne(Program(i), shared);
      });
    }
    for (auto& t : threads) t.join();
    for (int i = 0; i < kSessions; ++i) {
      ASSERT_TRUE(outcomes[i].status.ok())
          << "wave " << wave << ": " << outcomes[i].status.ToString();
      EXPECT_EQ(outcomes[i].output, expected[i]) << "wave " << wave
                                                 << " session " << i;
    }
  }
  // Everything released: the parent budget drained back to zero.
  EXPECT_EQ(parent.current(), 0);
}

TEST_F(MultiSessionTest, SessionFaultConfigsStayScoped) {
  // One faulted session (every backend.execute fails, fallback off) next
  // to clean sessions on the same shared pool: the fault must hit only
  // the session that armed it.
  ThreadPool pool(4);
  constexpr int kClean = 4;
  std::vector<Outcome> clean(kClean);
  Outcome faulted;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Shared shared;
    shared.scheduler_pool = &pool;
    shared.faults = "backend.execute:nth=1,fires=-1,code=oom";
    faulted = RunOne(Program(0), shared);
  });
  for (int i = 0; i < kClean; ++i) {
    threads.emplace_back([&, i] {
      Shared shared;
      shared.scheduler_pool = &pool;
      clean[i] = RunOne(Program(i + 1), shared);
    });
  }
  for (auto& t : threads) t.join();
  // OOM never falls back, so the armed session must fail with it.
  ASSERT_FALSE(faulted.status.ok());
  EXPECT_TRUE(faulted.status.IsOutOfMemory()) << faulted.status.ToString();
  for (int i = 0; i < kClean; ++i) {
    EXPECT_TRUE(clean[i].status.ok()) << clean[i].status.ToString();
  }
}

TEST_F(MultiSessionTest, PreCancelledTokenAbortsRound) {
  CancellationToken cancel;
  cancel.Cancel();
  Shared shared;
  shared.cancel = &cancel;
  Outcome outcome = RunOne(Program(0), shared);
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsCancelled()) << outcome.status.ToString();
}

TEST_F(MultiSessionTest, ChildBudgetRejectsCleanlyAndReleasesParent) {
  MemoryTracker parent(1u << 30);
  {
    // A 1-byte child budget cannot hold the CSV columns: the run must
    // fail with OOM, not crash, and must leave nothing charged.
    MemoryTracker tracker(&parent, 1);
    std::stringstream output;
    SessionOptions opts;
    opts.backend = BackendKind::kPandas;
    opts.tracker = &tracker;
    opts.output = &output;
    opts.mode = ExecutionMode::kLazy;
    Session session(opts);
    script::RunOptions run_opts;
    run_opts.analyze = false;
    Status st = script::RunProgram(Program(0), &session, run_opts);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.IsOutOfMemory()) << st.ToString();
  }
  EXPECT_EQ(parent.current(), 0);
}

TEST_F(MultiSessionTest, GlobalCacheFirstTouchIsRaceFree) {
  // Satellite: concurrent first-touch of the LAFP_CACHE-backed shared
  // cache. The magic static must hand every thread the same instance
  // (TSan verifies the initializer does not race).
  constexpr int kThreads = 8;
  std::vector<const ResultCache*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i] { seen[i] = ResultCache::Global().get(); });
  }
  for (auto& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[i], seen[0]);
}

TEST_F(MultiSessionTest, OverlappingTracedSessionsShareTheTracer) {
  // A traced session switches the process tracer on and the last traced
  // session to end switches it off: the first of two overlapping ones
  // leaves tracing on for the other. Sessions begin and end on different
  // threads, so TSan checks the shared count.
  trace::Tracer* tracer = trace::Tracer::Global();
  ASSERT_FALSE(tracer->enabled()) << "run without LAFP_TRACE";
  std::stringstream output;
  SessionOptions opts;
  opts.mode = ExecutionMode::kLazy;
  opts.output = &output;
  opts.exec.trace = true;
  std::unique_ptr<Session> first, second;
  std::thread([&] { first = std::make_unique<Session>(opts); }).join();
  second = std::make_unique<Session>(opts);
  std::thread([&] { first.reset(); }).join();
  EXPECT_TRUE(tracer->enabled());

  const size_t before = tracer->Snapshot().size();
  script::RunOptions run_opts;
  ASSERT_TRUE(script::RunProgram(Program(0), second.get(), run_opts).ok());
  EXPECT_GT(tracer->Snapshot().size(), before);
  second.reset();
  EXPECT_FALSE(tracer->enabled());
}

}  // namespace
}  // namespace lafp::lazy
