#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <unordered_set>

#include "exec/modin_backend.h"
#include "lazy/fat_dataframe.h"
#include "lazy/scheduler.h"
#include "optimizer/passes.h"

namespace lafp::lazy {
namespace {

using df::AggFunc;
using df::CompareOp;
using df::Scalar;
using exec::BackendKind;

class LazySchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "lazy_sched_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::create_directories(dir_);
    csv_path_ = dir_ + "/data.csv";
    std::ofstream out(csv_path_);
    out << "fare,day,passengers\n";
    for (int i = 0; i < 500; ++i) {
      out << (i % 40) - 5 << "." << (i % 10) << "," << (i % 7) << ","
          << (i % 5 + 1) << "\n";
    }
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<Session> MakeSession(int threads,
                                       std::stringstream* output,
                                       BackendKind backend =
                                           BackendKind::kPandas) {
    return std::make_unique<Session>(SessionOptions::Builder()
                                         .backend(backend)
                                         .threads(threads)
                                         .output(output)
                                         .tracker(&tracker_)
                                         .Build());
  }

  std::string dir_, csv_path_;
  MemoryTracker tracker_{0};
};

// (a) A diamond-shaped graph — one shared source feeding two branches that
// rejoin — must execute every node exactly once under parallelism.
TEST_F(LazySchedulerTest, DiamondExecutesSharedNodeOnce) {
  std::stringstream output;
  auto session = MakeSession(4, &output);
  auto df = FatDataFrame::ReadCsv(session.get(), csv_path_);
  ASSERT_TRUE(df.ok());
  auto left = df->Head(10);
  ASSERT_TRUE(left.ok());
  auto right = df->Head(20);
  ASSERT_TRUE(right.ok());
  auto joined = FatDataFrame::Concat(session.get(), {*left, *right});
  ASSERT_TRUE(joined.ok());
  auto eager = joined->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->frame.num_rows(), 30u);
  // read + head + head + concat: the shared read ran exactly once.
  EXPECT_EQ(session->num_node_executions(), 4);

  const ExecutionReport& report = session->last_report();
  EXPECT_TRUE(report.parallel);
  EXPECT_EQ(report.num_threads, 4);
  EXPECT_EQ(report.nodes_executed, 4);
  // Per-node stats are sorted and unique by node id.
  ASSERT_EQ(report.nodes.size(), 4u);
  for (size_t i = 1; i < report.nodes.size(); ++i) {
    EXPECT_LT(report.nodes[i - 1].node_id, report.nodes[i].node_id);
  }
  // The concat node saw 30 input rows and produced 30.
  const NodeStats& concat = report.nodes.back();
  EXPECT_EQ(concat.rows_in, 30);
  EXPECT_EQ(concat.rows_out, 30);
}

// (b) Lazy prints must emit in program order regardless of how many
// scheduler workers execute the (independent) chains feeding them.
TEST_F(LazySchedulerTest, LazyPrintOrderMatchesSerial) {
  auto build_and_flush = [&](int threads, std::stringstream* output) {
    auto session = MakeSession(threads, output);
    for (int chain = 0; chain < 6; ++chain) {
      auto df = FatDataFrame::ReadCsv(session.get(), csv_path_);
      ASSERT_TRUE(df.ok());
      auto fare = df->Col("fare");
      auto mask =
          fare->CompareTo(CompareOp::kGt, Scalar::Double(chain * 2.0));
      auto filtered = df->FilterBy(*mask);
      auto grouped = filtered->GroupByAgg(
          {"day"}, {{"passengers", AggFunc::kSum, "passengers"}});
      ASSERT_TRUE(grouped.ok());
      auto sorted = grouped->SortValues({"day"}, {true});
      ASSERT_TRUE(sorted.ok());
      ASSERT_TRUE(session
                      ->Print({Session::PrintArg::Literal(
                                   "chain " + std::to_string(chain) + ":"),
                               Session::PrintArg::Value(sorted->node())})
                      .ok());
      auto len = filtered->Len();
      ASSERT_TRUE(len.ok());
      ASSERT_TRUE(session
                      ->Print({Session::PrintArg::Literal("len: "),
                               Session::PrintArg::Value(len->node())})
                      .ok());
    }
    ASSERT_TRUE(session->Flush().ok());
    EXPECT_EQ(session->last_report().prints_emitted, 12);
  };

  std::stringstream serial_out, parallel_out;
  build_and_flush(1, &serial_out);
  build_and_flush(4, &parallel_out);
  EXPECT_FALSE(serial_out.str().empty());
  EXPECT_EQ(serial_out.str(), parallel_out.str());
}

// (c) Randomized wide graphs: many chains of random ops, flushed together,
// must produce byte-identical output and identical execution counts under
// num_threads ∈ {1, 4}.
TEST_F(LazySchedulerTest, RandomizedWideGraphMatchesSerialReference) {
  for (uint32_t seed : {7u, 21u, 99u}) {
    auto run = [&](int threads, std::stringstream* output,
                   ExecutionReport* report) {
      std::mt19937 rng(seed);
      auto session = MakeSession(threads, output);
      int chains = 8 + static_cast<int>(rng() % 5);
      for (int c = 0; c < chains; ++c) {
        auto df = FatDataFrame::ReadCsv(session.get(), csv_path_);
        ASSERT_TRUE(df.ok());
        FatDataFrame cur = *df;
        // After a groupby the frame's columns become {day, p}; the
        // generator tracks that so every program is valid.
        bool aggregated = false;
        int depth = 1 + static_cast<int>(rng() % 4);
        for (int d = 0; d < depth; ++d) {
          switch (rng() % 4) {
            case 0: {
              auto col = cur.Col(aggregated ? "day" : "fare");
              ASSERT_TRUE(col.ok());
              double threshold =
                  aggregated ? static_cast<double>(rng() % 5)
                             : static_cast<double>(rng() % 20) - 5.0;
              auto mask =
                  col->CompareTo(CompareOp::kGt, Scalar::Double(threshold));
              ASSERT_TRUE(mask.ok());
              auto next = cur.FilterBy(*mask);
              ASSERT_TRUE(next.ok());
              cur = *next;
              break;
            }
            case 1: {
              auto next = cur.Head(10 + rng() % 200);
              ASSERT_TRUE(next.ok());
              cur = *next;
              break;
            }
            case 2: {
              auto next = cur.SortValues({aggregated ? "day" : "fare"},
                                         {rng() % 2 == 0});
              ASSERT_TRUE(next.ok());
              cur = *next;
              break;
            }
            default: {
              auto next = cur.GroupByAgg(
                  {"day"},
                  {{aggregated ? "p" : "passengers", AggFunc::kSum, "p"}});
              ASSERT_TRUE(next.ok());
              auto sorted = next->SortValues({"day"}, {true});
              ASSERT_TRUE(sorted.ok());
              cur = *sorted;
              aggregated = true;
              break;
            }
          }
        }
        ASSERT_TRUE(session
                        ->Print({Session::PrintArg::Literal(
                                     "c" + std::to_string(c) + " "),
                                 Session::PrintArg::Value(cur.node())})
                        .ok());
      }
      ASSERT_TRUE(session->Flush().ok());
      *report = session->last_report();
    };

    std::stringstream serial_out, parallel_out;
    ExecutionReport serial_report, parallel_report;
    run(1, &serial_out, &serial_report);
    run(4, &parallel_out, &parallel_report);
    EXPECT_FALSE(serial_out.str().empty());
    EXPECT_EQ(serial_out.str(), parallel_out.str()) << "seed " << seed;
    EXPECT_EQ(serial_report.nodes_executed, parallel_report.nodes_executed)
        << "seed " << seed;
    EXPECT_EQ(serial_report.results_cleared, parallel_report.results_cleared)
        << "seed " << seed;
    EXPECT_EQ(serial_report.total_rows_out(),
              parallel_report.total_rows_out())
        << "seed " << seed;
    EXPECT_TRUE(parallel_report.parallel);
    EXPECT_FALSE(serial_report.parallel);
  }
}

// Errors from worker threads must surface as the round's status without
// hanging or executing dependents of the failed node.
TEST_F(LazySchedulerTest, ParallelErrorPropagates) {
  std::stringstream output;
  auto session = MakeSession(4, &output);
  auto df = FatDataFrame::ReadCsv(session.get(), csv_path_);
  ASSERT_TRUE(df.ok());
  auto bogus = df->Col("no_such_column");
  ASSERT_TRUE(bogus.ok());  // graph building is lazy; failure is at exec
  auto head = bogus->Head(3);
  ASSERT_TRUE(head.ok());
  auto eager = head->Compute();
  EXPECT_FALSE(eager.ok());
}

/// Runs read + two heads + concat, a round with independent nodes.
void RunDiamond(Session* session, const std::string& csv_path) {
  auto df = FatDataFrame::ReadCsv(session, csv_path);
  ASSERT_TRUE(df.ok());
  auto joined = FatDataFrame::Concat(session, {*df->Head(10), *df->Head(20)});
  ASSERT_TRUE(joined.ok());
  auto eager = joined->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_EQ(eager->frame.num_rows(), 30u);
}

int ModinWorkers(Session* session) {
  auto* modin = dynamic_cast<exec::ModinBackend*>(session->backend());
  return modin != nullptr ? modin->workers() : -1;
}

// SessionOptions{} means 4 scheduler threads and 4 Modin workers, kernels
// in one morsel, from ExecutionOptions' own defaults.
TEST_F(LazySchedulerTest, DefaultOptionsRunFourThreads) {
  std::stringstream output;
  SessionOptions opts;
  opts.output = &output;
  opts.tracker = &tracker_;
  Session pandas(opts);
  RunDiamond(&pandas, csv_path_);
  EXPECT_TRUE(pandas.last_report().parallel);
  EXPECT_EQ(pandas.last_report().num_threads, 4);
  EXPECT_EQ(pandas.backend()->exec_options().intra_op_threads, 0);
  EXPECT_EQ(pandas.backend()->exec_options().morsel_rows, 65536u);
  EXPECT_EQ(pandas.last_report().parallel_kernels, 0);

  opts.backend = BackendKind::kModin;
  Session modin(opts);
  EXPECT_EQ(ModinWorkers(&modin), 4);
}

// The one thread knob: Builder().threads(n) reaches both the scheduler and
// the Modin partition pool; a count below 1 reads as 1 (serial).
TEST_F(LazySchedulerTest, BuilderUnifiesThreadKnobs) {
  std::stringstream output;
  auto session = MakeSession(3, &output, BackendKind::kModin);
  EXPECT_EQ(ModinWorkers(session.get()), 3);
  RunDiamond(session.get(), csv_path_);
  EXPECT_TRUE(session->last_report().parallel);
  EXPECT_EQ(session->last_report().num_threads, 3);

  for (int threads : {0, -2}) {
    auto serial = MakeSession(threads, &output, BackendKind::kModin);
    EXPECT_EQ(serial->options().exec.num_threads, 1);
    EXPECT_EQ(ModinWorkers(serial.get()), 1);
    RunDiamond(serial.get(), csv_path_);
    EXPECT_FALSE(serial->last_report().parallel);
    EXPECT_EQ(serial->last_report().num_threads, 1);
  }
}

// End-to-end intra-op parallelism: the builder knob reaches the backend
// config, kernel morsels engage (forced small via morsel_rows), results
// match a serial session byte-for-byte, and the report carries kernel
// counters.
TEST_F(LazySchedulerTest, IntraOpThreadsProduceIdenticalResultsAndStats) {
  auto run = [&](int intra_threads, size_t morsel_rows,
                 ExecutionReport* report) {
    std::stringstream output;
    auto session = std::make_unique<Session>(SessionOptions::Builder()
                                                 .threads(1)
                                                 .intra_op_threads(intra_threads)
                                                 .morsel_rows(morsel_rows)
                                                 .output(&output)
                                                 .tracker(&tracker_)
                                                 .Build());
    EXPECT_EQ(session->backend()->exec_options().intra_op_threads,
              intra_threads);
    EXPECT_EQ(session->backend()->exec_options().morsel_rows, morsel_rows);
    auto df = FatDataFrame::ReadCsv(session.get(), csv_path_);
    auto fare = *df->Col("fare");
    auto mask = *fare.CompareTo(CompareOp::kGt, Scalar::Double(0.0));
    auto filtered = *df->FilterBy(mask);
    auto grouped = *filtered.GroupByAgg(
        {"day"}, {{"fare", AggFunc::kSum, "total"},
                  {"fare", AggFunc::kMean, "avg"}});
    auto sorted = *grouped.SortValues({"day"}, {true});
    df::DataFrame result = *sorted.ToEager();
    if (report != nullptr) *report = session->last_report();
    std::ostringstream os;
    for (size_t c = 0; c < result.num_columns(); ++c) {
      const df::Column& col = *result.column(c);
      for (size_t i = 0; i < col.size(); ++i) {
        if (col.type() == df::DataType::kDouble) {
          uint64_t bits = 0;
          double v = col.DoubleAt(i);
          std::memcpy(&bits, &v, sizeof(bits));
          os << bits << ";";
        } else {
          os << (col.IsValid(i) ? std::to_string(col.IntAt(i)) : "_") << ";";
        }
      }
    }
    return os.str();
  };
  ExecutionReport serial_report, parallel_report;
  std::string serial = run(1, 64, &serial_report);
  std::string parallel = run(4, 64, &parallel_report);
  EXPECT_EQ(serial, parallel);  // bit-identical across thread counts
  // 500 rows at 64-row morsels => every kernel splits; counters flow
  // through NodeStats into the round report.
  EXPECT_GT(parallel_report.kernel_morsels, 0);
  EXPECT_GT(parallel_report.parallel_kernels, 0);
  EXPECT_EQ(serial_report.parallel_kernels, 0);  // no pool at 1 thread
  bool node_has_kernel_stats = false;
  for (const auto& n : parallel_report.nodes) {
    if (n.morsels > 0) node_has_kernel_stats = true;
  }
  EXPECT_TRUE(node_has_kernel_stats);
}

// Dask (lazy backend) rounds stay on the deterministic serial path even
// when the session asks for parallelism.
TEST_F(LazySchedulerTest, LazyBackendSchedulesSerially) {
  std::stringstream output;
  auto session = MakeSession(4, &output, BackendKind::kDask);
  auto df = FatDataFrame::ReadCsv(session.get(), csv_path_);
  ASSERT_TRUE(df.ok());
  auto head = df->Head(5);
  ASSERT_TRUE(head.ok());
  auto eager = head->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_FALSE(session->last_report().parallel);
  EXPECT_EQ(session->last_report().num_threads, 1);
}

// Named optimizer passes show up in the round report, in order, and the
// registry supports replacing the whole pipeline.
TEST_F(LazySchedulerTest, OptimizerPassRegistry) {
  std::stringstream output;
  auto session = MakeSession(2, &output);
  opt::InstallDefaultOptimizer(session.get());
  ASSERT_EQ(session->optimizer_passes().size(), 5u);

  auto df = FatDataFrame::ReadCsv(session.get(), csv_path_);
  ASSERT_TRUE(df.ok());
  auto a = df->Head(7);
  auto b = df->Head(7);  // structural duplicate; dedup should merge
  auto joined = FatDataFrame::Concat(session.get(), {*a, *b});
  ASSERT_TRUE(joined.ok());
  auto eager = joined->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  const ExecutionReport& report = session->last_report();
  ASSERT_EQ(report.passes.size(), 5u);
  EXPECT_EQ(report.passes[0].name, "dedup");
  EXPECT_EQ(report.passes[1].name, "redundant-elim");
  EXPECT_EQ(report.passes[2].name, "pushdown");
  EXPECT_EQ(report.passes[3].name, "zone-prune");
  EXPECT_EQ(report.passes[4].name, "dedup-final");
  // Dedup merged the duplicate head: read + head + concat only.
  EXPECT_EQ(report.nodes_executed, 3);

  // Clearing and registering a function pass replaces the pipeline.
  int hook_runs = 0;
  session->ClearOptimizerPasses();
  session->RegisterOptimizerPass(MakeFunctionPass(
      "custom-hook",
      [&hook_runs](Session*, const std::vector<TaskNodePtr>&,
                   const std::vector<TaskNodePtr>&) {
        ++hook_runs;
        return Status::OK();
      }));
  ASSERT_EQ(session->optimizer_passes().size(), 1u);
  EXPECT_EQ(session->optimizer_passes()[0]->name(), "custom-hook");
  auto head2 = df->Head(3);
  ASSERT_TRUE(head2.ok());
  ASSERT_TRUE(head2->Compute().ok());
  EXPECT_EQ(hook_runs, 1);
  EXPECT_EQ(session->last_report().passes.size(), 1u);

  session->ClearOptimizerPasses();
  EXPECT_TRUE(session->optimizer_passes().empty());
}

// Reused results are visible in the stats so tests can prove §3.5 reuse
// instead of inferring it from execution counts.
TEST_F(LazySchedulerTest, ReportMarksReusedNodes) {
  std::stringstream output;
  auto session = MakeSession(4, &output);
  auto df = FatDataFrame::ReadCsv(session.get(), csv_path_);
  ASSERT_TRUE(df.ok());
  auto head = df->Head(10);
  ASSERT_TRUE(head.ok());
  // First compute materializes; persist-marking via live set keeps the
  // head result alive for the second round.
  ASSERT_TRUE(head->Compute({*head}).ok());
  auto sorted = head->SortValues({"fare"}, {true});
  ASSERT_TRUE(sorted.ok());
  ASSERT_TRUE(sorted->Compute().ok());
  const ExecutionReport& report = session->last_report();
  EXPECT_GT(report.nodes_reused, 0);
  bool saw_reused = false;
  for (const auto& n : report.nodes) saw_reused |= n.reused;
  EXPECT_TRUE(saw_reused);
}

// ---- cooperative cancellation (drive the Scheduler directly) ----

/// Harness over a raw TaskGraph: every node "executes" by storing a
/// scalar; nodes listed in `bombs` fail instead. Execution order and
/// counts are observable through the atomic counter and per-node
/// `executed` flags.
class CancellationHarness {
 public:
  TaskNodePtr Node(std::vector<TaskNodePtr> inputs) {
    return graph_.NewNode(exec::OpDesc{}, std::move(inputs));
  }

  TaskNodePtr Chain(TaskNodePtr from, int length) {
    for (int i = 0; i < length; ++i) {
      from = Node(from == nullptr ? std::vector<TaskNodePtr>{}
                                  : std::vector<TaskNodePtr>{from});
    }
    return from;
  }

  void Arm(const TaskNodePtr& bomb) { bombs_.insert(bomb.get()); }

  Scheduler::Callbacks Callbacks() {
    Scheduler::Callbacks cb;
    cb.exec_node = [this](const TaskNodePtr& node, NodeStats*) -> Status {
      if (bombs_.count(node.get()) > 0) {
        return Status::ExecutionError("boom");
      }
      executions_.fetch_add(1);
      node->result = exec::BackendValue::FromScalar(df::Scalar::Int(1));
      node->executed = true;
      return Status::OK();
    };
    cb.emit_print = [](const TaskNodePtr&, NodeStats*) {
      return Status::OK();
    };
    return cb;
  }

  int executions() const { return executions_.load(); }

 private:
  TaskGraph graph_;
  std::unordered_set<const TaskNode*> bombs_;
  std::atomic<int> executions_{0};
};

TEST(SchedulerCancellationTest, ParallelFailureCancelsPendingWork) {
  CancellationHarness h;
  // One failing source whose 10 dependents can never run, plus three
  // independent 10-node chains that may be in flight when it fails.
  TaskNodePtr bomb = h.Node({});
  h.Arm(bomb);
  TaskNodePtr doomed_tail = h.Chain(bomb, 10);
  std::vector<TaskNodePtr> roots = {doomed_tail};
  for (int i = 0; i < 3; ++i) roots.push_back(h.Chain(nullptr, 10));
  const int64_t runnable = 41;  // 1 bomb + 10 doomed + 3x10 independent

  ThreadPool pool(4);
  CancellationToken token;
  Scheduler::Options options;
  options.num_threads = 4;
  options.cancel = &token;
  Scheduler scheduler(&pool, options, h.Callbacks());
  ExecutionReport report;
  Status status = scheduler.Run(roots, &report);

  // Root cause propagates, the token trips, and the accounting closes:
  // every runnable node either executed, failed, or was cancelled.
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "boom");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(report.nodes_executed + report.nodes_cancelled + 1, runnable);
  EXPECT_EQ(report.nodes_executed, h.executions());
  // Nothing downstream of the failure ever ran.
  for (TaskNodePtr n = doomed_tail; n != bomb; n = n->inputs[0]) {
    EXPECT_FALSE(n->executed);
  }
  EXPECT_GE(report.nodes_cancelled, 10);
}

TEST(SchedulerCancellationTest, SerialErrorShortCircuits) {
  CancellationHarness h;
  TaskNodePtr pre = h.Chain(nullptr, 3);
  TaskNodePtr bomb = h.Node({pre});
  h.Arm(bomb);
  TaskNodePtr post = h.Chain(bomb, 4);
  TaskNodePtr independent = h.Chain(nullptr, 5);

  CancellationToken token;
  Scheduler::Options options;
  options.num_threads = 1;
  options.cancel = &token;
  Scheduler scheduler(nullptr, options, h.Callbacks());
  ExecutionReport report;
  Status status = scheduler.Run({post, independent}, &report);

  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "boom");
  EXPECT_TRUE(token.cancelled());
  // Serial topo order: only the bomb's 3 ancestors can have executed
  // before it; the 4 nodes after it plus whatever of the independent
  // chain had not run yet are all cancelled.
  EXPECT_EQ(report.nodes_executed, h.executions());
  EXPECT_EQ(report.nodes_executed + report.nodes_cancelled + 1, 13);
  for (TaskNodePtr n = post; n != bomb; n = n->inputs[0]) {
    EXPECT_FALSE(n->executed);
  }
}

TEST(SchedulerCancellationTest, PreCancelledTokenRunsNothing) {
  for (int threads : {1, 4}) {
    CancellationHarness h;
    TaskNodePtr tail = h.Chain(nullptr, 6);
    CancellationToken token;
    token.Cancel();
    ThreadPool pool(threads);
    Scheduler::Options options;
    options.num_threads = threads;
    options.cancel = &token;
    Scheduler scheduler(threads > 1 ? &pool : nullptr, options,
                        h.Callbacks());
    ExecutionReport report;
    Status status = scheduler.Run({tail}, &report);
    EXPECT_TRUE(status.IsCancelled()) << status.ToString();
    EXPECT_EQ(h.executions(), 0);
    EXPECT_EQ(report.nodes_cancelled, 6);
    EXPECT_EQ(report.nodes_executed, 0);
  }
}

TEST(SchedulerCancellationTest, SessionRoundReportsCancelledNodes) {
  // End-to-end: a session round over a real program where one node fails
  // (injected backend fault, fallback disabled) must report the
  // cancellation accounting, not just the error.
  std::string dir = ::testing::TempDir() + "sched_cancel_e2e";
  std::filesystem::create_directories(dir);
  std::string csv = dir + "/d.csv";
  {
    std::ofstream out(csv);
    out << "a,b\n";
    for (int i = 0; i < 100; ++i) out << i << "," << i % 7 << "\n";
  }
  MemoryTracker tracker(0);
  std::stringstream output;
  Session session(SessionOptions::Builder()
                      .threads(4)
                      .tracker(&tracker)
                      .output(&output)
                      .graceful_fallback(false)
                      .faults("backend.execute:nth=2,code=exec")
                      .Build());
  auto df = FatDataFrame::ReadCsv(&session, csv);
  ASSERT_TRUE(df.ok());
  auto head = df->Head(10);
  ASSERT_TRUE(head.ok());
  auto sorted = head->SortValues({"a"}, {true});
  ASSERT_TRUE(sorted.ok());
  auto eager = sorted->Compute();
  ASSERT_FALSE(eager.ok());
  EXPECT_TRUE(eager.status().IsExecutionError()) << eager.status().ToString();
  // Three runnable nodes (read, head, sort); the injected fault fails the
  // second, so the third is cancelled: executed + cancelled + 1 failure.
  const ExecutionReport& report = session.last_report();
  EXPECT_EQ(report.nodes_executed, 1);
  EXPECT_EQ(report.nodes_cancelled, 1);
  std::filesystem::remove_all(dir);
}

// A frame used as both sides of a self-merge is one upstream input:
// rows_in counts each distinct input result once, not per edge.
TEST_F(LazySchedulerTest, SelfMergeCountsInputRowsOnce) {
  std::stringstream output;
  auto session = MakeSession(1, &output);
  auto df = FatDataFrame::ReadCsv(session.get(), csv_path_);
  ASSERT_TRUE(df.ok());
  auto keys = df->Select({"day", "passengers"});
  ASSERT_TRUE(keys.ok());
  auto joined = keys->Merge(*keys, {"day"}, df::JoinType::kInner);
  ASSERT_TRUE(joined.ok());
  auto eager = joined->Compute();
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();

  const ExecutionReport& report = session->last_report();
  bool found_merge = false;
  for (const auto& n : report.nodes) {
    if (n.op.find("merge") == std::string::npos) continue;
    found_merge = true;
    // 500 input rows, not 1000 (both edges reach the same select node).
    EXPECT_EQ(n.rows_in, 500);
  }
  EXPECT_TRUE(found_merge);
}

// ExecutionReport::peak_tracked_bytes is the round's own high-water mark,
// not the process-lifetime MemoryTracker peak: a small second round must
// report a smaller peak than a big first round.
TEST_F(LazySchedulerTest, PeakTrackedBytesIsPerRound) {
  std::string big_csv = dir_ + "/big.csv";
  {
    std::ofstream out(big_csv);
    out << "a,b\n";
    for (int i = 0; i < 50000; ++i) {
      out << i << "," << (i % 97) << "\n";
    }
  }
  std::string small_csv = dir_ + "/small.csv";
  {
    std::ofstream out(small_csv);
    out << "a,b\n";
    for (int i = 0; i < 10; ++i) {
      out << i << "," << i << "\n";
    }
  }
  std::stringstream output;
  auto session = MakeSession(1, &output);

  // Round 1: large read whose root is a scalar, so §2.6 clearing releases
  // the frames before the round ends.
  auto big = FatDataFrame::ReadCsv(session.get(), big_csv);
  ASSERT_TRUE(big.ok());
  auto big_len = big->Len();
  ASSERT_TRUE(big_len.ok());
  auto v1 = big_len->Value();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  const int64_t round1_peak = session->last_report().peak_tracked_bytes;
  EXPECT_GT(round1_peak, 0);

  // Round 2: tiny read. Under the old lifetime-peak reporting this round
  // would still show round 1's number.
  auto small = FatDataFrame::ReadCsv(session.get(), small_csv);
  ASSERT_TRUE(small.ok());
  auto small_len = small->Len();
  ASSERT_TRUE(small_len.ok());
  auto v2 = small_len->Value();
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  const int64_t round2_peak = session->last_report().peak_tracked_bytes;
  EXPECT_GT(round2_peak, 0);
  EXPECT_LT(round2_peak, round1_peak);
  // The lifetime peak is unaffected by the round epochs.
  EXPECT_GE(tracker_.peak(), round1_peak);
}

}  // namespace
}  // namespace lafp::lazy
