#ifndef LAFP_LAZY_SCHEDULER_H_
#define LAFP_LAZY_SCHEDULER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "lazy/task_graph.h"

namespace lafp::lazy {

/// Per-node record of one execution round (the execution-stats API).
/// Collected by the Scheduler and surfaced via Session::last_report() so
/// benchmarks and tests can assert scheduling behavior instead of
/// guessing from wall time.
struct NodeStats {
  int64_t node_id = 0;
  std::string op;            // OpDesc::ToString() at execution time
  std::string backend;       // backend that ran the node ("pandas", ...)
  int64_t wall_micros = 0;   // time inside Execute/EmitPrint for this node
  bool fallback = false;     // §5.2 pandas-engine fallback path taken
  bool reused = false;       // result carried over from an earlier round
  bool is_print = false;
  int64_t rows_in = -1;      // sum of frame-input rows; -1 = unknown
  int64_t rows_out = -1;     // result rows; -1 = unknown (lazy plan)
  // Intra-operator kernel activity attributed to this node
  // (df::KernelCounters): time inside kernel morsel loops, morsels
  // processed (one per invocation when intra_op_threads = 0), and how
  // many kernel invocations actually forked to the kernel pool. Kernels
  // run by Modin partition workers are included: each worker records into
  // a local sink that the launching thread merges back
  // (df::SharedKernelCounters + MergeIntoCurrentSink).
  int64_t kernel_micros = 0;
  int64_t morsels = 0;
  int64_t parallel_kernels = 0;
};

/// Everything one call to Session::ExecuteRound did: optimizer passes run,
/// nodes executed (with per-node wall time / fallback / row counts), how
/// parallel the round was, and the tracked-memory peak afterwards.
struct ExecutionReport {
  std::string backend;
  int num_threads = 1;       // scheduler workers used for this round
  bool parallel = false;     // false = deterministic serial topo order
  int64_t wall_micros = 0;   // whole round, including optimizer passes
  int64_t nodes_executed = 0;
  int64_t nodes_reused = 0;
  /// Runnable nodes abandoned after the round's first failure (or an
  /// external Cancel). Invariant on a failed round:
  ///   nodes_executed + nodes_cancelled + failures == runnable nodes.
  int64_t nodes_cancelled = 0;
  int64_t prints_emitted = 0;
  int64_t results_cleared = 0;
  int64_t peak_tracked_bytes = 0;
  // Round-level sums of the per-node kernel counters.
  int64_t kernel_micros = 0;
  int64_t kernel_morsels = 0;
  int64_t parallel_kernels = 0;

  struct PassStat {
    std::string name;
    int64_t wall_micros = 0;
    // Plan delta: reachable task-graph size before/after the pass ran
    // (-1 = not measured).
    int64_t nodes_before = -1;
    int64_t nodes_after = -1;
  };
  std::vector<PassStat> passes;  // optimizer passes, in registration order
  std::vector<NodeStats> nodes;  // sorted by node_id (deterministic)

  /// Sum of known rows_out over non-print nodes (scalar results count 1).
  int64_t total_rows_out() const;
  /// Human-readable round summary (debugging aid).
  std::string ToString() const;
};

/// Parallel DAG executor for one round of the LaFP runtime. The scheduler
/// computes per-node in-degrees over `inputs` + `order_deps`, dispatches
/// ready nodes onto a shared ThreadPool, and releases consumers as their
/// dependencies complete. LaFP semantics are preserved exactly:
///   - lazy prints emit in program order (the §3.3 order_deps chain means
///     at most one print is ever ready);
///   - §2.6 result clearing stays race-free: `pending_consumers` is only
///     mutated inside the scheduler's completion lock, and an input is
///     cleared only once every consumer's task has finished;
///   - `persist` nodes and round roots are never cleared.
/// With num_threads <= 1 (or no pool) the scheduler degrades to the exact
/// serial topological execution the Session used before — that serial
/// path is the reference the parallel path is tested against.
class Scheduler {
 public:
  struct Options {
    int num_threads = 1;        // <= 1 => serial reference path
    bool clear_results = false;  // §2.6 clearing (lazy mode, eager backend)
    /// Optional external cancellation token. The scheduler trips it on
    /// the first node failure (so cooperating work can stop early) and
    /// honors an externally tripped token between nodes: no new node
    /// starts once it is cancelled. Null => Run uses a private token.
    CancellationToken* cancel = nullptr;
  };

  /// Execution callbacks into the Session. Both receive a NodeStats to
  /// fill with fallback/row information (may be ignored when stats are
  /// off). They are invoked from worker threads in parallel mode and must
  /// only touch the given node (plus its already-executed inputs).
  struct Callbacks {
    std::function<Status(const TaskNodePtr&, NodeStats*)> exec_node;
    std::function<Status(const TaskNodePtr&, NodeStats*)> emit_print;
  };

  /// `pool` may be null (forces the serial path). The pool is shared: the
  /// scheduler never blocks pool workers on other pool tasks, so it can
  /// coexist with other users of the same pool.
  Scheduler(ThreadPool* pool, Options options, Callbacks callbacks);

  /// Execute every node reachable from `roots` that does not already hold
  /// a result. On error, cancels the round: no queued or pending node
  /// starts after the first failure, in-flight nodes finish, and the first
  /// failure (the root cause) is returned; everything abandoned is counted
  /// in ExecutionReport::nodes_cancelled. `report` (optional) receives the
  /// round's statistics; counter fields are incremented so a caller can
  /// aggregate multiple scheduler runs into one report.
  Status Run(const std::vector<TaskNodePtr>& roots, ExecutionReport* report);

 private:
  Status RunSerial(const std::vector<TaskNodePtr>& order,
                   const std::vector<TaskNodePtr>& roots,
                   CancellationToken* cancel, ExecutionReport* report);
  Status RunParallel(const std::vector<TaskNodePtr>& order,
                     const std::vector<TaskNodePtr>& roots,
                     CancellationToken* cancel, ExecutionReport* report);

  ThreadPool* pool_;
  Options options_;
  Callbacks callbacks_;
};

}  // namespace lafp::lazy

#endif  // LAFP_LAZY_SCHEDULER_H_
