#ifndef LAFP_LAZY_SESSION_H_
#define LAFP_LAZY_SESSION_H_

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/trace.h"
#include "exec/backend.h"
#include "lazy/result_cache.h"
#include "lazy/scheduler.h"
#include "lazy/task_graph.h"

namespace lafp::lazy {

/// How statements execute. kLazy is the LaFP mode (build a task graph,
/// optimize, execute on demand); kEager reproduces plain Pandas/Modin
/// semantics: every API call materializes immediately.
enum class ExecutionMode : int { kLazy = 0, kEager = 1 };

struct SessionOptions {
  exec::BackendKind backend = exec::BackendKind::kPandas;
  exec::BackendConfig backend_config;
  /// Non-owning; Default() when null. Must outlive the session.
  MemoryTracker* tracker = nullptr;
  ExecutionMode mode = ExecutionMode::kLazy;
  /// LaFP lazy print (§3.3). When false (plain lazy frameworks), print
  /// forces computation immediately.
  bool lazy_print = true;
  /// Destination for print output; std::cout when null. Tests inject a
  /// stringstream; the regression harness hashes it.
  std::ostream* output = nullptr;
  /// Fault-injection specs armed for the session's lifetime (LAFP_FAULTS
  /// grammar, see common/fault.h). The session owns a *private*
  /// FaultInjector installed as the thread-current injector around its
  /// execution paths (and propagated into pool tasks by
  /// ThreadPool::Submit), so concurrent sessions with different fault
  /// configs never stomp the process-global registry. Empty = the
  /// Global() registry (LAFP_FAULTS) applies. A malformed string fails
  /// the session's first execution round.
  std::string fault_config;
  /// Scheduler, threading and cancellation knobs, handed to the backend
  /// too (see exec::ExecutionOptions): the thread counts read as at least
  /// 1 (num_threads) and 0 (intra_op_threads).
  exec::ExecutionOptions exec;
  /// Cross-query plan/result cache (lazy/result_cache.h), shareable
  /// across sessions. Null = none, unless the LAFP_CACHE env knob
  /// attaches the process-wide ResultCache::Global().
  std::shared_ptr<ResultCache> cache;

  class Builder;
};

/// Fluent construction of SessionOptions:
///   SessionOptions::Builder().backend(kModin).threads(8)
///       .lazy_print(false).Build()
/// The plain aggregate-init path keeps working; the builder is the
/// recommended surface because `threads()` sets the unified knob in one
/// place.
class SessionOptions::Builder {
 public:
  Builder() = default;

  Builder& backend(exec::BackendKind kind) {
    opts_.backend = kind;
    return *this;
  }
  Builder& backend_config(exec::BackendConfig config) {
    opts_.backend_config = std::move(config);
    return *this;
  }
  /// Unified worker count: DAG scheduler + backend partitions.
  Builder& threads(int n) {
    opts_.exec.num_threads = n;
    return *this;
  }
  Builder& partition_rows(size_t rows) {
    opts_.backend_config.partition_rows = rows;
    return *this;
  }
  /// Intra-operator (morsel) parallelism inside kernels; see
  /// exec::ExecutionOptions::intra_op_threads.
  Builder& intra_op_threads(int n) {
    opts_.exec.intra_op_threads = n;
    return *this;
  }
  Builder& morsel_rows(size_t rows) {
    opts_.exec.morsel_rows = rows;
    return *this;
  }
  Builder& task_overhead_us(int64_t us) {
    opts_.backend_config.task_overhead_us = us;
    return *this;
  }
  Builder& spill_dir(std::string dir) {
    opts_.backend_config.spill_dir = std::move(dir);
    return *this;
  }
  Builder& mode(ExecutionMode m) {
    opts_.mode = m;
    return *this;
  }
  Builder& eager() { return mode(ExecutionMode::kEager); }
  Builder& lazy_print(bool on) {
    opts_.lazy_print = on;
    return *this;
  }
  /// Arm fault-injection specs for the session (LAFP_FAULTS grammar).
  Builder& faults(std::string config) {
    opts_.fault_config = std::move(config);
    return *this;
  }
  Builder& graceful_fallback(bool on) {
    opts_.exec.graceful_fallback = on;
    return *this;
  }
  /// Enable structured tracing (spans into trace::Tracer::Global()).
  Builder& trace(bool on) {
    opts_.exec.trace = on;
    return *this;
  }
  /// External cancellation token (non-owning; see exec::ExecutionOptions).
  Builder& cancel(CancellationToken* token) {
    opts_.exec.cancel = token;
    return *this;
  }
  /// Shared DAG-scheduler pool (non-owning; see exec::ExecutionOptions).
  Builder& scheduler_pool(ThreadPool* pool) {
    opts_.exec.scheduler_pool = pool;
    return *this;
  }
  /// Shared-nothing multi-process execution: selects the shard backend
  /// with `n` forked worker processes (1 is a valid degenerate cluster;
  /// results are byte-identical for any n). 0 defers the count to the
  /// LAFP_SHARDS env knob, defaulting to 2 (exec::BackendConfig::shards).
  Builder& shards(int n) {
    opts_.backend = exec::BackendKind::kShard;
    opts_.backend_config.shards = n;
    return *this;
  }
  /// Shared backend worker pool (non-owning; see
  /// exec::BackendConfig::shared_pool).
  Builder& backend_pool(ThreadPool* pool) {
    opts_.backend_config.shared_pool = pool;
    return *this;
  }
  Builder& spill_fallback_dir(std::string dir) {
    opts_.backend_config.spill_fallback_dir = std::move(dir);
    return *this;
  }
  /// The cross-query result cache, shareable across sessions.
  Builder& cache(std::shared_ptr<ResultCache> c) {
    opts_.cache = std::move(c);
    return *this;
  }
  Builder& tracker(MemoryTracker* t) {
    opts_.tracker = t;
    return *this;
  }
  Builder& output(std::ostream* os) {
    opts_.output = os;
    return *this;
  }

  SessionOptions Build() const { return opts_; }

 private:
  SessionOptions opts_;
};

class Session;

/// Signature of a function-backed optimizer pass (see MakeFunctionPass).
using OptimizerPassFn =
    std::function<Status(Session* session,
                         const std::vector<TaskNodePtr>& roots,
                         const std::vector<TaskNodePtr>& live)>;

/// A named graph-rewriting pass run before each execution round.
/// Registered passes run in registration order; each round's
/// ExecutionReport lists them by name with per-pass wall time. Passes run
/// on the round's calling thread, before any node executes, so they may
/// freely mutate the reachable task graph (the contract the optimizer
/// module's passes already rely on).
class OptimizerPass {
 public:
  virtual ~OptimizerPass() = default;
  virtual const std::string& name() const = 0;
  virtual Status Run(Session* session, const std::vector<TaskNodePtr>& roots,
                     const std::vector<TaskNodePtr>& live) = 0;
};

/// The LaFP runtime: owns the task graph, the backend, the pending lazy
/// prints, and the execution engine with result clearing (paper §2.5-2.6,
/// §3.3, §3.5). Rounds execute through the parallel DAG scheduler
/// (lazy/scheduler.h) when the unified thread knob is > 1 and the backend
/// is eager; otherwise through the serial reference path.
class Session {
 public:
  explicit Session(SessionOptions options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  TaskGraph* graph() { return &graph_; }
  exec::Backend* backend() { return backend_.get(); }
  MemoryTracker* tracker() { return tracker_; }
  const SessionOptions& options() const { return options_; }

  /// Process-unique id (monotonic, assigned at construction). Stamped
  /// onto the session trace span so per-session trace sinks and the
  /// server's request logs can correlate.
  int64_t session_id() const { return session_id_; }
  /// Span id of the session-lifetime trace span (0 when tracing was off
  /// at construction). Pass to Tracer::WriteChromeTraceForRoot /
  /// RenderReportForRoot for this session's isolated trace view.
  uint64_t trace_root() const {
    return session_span_ != nullptr ? session_span_->id() : 0;
  }
  /// True when this session traces (ExecutionOptions::trace) and only
  /// traced sessions hold the tracer on: neither LAFP_TRACE nor
  /// Tracer::set_enabled had it on when the first of them began. Nothing
  /// else then reads the events under trace_root(), so the caller that
  /// renders them may erase them once the session has ended.
  bool trace_is_session_only() const { return trace_hold_.session_only(); }

  /// Create a node; in eager mode it executes immediately (and its input
  /// edges are dropped so intermediate results can be garbage collected,
  /// like plain Pandas temporaries).
  Result<TaskNodePtr> AddNode(exec::OpDesc desc,
                              std::vector<TaskNodePtr> inputs);

  /// One segment of a print statement: a literal, or a lazy value.
  struct PrintArg {
    std::string literal;
    TaskNodePtr node;  // null => literal segment
    static PrintArg Literal(std::string s) { return {std::move(s), nullptr}; }
    static PrintArg Value(TaskNodePtr n) { return {"", std::move(n)}; }
  };

  /// Print. Lazy mode with lazy_print: appends a print node chained to the
  /// previous one (§3.3). Otherwise forces computation and emits now.
  Status Print(const std::vector<PrintArg>& args);

  /// Evaluate every pending lazy print (pd.flush(), end of program).
  Status Flush();
  /// True while a lazy print waits for the next round.
  bool has_pending_prints() const { return !pending_prints_.empty(); }

  /// Force computation of `node`, first processing pending prints (§3.4).
  /// `live` lists dataframes live after this point (the rewriter's
  /// live_df argument, §3.5): shared subexpressions between `node` and
  /// `live` are persisted for reuse.
  Result<exec::EagerValue> Compute(const TaskNodePtr& node,
                                   const std::vector<TaskNodePtr>& live = {});

  // ---- optimizer pass registry ----

  /// Append a pass to the per-round pipeline (runs after already
  /// registered passes).
  void RegisterOptimizerPass(std::unique_ptr<OptimizerPass> pass);
  /// Remove every registered pass.
  void ClearOptimizerPasses();
  const std::vector<std::unique_ptr<OptimizerPass>>& optimizer_passes()
      const {
    return optimizer_passes_;
  }

  /// The cross-query result cache attached to this session (null when
  /// caching is off). Shared instances are also visible through here.
  std::shared_ptr<ResultCache> result_cache() const;

  // ---- execution statistics ----

  /// Report of the most recent execution round (Flush/Compute/forced
  /// print). Valid until the next round runs on this session.
  const ExecutionReport& last_report() const { return last_report_; }
  /// Number of rounds executed (tests use this to detect that a round
  /// actually ran).
  int64_t num_rounds() const { return num_rounds_; }

  /// Number of node executions performed so far (tests use this to prove
  /// reuse/clearing behavior).
  int64_t num_node_executions() const {
    return num_node_executions_.load(std::memory_order_relaxed);
  }
  /// Number of nodes whose result was cleared by refcounting (§2.6).
  int64_t num_results_cleared() const { return num_results_cleared_; }

  std::ostream& out();

 private:
  /// One round over `roots`. With a compute `target`, its materialized
  /// value lands in `target_value`.
  Status ExecuteRound(const std::vector<TaskNodePtr>& roots,
                      const std::vector<TaskNodePtr>& live,
                      const TaskNodePtr& target = nullptr,
                      exec::EagerValue* target_value = nullptr);
  Status ExecNode(const TaskNodePtr& node, NodeStats* stats);
  /// Materializes one print's arguments, each on its own, and emits it.
  Status EmitPrint(const TaskNodePtr& node, NodeStats* stats);
  /// Materializes the round's deferred `prints` and its compute `target`
  /// in one Backend::MaterializeAll, then emits the prints in order.
  Status EmitOutputs(const std::vector<TaskNodePtr>& prints,
                     const TaskNodePtr& target,
                     exec::EagerValue* target_value, ExecutionReport* report);
  /// §3.5: mark the topmost nodes shared between the round's targets and
  /// the live set for persistence.
  void MarkSharedForPersist(const std::vector<TaskNodePtr>& roots,
                            const std::vector<TaskNodePtr>& live);

  /// Holds the process tracer on for a session with ExecutionOptions::
  /// trace set (see session.cc). The first member, so it is released
  /// after every other, the session span included.
  class TraceHold {
   public:
    TraceHold() = default;
    TraceHold(const TraceHold&) = delete;
    TraceHold& operator=(const TraceHold&) = delete;
    ~TraceHold();
    void Acquire();
    bool session_only() const { return session_only_; }

   private:
    bool held_ = false;
    bool session_only_ = false;
  };
  TraceHold trace_hold_;
  SessionOptions options_;
  const int64_t session_id_;
  MemoryTracker* tracker_;
  std::unique_ptr<exec::Backend> backend_;
  /// Session-private injector armed from SessionOptions::fault_config
  /// (null when the config is empty and the Global() registry applies).
  /// Installed as the thread-current injector around execution paths;
  /// ThreadPool::Submit carries it into pool tasks.
  std::unique_ptr<FaultInjector> fault_injector_;
  /// Parse result of fault_config; surfaced by the next execution round.
  Status fault_status_;
  /// Workers for graph-level parallelism when no shared pool was
  /// injected (ExecutionOptions::scheduler_pool). Created once (first
  /// parallel round) and shared across rounds; distinct from the Modin
  /// backend's partition pool so a scheduler worker blocking in
  /// Backend::Execute can never starve the backend's own ParallelFor.
  std::unique_ptr<ThreadPool> scheduler_pool_;
  /// Session-lifetime trace span (inert when tracing is off). Never
  /// installed as thread context — sessions are not LIFO on a thread;
  /// execution rounds parent to it by explicit id.
  std::unique_ptr<trace::Span> session_span_;
  TaskGraph graph_;
  std::vector<TaskNodePtr> pending_prints_;
  TaskNodePtr last_print_;
  std::vector<std::unique_ptr<OptimizerPass>> optimizer_passes_;
  /// Cross-query cache machinery; null when caching is off for this
  /// session. The splice stage runs as the forced last stage of every
  /// round's pass pipeline (it must see the optimized plan, and it must
  /// survive InstallDefaultOptimizer's ClearOptimizerPasses).
  std::unique_ptr<CacheSplicer> cache_splicer_;
  ExecutionReport last_report_;
  int64_t num_rounds_ = 0;
  /// Atomic: incremented from scheduler worker threads.
  std::atomic<int64_t> num_node_executions_{0};
  int64_t num_results_cleared_ = 0;
};

/// Wrap a plain function as a named OptimizerPass (the bridge the
/// optimizer module uses to register its passes without subclassing).
std::unique_ptr<OptimizerPass> MakeFunctionPass(std::string name,
                                                OptimizerPassFn fn);

}  // namespace lafp::lazy

#endif  // LAFP_LAZY_SESSION_H_
