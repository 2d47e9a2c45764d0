#include "lazy/session.h"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "dataframe/kernel_context.h"

namespace lafp::lazy {

namespace {

/// The one clamp of the thread knobs, before the scheduler and the
/// backend read them: num_threads >= 1, intra_op_threads >= 0.
SessionOptions ClampThreads(SessionOptions options) {
  options.exec.num_threads = std::max(options.exec.num_threads, 1);
  options.exec.intra_op_threads = std::max(options.exec.intra_op_threads, 0);
  return options;
}

/// Process-wide session id source: concurrent sessions (one per server
/// request) get distinct, monotonic ids.
std::atomic<int64_t> next_session_id{1};

/// Live traced sessions, and whether the tracer was on before the first
/// of them switched it on (LAFP_TRACE or set_enabled). One lock covers
/// the count and the switch, so overlapping sessions cannot interleave
/// them.
std::mutex trace_holds_mu;
int trace_holds = 0;
bool tracer_was_on = false;

class FunctionPass : public OptimizerPass {
 public:
  FunctionPass(std::string name, OptimizerPassFn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  const std::string& name() const override { return name_; }

  Status Run(Session* session, const std::vector<TaskNodePtr>& roots,
             const std::vector<TaskNodePtr>& live) override {
    return fn_(session, roots, live);
  }

 private:
  std::string name_;
  OptimizerPassFn fn_;
};

}  // namespace

std::unique_ptr<OptimizerPass> MakeFunctionPass(std::string name,
                                                OptimizerPassFn fn) {
  return std::make_unique<FunctionPass>(std::move(name), std::move(fn));
}

void Session::TraceHold::Acquire() {
  std::lock_guard<std::mutex> lock(trace_holds_mu);
  trace::Tracer* tracer = trace::Tracer::Global();
  if (trace_holds++ == 0) {
    tracer_was_on = tracer->enabled();
    tracer->set_enabled(true);
  }
  held_ = true;
  session_only_ = !tracer_was_on;
}

Session::TraceHold::~TraceHold() {
  if (!held_) return;
  std::lock_guard<std::mutex> lock(trace_holds_mu);
  if (--trace_holds == 0 && !tracer_was_on) {
    trace::Tracer::Global()->set_enabled(false);
  }
}

Session::Session(SessionOptions options)
    : options_(ClampThreads(std::move(options))),
      session_id_(next_session_id.fetch_add(1, std::memory_order_relaxed)),
      tracker_(options_.tracker != nullptr ? options_.tracker
                                           : MemoryTracker::Default()),
      backend_(exec::MakeBackend(options_.backend, tracker_,
                                 options_.backend_config, options_.exec)) {
  if (!options_.fault_config.empty()) {
    // Session-private injector: concurrent sessions with different fault
    // configs coexist (nothing global is mutated). A parse failure still
    // surfaces from the first execution round, not the constructor.
    fault_injector_ = std::make_unique<FaultInjector>();
    fault_status_ = fault_injector_->InstallFromString(options_.fault_config);
  }
  if (options_.exec.trace) trace_hold_.Acquire();
  // Inert when the tracer stayed off (neither the option nor LAFP_TRACE).
  session_span_ = std::make_unique<trace::Span>(
      std::string("session:") + backend_->name(), "session",
      /*parent_id=*/0, /*install=*/false);
  // The at-exit trace splitter and per-session exports key on this arg.
  if (session_span_->active()) {
    session_span_->AddArg("session_id", session_id_);
  }
  // Cross-query cache: an explicit instance wins; otherwise the
  // LAFP_CACHE env knob can attach the process-wide shared cache.
  std::shared_ptr<ResultCache> cache =
      options_.cache != nullptr ? options_.cache : ResultCache::FromEnv();
  if (cache != nullptr && options_.mode == ExecutionMode::kLazy) {
    cache_splicer_ = std::make_unique<CacheSplicer>(std::move(cache));
  }
}

std::shared_ptr<ResultCache> Session::result_cache() const {
  return cache_splicer_ != nullptr ? cache_splicer_->cache() : nullptr;
}

Session::~Session() = default;

std::ostream& Session::out() {
  return options_.output != nullptr ? *options_.output : std::cout;
}

void Session::RegisterOptimizerPass(std::unique_ptr<OptimizerPass> pass) {
  if (pass != nullptr) optimizer_passes_.push_back(std::move(pass));
}

void Session::ClearOptimizerPasses() { optimizer_passes_.clear(); }

Result<TaskNodePtr> Session::AddNode(exec::OpDesc desc,
                                     std::vector<TaskNodePtr> inputs) {
  TaskNodePtr node = graph_.NewNode(std::move(desc), std::move(inputs));
  if (options_.mode == ExecutionMode::kEager) {
    LAFP_RETURN_NOT_OK(fault_status_);
    std::optional<ScopedFaultInjector> fault_ctx;
    if (fault_injector_ != nullptr) fault_ctx.emplace(fault_injector_.get());
    LAFP_RETURN_NOT_OK(ExecNode(node, nullptr));
    // Plain-Pandas memory semantics: intermediate results are freed when
    // the program drops its handle, so the node must not pin its inputs.
    node->inputs.clear();
  }
  return node;
}

Status Session::Print(const std::vector<PrintArg>& args) {
  // Collect the value inputs and the literal text before each of them.
  exec::OpDesc desc;
  desc.kind = exec::OpKind::kPrint;
  std::vector<TaskNodePtr> inputs;
  std::vector<std::string> segments(1);
  for (const auto& arg : args) {
    if (arg.node == nullptr) {
      segments.back() += arg.literal;
    } else {
      inputs.push_back(arg.node);
      segments.emplace_back();
    }
  }

  bool lazy = options_.mode == ExecutionMode::kLazy && options_.lazy_print;
  TaskNodePtr node = graph_.NewNode(std::move(desc), std::move(inputs));
  node->print_segments = std::move(segments);
  if (!lazy) {
    // Plain frameworks: print forces computation of its arguments now
    // (the behavior LaFP's lazy print avoids).
    LAFP_RETURN_NOT_OK(ExecuteRound({node}, {}));
    return Status::OK();
  }
  if (last_print_ != nullptr) {
    node->order_deps.push_back(last_print_);  // §3.3 ordering edge
  }
  last_print_ = node;
  pending_prints_.push_back(std::move(node));
  return Status::OK();
}

Status Session::Flush() {
  if (pending_prints_.empty()) return Status::OK();
  std::vector<TaskNodePtr> roots = std::move(pending_prints_);
  pending_prints_.clear();
  last_print_ = nullptr;
  return ExecuteRound(roots, {});
}

Result<exec::EagerValue> Session::Compute(
    const TaskNodePtr& node, const std::vector<TaskNodePtr>& live) {
  // Pending prints are processed together with this computation so output
  // order stays correct (§3.4).
  std::vector<TaskNodePtr> roots = std::move(pending_prints_);
  pending_prints_.clear();
  last_print_ = nullptr;
  roots.push_back(node);
  exec::EagerValue value;
  LAFP_RETURN_NOT_OK(ExecuteRound(roots, live, node, &value));
  return value;
}

void Session::MarkSharedForPersist(const std::vector<TaskNodePtr>& roots,
                                   const std::vector<TaskNodePtr>& live) {
  if (live.empty()) return;
  auto reach = [](const std::vector<TaskNodePtr>& from) {
    std::unordered_set<const TaskNode*> out;
    for (const auto& n : TaskGraph::TopoSort(from)) out.insert(n.get());
    return out;
  };
  std::unordered_set<const TaskNode*> from_roots = reach(roots);
  std::unordered_set<const TaskNode*> from_live = reach(live);
  // Shared subexpressions between what we are about to compute and what
  // stays live afterwards.
  std::unordered_set<const TaskNode*> shared;
  std::vector<TaskNodePtr> shared_nodes;
  for (const auto& n : TaskGraph::TopoSort(roots)) {
    if (from_live.count(n.get()) > 0) {
      shared.insert(n.get());
      shared_nodes.push_back(n);
    }
  }
  std::unordered_set<const TaskNode*> live_roots;
  for (const auto& n : live) live_roots.insert(n.get());
  // Persist the reuse frontier: a shared node whose value the live side
  // consumes directly (it is a live dataframe itself) or feeds into a
  // computation the current round does not perform. Persisting there
  // caches exactly what later computes would otherwise redo.
  for (const auto& n : shared_nodes) {
    if (n->desc.kind == exec::OpKind::kPrint) continue;
    bool frontier = live_roots.count(n.get()) > 0;
    if (!frontier) {
      for (const auto& consumer : graph_.Consumers(n.get())) {
        if (from_live.count(consumer.get()) > 0 &&
            shared.count(consumer.get()) == 0) {
          frontier = true;
          break;
        }
      }
    }
    if (frontier) n->persist = true;
  }
}

Status Session::ExecuteRound(const std::vector<TaskNodePtr>& roots,
                             const std::vector<TaskNodePtr>& live,
                             const TaskNodePtr& target,
                             exec::EagerValue* target_value) {
  // A malformed SessionOptions::fault_config cannot surface from the
  // constructor; it fails the first round instead of being ignored.
  LAFP_RETURN_NOT_OK(fault_status_);
  // Session-private fault context for the whole round: pass bodies,
  // serial execution, and — via ThreadPool::Submit's capture — every
  // scheduler / partition / kernel-morsel task this round spawns.
  std::optional<ScopedFaultInjector> fault_ctx;
  if (fault_injector_ != nullptr) fault_ctx.emplace(fault_injector_.get());
  Timer round_timer;
  // Per-round memory epoch: ExecutionReport::peak_tracked_bytes is this
  // round's own high-water mark, not the process-lifetime peak.
  tracker_->ResetRoundPeak();
  trace::Span round_span("round:" + std::to_string(num_rounds_), "round",
                         session_span_->id(), /*install=*/true);
  ExecutionReport report;
  report.backend = backend_->name();

  // Plan-delta accounting for pass stats: reachable graph size before and
  // after each pass (one TopoSort per measurement).
  int64_t nodes_before = static_cast<int64_t>(TaskGraph::TopoSort(roots).size());
  // One pipeline stage: timer + trace span + per-pass report entry.
  auto run_stage = [&](const std::string& name, auto&& body) -> Status {
    Timer pass_timer;
    trace::Span pass_span("pass:" + name, "pass");
    Status pass_status = body();
    int64_t nodes_after =
        static_cast<int64_t>(TaskGraph::TopoSort(roots).size());
    if (pass_span.active()) {
      pass_span.AddArg("nodes_before", nodes_before);
      pass_span.AddArg("nodes_after", nodes_after);
    }
    report.passes.push_back(
        {name, pass_timer.ElapsedMicros(), nodes_before, nodes_after});
    nodes_before = nodes_after;
    return pass_status;
  };
  // Record the failed round: leaving the previous round's report in
  // last_report_ makes callers (fuzzer iterations, retry loops) read
  // stale stats as if this round had succeeded.
  auto fail_round = [&](Status status) -> Status {
    if (cache_splicer_ != nullptr) cache_splicer_->AbandonHarvest();
    report.wall_micros = round_timer.ElapsedMicros();
    report.peak_tracked_bytes = tracker_->round_peak();
    last_report_ = std::move(report);
    ++num_rounds_;
    return status;
  };
  for (const auto& pass : optimizer_passes_) {
    Status pass_status = run_stage(
        pass->name(), [&] { return pass->Run(this, roots, live); });
    if (!pass_status.ok()) return fail_round(std::move(pass_status));
  }
  // The cache-splice stage is pinned to the end of the pipeline (outside
  // the registry, so ClearOptimizerPasses cannot drop it and registered
  // rewrites have already produced the plan being fingerprinted).
  if (cache_splicer_ != nullptr) {
    Status splice_status = run_stage(
        "cache-splice", [&] { return cache_splicer_->Splice(this, roots); });
    if (!splice_status.ok()) return fail_round(std::move(splice_status));
  }
  MarkSharedForPersist(roots, live);
  if (cache_splicer_ != nullptr) cache_splicer_->PrepareHarvest(this, roots);

  // §2.6 result clearing applies to lazy execution on eager backends.
  // In eager mode program variables own their results (clearing would
  // orphan them: eager nodes drop input edges and cannot re-execute);
  // on a lazy backend results are cheap plan handles.
  const bool clear_results =
      options_.mode == ExecutionMode::kLazy && !backend_->lazy();

  // Graph-level parallelism applies to eager backends: their Execute()
  // does real work per node. A lazy backend's Execute() merely records a
  // plan node (microseconds), and its plan caches are not synchronized,
  // so those rounds stay on the deterministic serial path.
  int threads = options_.exec.num_threads;
  const bool parallel = threads > 1 && !backend_->lazy();
  // An injected pool (query server) is shared across sessions; otherwise
  // the session lazily builds its own.
  ThreadPool* pool = options_.exec.scheduler_pool;
  if (parallel && pool == nullptr) {
    if (scheduler_pool_ == nullptr) {
      scheduler_pool_ = std::make_unique<ThreadPool>(threads);
    }
    pool = scheduler_pool_.get();
  }

  Scheduler::Options sched_options;
  sched_options.num_threads = parallel ? threads : 1;
  sched_options.clear_results = clear_results;
  sched_options.cancel = options_.exec.cancel;
  Scheduler::Callbacks callbacks;
  callbacks.exec_node = [this](const TaskNodePtr& node, NodeStats* stats) {
    return ExecNode(node, stats);
  };
  // On a lazy backend a lazy-print round's prints wait for the end of the
  // round: one MaterializeAll then serves them all and the compute target,
  // as one dask.compute(*outputs) does. These rounds run serially.
  const bool defer_prints = options_.mode == ExecutionMode::kLazy &&
                            options_.lazy_print && backend_->lazy();
  std::vector<TaskNodePtr> deferred;
  callbacks.emit_print = [&](const TaskNodePtr& node, NodeStats* stats) {
    if (!defer_prints) return EmitPrint(node, stats);
    if (stats != nullptr) {
      stats->op = node->desc.ToString();
      stats->backend = backend_->name();
    }
    deferred.push_back(node);
    return Status::OK();
  };
  Scheduler scheduler(parallel ? pool : nullptr, sched_options,
                      std::move(callbacks));
  Status status = scheduler.Run(roots, &report);
  if (status.ok() && (!deferred.empty() || target != nullptr)) {
    status = EmitOutputs(deferred, target, target_value, &report);
    // A failed batch emits none of the round's prints.
    if (!status.ok()) {
      report.prints_emitted -= static_cast<int64_t>(deferred.size());
    }
  }

  if (cache_splicer_ != nullptr) {
    if (status.ok()) {
      cache_splicer_->InsertRoundResults(this, roots);
    } else {
      cache_splicer_->AbandonHarvest();
    }
  }

  num_results_cleared_ += report.results_cleared;
  report.wall_micros = round_timer.ElapsedMicros();
  report.peak_tracked_bytes = tracker_->round_peak();
  if (round_span.active()) {
    round_span.AddArg("nodes_executed", report.nodes_executed);
    round_span.AddArg("nodes_reused", report.nodes_reused);
    round_span.AddArg("peak_bytes", report.peak_tracked_bytes);
    round_span.AddArg("parallel", report.parallel ? 1 : 0);
  }
  static auto* rounds_counter =
      metrics::Registry::Global()->GetCounter("session.rounds");
  rounds_counter->Increment();
  last_report_ = std::move(report);
  ++num_rounds_;
  return status;
}

Status Session::ExecNode(const TaskNodePtr& node, NodeStats* stats) {
  if (node->desc.kind == exec::OpKind::kMaterialized) {
    // Cache-spliced leaf whose imported result was cleared (§2.6):
    // re-import the retained payload instead of re-executing a subtree
    // that no longer exists.
    if (stats != nullptr) {
      stats->op = node->desc.ToString();
      stats->backend = backend_->name();
    }
    if (node->materialized == nullptr) {
      return Status::ExecutionError("materialized node lost its payload");
    }
    if (node->materialized->is_scalar) {
      node->result = exec::BackendValue::FromScalar(node->materialized->scalar);
    } else {
      LAFP_ASSIGN_OR_RETURN(node->result,
                            backend_->FromEager(*node->materialized));
    }
    node->executed = true;
    if (stats != nullptr) stats->rows_out = backend_->RowCount(node->result);
    if (node->persist) {
      LAFP_RETURN_NOT_OK(backend_->Persist(node->result));
    }
    return Status::OK();
  }
  std::vector<exec::BackendValue> inputs;
  inputs.reserve(node->inputs.size());
  for (const auto& in : node->inputs) {
    if (!in->executed) {
      return Status::ExecutionError("input not executed for node " +
                                    node->desc.ToString());
    }
    inputs.push_back(in->result);
  }
  if (stats != nullptr) {
    stats->op = node->desc.ToString();
    stats->backend = backend_->name();
    // Count each distinct upstream result once: a frame feeding both
    // sides of a self-merge is still one input frame.
    std::unordered_set<const TaskNode*> seen_inputs;
    for (const auto& in : node->inputs) {
      if (!seen_inputs.insert(in.get()).second) continue;
      int64_t rows = backend_->RowCount(in->result);
      if (rows >= 0) {
        stats->rows_in = (stats->rows_in < 0 ? 0 : stats->rows_in) + rows;
      }
    }
  }
  num_node_executions_.fetch_add(1, std::memory_order_relaxed);
  // Kernel counters accumulate in thread-local storage for the duration
  // of this node's execution, then flow into the stats record. Backends
  // that fan out to partition workers merge worker-side counters back
  // into this sink (df::MergeIntoCurrentSink) before Execute returns.
  df::KernelCounters counters;
  Status exec_status;
  {
    df::KernelCountersScope counters_scope(&counters);
    // Paper §5.2 fallback: convert to eager Pandas frames, apply the
    // Pandas-engine kernel, convert back. Shared between unsupported ops
    // and the graceful-degradation retry below.
    auto eager_fallback = [&]() -> Status {
      if (stats != nullptr) stats->fallback = true;
      trace::Instant("fallback", "fallback",
                     {trace::StrArg("op", node->desc.ToString())});
      static auto* fallback_counter =
          metrics::Registry::Global()->GetCounter("session.fallbacks");
      fallback_counter->Increment();
      std::vector<exec::EagerValue> eager_inputs;
      for (const auto& in : inputs) {
        LAFP_ASSIGN_OR_RETURN(exec::EagerValue v, backend_->Materialize(in));
        eager_inputs.push_back(std::move(v));
      }
      LAFP_ASSIGN_OR_RETURN(
          exec::EagerValue out,
          exec::ExecuteEagerOp(node->desc, eager_inputs, tracker_));
      LAFP_ASSIGN_OR_RETURN(node->result, backend_->FromEager(out));
      return Status::OK();
    };
    exec_status = [&]() -> Status {
      if (!backend_->SupportsOp(node->desc)) return eager_fallback();
      Status native = FaultPoint("backend.execute");
      if (native.ok()) {
        auto result = backend_->Execute(node->desc, inputs);
        if (result.ok()) {
          node->result = std::move(result).ValueOrDie();
          return Status::OK();
        }
        native = result.status();
      }
      // §4.3 graceful degradation: a backend failure that is about the
      // backend (broken engine, IO, missing capability) retries once on
      // the Pandas-engine path. OOM and semantic errors are about the
      // program and must surface unchanged.
      const bool retryable = native.IsExecutionError() ||
                             native.IsIOError() || native.IsNotImplemented();
      if (!options_.exec.graceful_fallback || !retryable) return native;
      return eager_fallback();
    }();
  }
  if (stats != nullptr) {
    stats->kernel_micros = counters.kernel_micros;
    stats->morsels = counters.morsels;
    stats->parallel_kernels = counters.parallel_kernels;
  }
  LAFP_RETURN_NOT_OK(exec_status);
  node->executed = true;
  if (stats != nullptr) stats->rows_out = backend_->RowCount(node->result);
  if (node->persist) {
    LAFP_RETURN_NOT_OK(backend_->Persist(node->result));
  }
  return Status::OK();
}

namespace {

/// Fails unless every input of print `node` has executed.
Status CheckPrintInputs(const TaskNode& node) {
  for (const auto& in : node.inputs) {
    if (!in->executed) {
      return Status::ExecutionError("print argument not executed");
    }
  }
  return Status::OK();
}

/// `node`'s literal segments with the display form of values[k] after
/// segment k (the f-string escape-ID mechanism, §3.3).
std::string RenderPrint(const TaskNode& node, const exec::EagerValue* values) {
  std::string rendered = node.print_segments[0];
  for (size_t k = 0; k < node.inputs.size(); ++k) {
    rendered += values[k].ToDisplayString();
    rendered += node.print_segments[k + 1];
  }
  return rendered;
}

}  // namespace

Status Session::EmitPrint(const TaskNodePtr& node, NodeStats* stats) {
  if (stats != nullptr) {
    stats->op = node->desc.ToString();
    stats->backend = backend_->name();
  }
  // Materializing print arguments can run kernels; attribute them to the
  // print node like ExecNode attributes execution kernels.
  df::KernelCounters counters;
  df::KernelCountersScope counters_scope(&counters);
  LAFP_RETURN_NOT_OK(CheckPrintInputs(*node));
  // Each argument is forced on its own, as a plain framework's print does.
  std::vector<exec::EagerValue> values;
  for (const auto& arg : node->inputs) {
    LAFP_ASSIGN_OR_RETURN(exec::EagerValue v,
                          backend_->Materialize(arg->result));
    values.push_back(std::move(v));
  }
  out() << RenderPrint(*node, values.data()) << "\n";
  if (stats != nullptr) {
    stats->kernel_micros = counters.kernel_micros;
    stats->morsels = counters.morsels;
    stats->parallel_kernels = counters.parallel_kernels;
  }
  return Status::OK();
}

Status Session::EmitOutputs(const std::vector<TaskNodePtr>& prints,
                            const TaskNodePtr& target,
                            exec::EagerValue* target_value,
                            ExecutionReport* report) {
  Timer timer;
  // The batch's span is the first print's, like its time and kernels.
  std::optional<trace::Span> span;
  if (!prints.empty()) {
    span.emplace("print:batch", "node");
    if (span->active()) {
      span->AddArg("node_id", prints[0]->id);
      span->AddArg("prints", static_cast<int64_t>(prints.size()));
    }
  }
  df::KernelCounters counters;
  Status status = [&]() -> Status {
    df::KernelCountersScope counters_scope(&counters);
    std::vector<exec::BackendValue> values;
    for (const auto& print : prints) {
      LAFP_RETURN_NOT_OK(CheckPrintInputs(*print));
      for (const auto& arg : print->inputs) values.push_back(arg->result);
    }
    if (target != nullptr) {
      if (target->result.empty() && !target->result.is_scalar) {
        return Status::ExecutionError("compute produced no result");
      }
      if (backend_->lazy()) {
        // compute() returns a materialized frame (pandas semantics):
        // persist the *existing* plan node before materializing so the
        // evaluator caches the partitions on it and later uses do not
        // re-stream the plan. The footprint stays charged — that is what
        // forcing costs (§3.4). Swapping in a fresh backend value here
        // instead would orphan consumers executed in earlier rounds: they
        // still reference this node, and a fused zone mixing the old and
        // new plan nodes sees two sources with different partition
        // geometry for the same frame.
        LAFP_RETURN_NOT_OK(backend_->Persist(target->result));
      }
      values.push_back(target->result);
    }
    LAFP_ASSIGN_OR_RETURN(std::vector<exec::EagerValue> eager,
                          backend_->MaterializeAll(values));
    // Render every print before writing any: a failure emits none.
    std::string text;
    const exec::EagerValue* next = eager.data();
    for (const auto& print : prints) {
      text += RenderPrint(*print, next);
      text += "\n";
      next += print->inputs.size();
    }
    out() << text;
    if (target != nullptr) *target_value = std::move(eager.back());
    return Status::OK();
  }();
  // The batch serves the round's prints: its time and kernels are the
  // first print's, as an eager print's materialization is its own.
  if (!prints.empty()) {
    for (NodeStats& stats : report->nodes) {
      if (stats.node_id != prints[0]->id) continue;
      stats.wall_micros += timer.ElapsedMicros();
      stats.kernel_micros += counters.kernel_micros;
      stats.morsels += counters.morsels;
      stats.parallel_kernels += counters.parallel_kernels;
      report->kernel_micros += counters.kernel_micros;
      report->kernel_morsels += counters.morsels;
      report->parallel_kernels += counters.parallel_kernels;
      break;
    }
  }
  return status;
}

}  // namespace lafp::lazy
