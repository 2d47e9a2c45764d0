#include "lazy/scheduler.h"

#include <algorithm>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "common/timer.h"
#include "common/trace.h"

namespace lafp::lazy {

int64_t ExecutionReport::total_rows_out() const {
  int64_t total = 0;
  for (const auto& n : nodes) {
    if (n.is_print) continue;
    if (n.rows_out > 0) total += n.rows_out;
  }
  return total;
}

std::string ExecutionReport::ToString() const {
  std::ostringstream os;
  os << "round[backend=" << backend << " threads=" << num_threads
     << (parallel ? " parallel" : " serial") << " wall_us=" << wall_micros
     << " executed=" << nodes_executed << " reused=" << nodes_reused
     << " cancelled=" << nodes_cancelled
     << " prints=" << prints_emitted << " cleared=" << results_cleared
     << " peak_bytes=" << peak_tracked_bytes
     << " kernel_us=" << kernel_micros << " morsels=" << kernel_morsels
     << " parallel_kernels=" << parallel_kernels << "]\n";
  for (const auto& p : passes) {
    os << "  pass " << p.name << ": " << p.wall_micros << "us";
    if (p.nodes_before >= 0) {
      os << " nodes " << p.nodes_before << "->" << p.nodes_after;
    }
    os << "\n";
  }
  for (const auto& n : nodes) {
    os << "  node " << n.node_id << " " << n.op << ": " << n.wall_micros
       << "us";
    if (n.reused) os << " reused";
    if (n.fallback) os << " fallback";
    if (n.rows_in >= 0) os << " rows_in=" << n.rows_in;
    if (n.rows_out >= 0) os << " rows_out=" << n.rows_out;
    if (n.morsels > 0) {
      os << " kernel_us=" << n.kernel_micros << " morsels=" << n.morsels;
      if (n.parallel_kernels > 0) {
        os << " parallel_kernels=" << n.parallel_kernels;
      }
    }
    os << "\n";
  }
  return os.str();
}

Scheduler::Scheduler(ThreadPool* pool, Options options, Callbacks callbacks)
    : pool_(pool),
      options_(options),
      callbacks_(std::move(callbacks)) {}

namespace {

/// The round's working set: nodes that need evaluation, and among them the
/// ones whose result is carried over from an earlier round (reuse leaves —
/// the scheduler never descends past a node that already holds a result).
struct RoundPlan {
  std::unordered_set<const TaskNode*> needed;
  std::unordered_set<const TaskNode*> reused;
  std::unordered_set<const TaskNode*> protected_nodes;  // round roots
};

RoundPlan BuildPlan(const std::vector<TaskNodePtr>& order,
                    const std::vector<TaskNodePtr>& roots) {
  RoundPlan plan;
  std::vector<TaskNodePtr> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    TaskNodePtr n = stack.back();
    stack.pop_back();
    if (n == nullptr || plan.needed.count(n.get()) > 0) continue;
    if (n->has_result() && n->executed) {
      plan.needed.insert(n.get());  // leaf: reuse, do not descend
      plan.reused.insert(n.get());
      continue;
    }
    plan.needed.insert(n.get());
    for (const auto& in : n->inputs) stack.push_back(in);
    for (const auto& dep : n->order_deps) stack.push_back(dep);
  }

  // Consumer counting for result clearing (§2.6), within this round.
  // Reused leaves do not consume their inputs (they will not re-execute).
  for (const auto& n : order) {
    if (plan.needed.count(n.get()) == 0) continue;
    n->pending_consumers = 0;
  }
  for (const auto& n : order) {
    if (plan.needed.count(n.get()) == 0) continue;
    if (plan.reused.count(n.get()) > 0) continue;
    for (const auto& in : n->inputs) ++in->pending_consumers;
  }
  for (const auto& r : roots) plan.protected_nodes.insert(r.get());
  return plan;
}

}  // namespace

Status Scheduler::Run(const std::vector<TaskNodePtr>& roots,
                      ExecutionReport* report) {
  CancellationToken local_cancel;
  CancellationToken* cancel =
      options_.cancel != nullptr ? options_.cancel : &local_cancel;
  std::vector<TaskNodePtr> order = TaskGraph::TopoSort(roots);
  if (options_.num_threads > 1 && pool_ != nullptr) {
    if (report != nullptr) {
      report->parallel = true;
      report->num_threads = options_.num_threads;
    }
    return RunParallel(order, roots, cancel, report);
  }
  if (report != nullptr) report->num_threads = 1;
  return RunSerial(order, roots, cancel, report);
}

Status Scheduler::RunSerial(const std::vector<TaskNodePtr>& order,
                            const std::vector<TaskNodePtr>& roots,
                            CancellationToken* cancel,
                            ExecutionReport* report) {
  RoundPlan plan = BuildPlan(order, roots);
  // Runnable nodes at or after topo index `from` — everything they
  // represent is abandoned when the round fails or is cancelled.
  auto count_abandoned = [&](size_t from) {
    int64_t count = 0;
    for (size_t j = from; j < order.size(); ++j) {
      const TaskNode* m = order[j].get();
      if (plan.needed.count(m) == 0 || plan.reused.count(m) > 0) continue;
      ++count;
    }
    return count;
  };
  for (size_t idx = 0; idx < order.size(); ++idx) {
    const TaskNodePtr& n = order[idx];
    if (plan.needed.count(n.get()) == 0) continue;
    if (plan.reused.count(n.get()) > 0) {
      if (report != nullptr) {
        ++report->nodes_reused;
        NodeStats stats;
        stats.node_id = n->id;
        stats.op = n->desc.ToString();
        stats.reused = true;
        report->nodes.push_back(std::move(stats));
      }
      continue;  // carried over, nothing to do
    }
    if (cancel->cancelled()) {
      if (report != nullptr) report->nodes_cancelled += count_abandoned(idx);
      return Status::Cancelled("round cancelled");
    }
    NodeStats stats;
    stats.node_id = n->id;
    stats.is_print = n->is_print();
    trace::Span span(n->is_print() ? "print" : "node", "node");
    if (span.active()) {
      span.AddArg("node_id", n->id);
      span.AddArg("op", n->desc.ToString());
    }
    Timer timer;
    if (n->is_print()) {
      if (!n->print_done) {
        Status status = callbacks_.emit_print(n, &stats);
        if (!status.ok()) {
          cancel->Cancel();
          if (report != nullptr) {
            report->nodes_cancelled += count_abandoned(idx + 1);
          }
          return status;
        }
        n->print_done = true;
        n->executed = true;
        if (report != nullptr) ++report->prints_emitted;
      }
    } else if (!n->has_result()) {
      Status status = callbacks_.exec_node(n, &stats);
      if (!status.ok()) {
        cancel->Cancel();
        if (report != nullptr) {
          report->nodes_cancelled += count_abandoned(idx + 1);
        }
        return status;
      }
      if (report != nullptr) ++report->nodes_executed;
    }
    stats.wall_micros = timer.ElapsedMicros();
    if (span.active()) {
      span.AddArg("rows_in", stats.rows_in);
      span.AddArg("rows_out", stats.rows_out);
      span.AddArg("kernel_micros", stats.kernel_micros);
      span.AddArg("morsels", stats.morsels);
      if (stats.fallback) span.AddArg("fallback", 1);
    }
    if (report != nullptr) {
      report->kernel_micros += stats.kernel_micros;
      report->kernel_morsels += stats.morsels;
      report->parallel_kernels += stats.parallel_kernels;
      report->nodes.push_back(std::move(stats));
    }
    // Release inputs whose consumers in this round are all done.
    for (const auto& in : n->inputs) {
      if (--in->pending_consumers > 0) continue;
      if (!options_.clear_results) continue;
      if (in->persist || plan.protected_nodes.count(in.get()) > 0) continue;
      if (in->has_result()) {
        in->result = exec::BackendValue{};
        in->executed = false;
        if (report != nullptr) ++report->results_cleared;
      }
    }
  }
  if (report != nullptr) {
    std::sort(report->nodes.begin(), report->nodes.end(),
              [](const NodeStats& a, const NodeStats& b) {
                return a.node_id < b.node_id;
              });
  }
  return Status::OK();
}

Status Scheduler::RunParallel(const std::vector<TaskNodePtr>& order,
                              const std::vector<TaskNodePtr>& roots,
                              CancellationToken* cancel,
                              ExecutionReport* report) {
  RoundPlan plan = BuildPlan(order, roots);

  // Per-node scheduling state. `remaining` counts unsatisfied dependency
  // edges (inputs + order_deps, per edge, so duplicate edges balance);
  // `consumers` lists dependents one entry per edge. All mutation happens
  // under `mu`, which also provides the happens-before edge between a
  // producer writing node->result/executed and any consumer reading it.
  struct NodeState {
    TaskNodePtr node;
    int remaining = 0;
    std::vector<TaskNode*> consumers;
  };
  std::unordered_map<const TaskNode*, NodeState> states;
  states.reserve(order.size());
  for (const auto& n : order) {
    if (plan.needed.count(n.get()) == 0) continue;
    states[n.get()].node = n;
  }
  for (const auto& n : order) {
    if (plan.needed.count(n.get()) == 0) continue;
    if (plan.reused.count(n.get()) > 0) continue;  // satisfied at start
    NodeState& state = states[n.get()];
    auto add_edge = [&](const TaskNodePtr& dep) {
      if (dep == nullptr) return;
      if (plan.needed.count(dep.get()) == 0) return;
      if (plan.reused.count(dep.get()) > 0) return;  // already satisfied
      states[dep.get()].consumers.push_back(n.get());
      ++state.remaining;
    };
    for (const auto& in : n->inputs) add_edge(in);
    for (const auto& dep : n->order_deps) add_edge(dep);
  }

  int64_t total_runnable = 0;
  for (const auto& n : order) {
    if (plan.needed.count(n.get()) == 0) continue;
    if (plan.reused.count(n.get()) > 0) continue;
    ++total_runnable;
  }

  std::mutex mu;
  WaitGroup wg;
  Status first_error = Status::OK();
  // Nodes whose task reached a terminal state: completed (callback OK or
  // nothing to do) or failed. After wg.Wait everything else — drained
  // tasks and tasks never dispatched — is by definition cancelled.
  int64_t completed = 0;
  int64_t failures = 0;

  // Reused leaves complete immediately (stats only; they release nothing,
  // and no dependency edge was counted against them).
  if (report != nullptr) {
    for (const auto& n : order) {
      if (plan.reused.count(n.get()) == 0) continue;
      ++report->nodes_reused;
      NodeStats stats;
      stats.node_id = n->id;
      stats.op = n->desc.ToString();
      stats.reused = true;
      report->nodes.push_back(std::move(stats));
    }
  }

  // The caller's span context (the round span), captured here and
  // installed on each worker so node spans attribute to the round even
  // though they open on pool threads.
  const uint64_t round_span = trace::Tracer::CurrentSpanId();

  // Runs one ready node on a pool worker, then (under the lock) records
  // stats, releases dependents, and applies §2.6 clearing for inputs whose
  // last in-round consumer has now finished. Dispatching new ready nodes
  // happens before wg.Done() so the group count never dips to zero early.
  std::function<void(TaskNode*)> run_node = [&](TaskNode* raw) {
    NodeState& state = states[raw];
    const TaskNodePtr& n = state.node;
    NodeStats stats;
    stats.node_id = n->id;
    stats.is_print = n->is_print();
    Status status = Status::OK();
    bool emitted_print = false;
    bool executed_node = false;
    if (cancel->cancelled()) {
      // A sibling failed (or the caller cancelled): drain without
      // executing so the group empties. The node counts as cancelled.
      wg.Done();
      return;
    }
    {
      // Scoped so the span is recorded before wg.Done(): once the group
      // count reaches zero Run() may return, and a caller snapshotting
      // the tracer right after must see every node span of the round.
      trace::SpanContextScope round_ctx(round_span);
      trace::Span span(n->is_print() ? "print" : "node", "node");
      if (span.active()) {
        span.AddArg("node_id", n->id);
        span.AddArg("op", n->desc.ToString());
      }
      Timer timer;
      if (n->is_print()) {
        if (!n->print_done) {
          status = callbacks_.emit_print(n, &stats);
          if (status.ok()) {
            n->print_done = true;
            n->executed = true;
            emitted_print = true;
          }
        }
      } else if (!n->has_result()) {
        status = callbacks_.exec_node(n, &stats);
        executed_node = status.ok();
      }
      stats.wall_micros = timer.ElapsedMicros();
      if (span.active()) {
        span.AddArg("rows_in", stats.rows_in);
        span.AddArg("rows_out", stats.rows_out);
        span.AddArg("kernel_micros", stats.kernel_micros);
        span.AddArg("morsels", stats.morsels);
        if (stats.fallback) span.AddArg("fallback", 1);
      }
    }

    {
      std::lock_guard<std::mutex> lock(mu);
      if (!status.ok()) {
        ++failures;
        if (!cancel->cancelled()) first_error = status;
        cancel->Cancel();
      } else {
        ++completed;
        if (report != nullptr) {
          if (emitted_print) ++report->prints_emitted;
          if (executed_node) ++report->nodes_executed;
          report->kernel_micros += stats.kernel_micros;
          report->kernel_morsels += stats.morsels;
          report->parallel_kernels += stats.parallel_kernels;
          report->nodes.push_back(stats);
        }
        // Release this node's inputs (per-edge, mirrors the serial path).
        for (const auto& in : n->inputs) {
          if (--in->pending_consumers > 0) continue;
          if (!options_.clear_results) continue;
          if (in->persist || plan.protected_nodes.count(in.get()) > 0) {
            continue;
          }
          if (in->has_result()) {
            // Safe: every in-round consumer of `in` has completed (the
            // counter only reaches zero under this lock, after their
            // exec callbacks returned).
            in->result = exec::BackendValue{};
            in->executed = false;
            if (report != nullptr) ++report->results_cleared;
          }
        }
        for (TaskNode* consumer : state.consumers) {
          if (--states[consumer].remaining == 0 && !cancel->cancelled()) {
            wg.Add();
            pool_->Submit([&run_node, consumer] { run_node(consumer); });
          }
        }
      }
    }
    // Done() is the task's last touch of Run's stack state; it must come
    // after `mu` is released so Run cannot tear the round down while this
    // worker still holds the lock.
    wg.Done();
  };

  // Seed the pool with every initially ready node. At most one print is
  // ever among them: the §3.3 order_deps chain keeps later prints blocked
  // until their predecessor emits, which preserves program print order.
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& n : order) {
      if (plan.needed.count(n.get()) == 0) continue;
      if (plan.reused.count(n.get()) > 0) continue;
      NodeState& state = states[n.get()];
      if (state.remaining == 0) {
        wg.Add();
        TaskNode* raw = n.get();
        pool_->Submit([&run_node, raw] { run_node(raw); });
      }
    }
  }
  wg.Wait();

  // After the group empties no task is running: every runnable node
  // either reached a terminal state or was abandoned (drained after the
  // token tripped, or never dispatched because a dependency failed).
  if (cancel->cancelled() && report != nullptr) {
    report->nodes_cancelled += total_runnable - completed - failures;
  }
  if (report != nullptr) {
    std::sort(report->nodes.begin(), report->nodes.end(),
              [](const NodeStats& a, const NodeStats& b) {
                return a.node_id < b.node_id;
              });
  }
  if (!first_error.ok()) return first_error;
  if (cancel->cancelled()) return Status::Cancelled("round cancelled");
  return Status::OK();
}

}  // namespace lafp::lazy
