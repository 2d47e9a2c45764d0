#ifndef LAFP_LAZY_TASK_GRAPH_H_
#define LAFP_LAZY_TASK_GRAPH_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/backend.h"
#include "exec/op.h"

namespace lafp::lazy {

struct PlanFingerprint;

/// One node of the LaFP task graph (paper §2.5, Figure 6). Nodes are
/// created by FatDataFrame API calls and carry:
///  - the operator description,
///  - data-dependency edges (`inputs`),
///  - ordering edges for lazy prints (`order_deps`, §3.3),
///  - execution state: the backend value once computed, and the consumer
///    refcount used for eager result clearing (§2.6).
struct TaskNode {
  int64_t id = 0;
  exec::OpDesc desc;
  std::vector<std::shared_ptr<TaskNode>> inputs;
  std::vector<std::shared_ptr<TaskNode>> order_deps;

  /// Marked by the common-computation-reuse optimization (§3.5): the
  /// node's result survives result clearing and, on a lazy backend, is
  /// persisted.
  bool persist = false;

  /// For print nodes: the literal text, one segment more than `inputs`.
  /// Segment k comes before the display form of inputs[k] (the f-string
  /// escape-ID mechanism, §3.3); the last one follows the last input.
  std::vector<std::string> print_segments;

  /// Set by the cache-splice pass (lazy/result_cache.h) when the node's
  /// original subtree was replaced by a cached result: the eager payload
  /// (already relabeled to this plan's visible column names) plus the
  /// fingerprint the subtree carried at splice time. The payload outlives
  /// result clearing (§2.6), so a cleared spliced node re-imports it
  /// instead of re-executing a subtree that no longer exists.
  std::shared_ptr<const exec::EagerValue> materialized;
  std::shared_ptr<const PlanFingerprint> spliced_fp;

  // ---- execution state ----
  exec::BackendValue result;
  bool executed = false;
  bool print_done = false;  // print side effect already emitted
  int pending_consumers = 0;

  bool is_print() const { return desc.kind == exec::OpKind::kPrint; }
  bool has_result() const { return executed && !result.empty(); }
};

using TaskNodePtr = std::shared_ptr<TaskNode>;

/// Registry and utilities over the DAG. The graph does not own execution —
/// the Session does — but tracks every node created in a session so the
/// optimizer can reason about parents (safe-point condition 3 of §3.2).
class TaskGraph {
 public:
  TaskNodePtr NewNode(exec::OpDesc desc, std::vector<TaskNodePtr> inputs);

  /// Topological order of all nodes reachable from `roots` via inputs and
  /// order_deps (dependencies first).
  static std::vector<TaskNodePtr> TopoSort(
      const std::vector<TaskNodePtr>& roots);

  /// Number of live nodes whose `inputs` contain `node`.
  int CountConsumers(const TaskNode* node) const;

  /// All live nodes that consume `node`.
  std::vector<TaskNodePtr> Consumers(const TaskNode* node) const;

  /// All nodes still alive (referenced by handles or other nodes).
  std::vector<TaskNodePtr> LiveNodes() const;

  /// Graphviz DOT dump of everything reachable from `roots` (debug aid;
  /// mirrors the paper's task-graph figures).
  static std::string ToDot(const std::vector<TaskNodePtr>& roots);

  int64_t num_created() const { return next_id_; }

 private:
  void Compact() const;

  int64_t next_id_ = 0;
  mutable std::vector<std::weak_ptr<TaskNode>> nodes_;
};

}  // namespace lafp::lazy

#endif  // LAFP_LAZY_TASK_GRAPH_H_
