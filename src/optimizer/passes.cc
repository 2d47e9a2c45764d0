#include "optimizer/passes.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "optimizer/predicate.h"

namespace lafp::opt {

using exec::ColumnEffect;
using exec::OpDesc;
using exec::OpKind;
using exec::OpTraits;
using lazy::Session;
using lazy::TaskGraph;
using lazy::TaskNode;
using lazy::TaskNodePtr;

Status DeduplicateNodes(Session* session,
                        const std::vector<TaskNodePtr>& roots,
                        PassStats* stats) {
  std::vector<TaskNodePtr> order = TaskGraph::TopoSort(roots);
  std::unordered_map<std::string, TaskNodePtr> canon;
  std::unordered_map<const TaskNode*, TaskNodePtr> replacement;
  (void)session;
  for (const auto& node : order) {
    // Redirect inputs through earlier replacements first.
    for (auto& in : node->inputs) {
      auto it = replacement.find(in.get());
      if (it != replacement.end()) in = it->second;
    }
    if (node->is_print() || node->executed) continue;
    // Spliced cache payloads live on the TaskNode, not in OpDesc: two
    // cleared kMaterialized leaves have equal fingerprints but distinct
    // payloads, so they must never merge.
    if (node->desc.kind == OpKind::kMaterialized) continue;
    std::string key = node->desc.Fingerprint();
    for (const auto& in : node->inputs) {
      key += "#" + std::to_string(in->id);
    }
    auto [it, inserted] = canon.emplace(std::move(key), node);
    if (!inserted && it->second != node) {
      replacement[node.get()] = it->second;
      // Persistence intent carries over to the canonical node.
      if (node->persist) it->second->persist = true;
      if (stats != nullptr) ++stats->nodes_deduplicated;
    }
  }
  return Status::OK();
}

Status EliminateRedundantOps(Session* session,
                             const std::vector<TaskNodePtr>& roots,
                             PassStats* stats) {
  (void)session;
  for (const auto& node : TaskGraph::TopoSort(roots)) {
    if (node->executed || node->inputs.empty()) continue;
    const TaskNodePtr& in = node->inputs[0];
    if (in->executed) continue;
    bool removed = false;
    switch (node->desc.kind) {
      case OpKind::kHead:
        if (in->desc.kind == OpKind::kHead) {
          node->desc.n = std::min(node->desc.n, in->desc.n);
          node->inputs = in->inputs;
          removed = true;
        } else if (in->desc.kind == OpKind::kSortValues) {
          // head(sort_values(X)) == top_k(X): the first n rows of the
          // stable order, without sorting X. The sort still runs for any
          // other consumer.
          node->desc.kind = OpKind::kTopK;
          node->desc.columns = in->desc.columns;
          node->desc.ascending = in->desc.ascending;
          node->inputs = in->inputs;
          removed = true;
        }
        break;
      case OpKind::kSelect:
        // select(select(X)) == select(X): the outer projection decides.
        if (in->desc.kind == OpKind::kSelect) {
          node->inputs = in->inputs;
          removed = true;
        }
        break;
      case OpKind::kAsType:
        if (in->desc.kind == OpKind::kAsType &&
            in->desc.dtype == node->desc.dtype) {
          node->inputs = in->inputs;
          removed = true;
        }
        break;
      case OpKind::kBooleanNot:
        if (in->desc.kind == OpKind::kBooleanNot) {
          // not(not(X)) == X: become X's op.
          const TaskNodePtr& inner = in->inputs[0];
          node->desc = inner->desc;
          node->inputs = inner->inputs;
          removed = true;
        }
        break;
      default:
        break;
    }
    if (removed && stats != nullptr) ++stats->redundant_ops_removed;
  }
  return Status::OK();
}

namespace {

bool ProducesScalar(const TaskNodePtr& node) {
  return exec::Traits(node->desc.kind).Is(OpTraits::kScalarResult);
}

/// Attempt to push one filter node below its input operator. Mutates
/// `filter` in place so existing handles keep pointing at the (now
/// reordered) value. Returns true on success.
bool TryPushFilter(Session* session, const TaskNodePtr& filter) {
  if (filter->executed || filter->inputs.size() != 2) return false;
  const TaskNodePtr u = filter->inputs[0];
  if (u->executed || u->inputs.empty()) return false;
  // Condition (2) of §3.2, and a known column effect for condition (1).
  const OpTraits& traits = exec::Traits(u->desc.kind);
  if (!traits.Is(OpTraits::kRowwiseInvariant)) return false;
  if (traits.effect == ColumnEffect::kOpaque) return false;
  // Condition (3): the filter must be u's only consumer — not counting
  // the filter's own mask chain, which necessarily reads from u
  // (df[df.b < 20]) and is re-anchored by the rewrite.
  std::unordered_set<const TaskNode*> mask_nodes;
  for (const auto& n : TaskGraph::TopoSort({filter->inputs[1]})) {
    mask_nodes.insert(n.get());
  }
  for (const auto& consumer : session->graph()->Consumers(u.get())) {
    if (consumer.get() == filter.get()) continue;
    if (mask_nodes.count(consumer.get()) > 0) continue;
    return false;
  }

  auto pred = ExtractPredicate(filter->inputs[1], u);
  if (!pred.has_value()) return false;
  std::vector<std::string> pred_cols;
  pred->CollectColumns(&pred_cols);

  // Condition (1): u must not modify/compute the predicate's columns.
  switch (traits.effect) {
    case ColumnEffect::kOpaque:
    case ColumnEffect::kPreserves:
      break;
    case ColumnEffect::kWrites:
      if (std::find(pred_cols.begin(), pred_cols.end(), u->desc.column) !=
          pred_cols.end()) {
        return false;
      }
      break;
    case ColumnEffect::kRenames: {
      // Rename keeps values; map predicate columns back to pre-rename names.
      std::map<std::string, std::string> reverse;
      for (const auto& [from, to] : u->desc.rename) reverse[to] = from;
      pred->RenameColumns(reverse);
      break;
    }
  }
  // drop_duplicates keeps the first row per key: filtering first is only
  // equivalent when duplicates agree on the predicate columns, i.e. the
  // predicate only reads subset columns (empty subset = all columns, safe).
  if (u->desc.kind == OpKind::kDropDuplicates && !u->desc.columns.empty()) {
    for (const auto& c : pred_cols) {
      if (std::find(u->desc.columns.begin(), u->desc.columns.end(), c) ==
          u->desc.columns.end()) {
        return false;
      }
    }
  }

  TaskGraph* graph = session->graph();
  const TaskNodePtr& anchor = u->inputs[0];
  TaskNodePtr mask = BuildMask(graph, *pred, anchor);

  // Filter every row-aligned frame input of u with the re-anchored mask.
  std::vector<TaskNodePtr> new_inputs;
  for (size_t i = 0; i < u->inputs.size(); ++i) {
    const TaskNodePtr& in = u->inputs[i];
    if (ProducesScalar(in)) {
      new_inputs.push_back(in);  // scalars have no rows to filter
      continue;
    }
    OpDesc fdesc;
    fdesc.kind = OpKind::kFilter;
    new_inputs.push_back(graph->NewNode(std::move(fdesc), {in, mask}));
  }
  // The user-visible filter node becomes u applied to filtered inputs.
  filter->desc = u->desc;
  filter->inputs = std::move(new_inputs);
  return true;
}

/// Flatten the kAnd spine of `pred` into compare-with-scalar conjuncts.
/// kOr/kNot subtrees and non-compare leaves (isna, str.contains)
/// contribute nothing — pruning on any subset of the conjunction is
/// still sound, since a chunk where one conjunct matches no row has no
/// row matching the whole predicate.
void CollectPruneConjuncts(const Predicate& pred,
                           std::vector<io::LfcPredicate>* out) {
  if (pred.kind == Predicate::Kind::kAnd) {
    for (const auto& child : pred.children) {
      CollectPruneConjuncts(child, out);
    }
    return;
  }
  if (pred.kind == Predicate::Kind::kLeaf &&
      pred.op.kind == OpKind::kCompare && pred.op.has_scalar) {
    out->push_back({pred.column, pred.op.compare_op, pred.op.scalar});
  }
}

}  // namespace

Status PruneZoneMaps(Session* session,
                     const std::vector<TaskNodePtr>& roots,
                     PassStats* stats) {
  TaskGraph* graph = session->graph();
  for (const auto& node : TaskGraph::TopoSort(roots)) {
    if (node->desc.kind != OpKind::kFilter) continue;
    if (node->executed || node->inputs.size() != 2) continue;
    const TaskNodePtr read = node->inputs[0];
    if (read->desc.kind != OpKind::kReadLfc || read->executed) continue;
    if (!read->desc.lfc_options.prune_enabled) continue;
    if (!read->desc.lfc_options.prune.empty()) continue;  // already pruned
    // Same sole-consumer condition as pushdown: if anything besides this
    // filter (and its own mask chain) reads the scan, a cloned pruned
    // read would run the IO twice.
    std::unordered_set<const TaskNode*> mask_nodes;
    for (const auto& n : TaskGraph::TopoSort({node->inputs[1]})) {
      mask_nodes.insert(n.get());
    }
    bool sole = true;
    for (const auto& consumer : graph->Consumers(read.get())) {
      if (consumer.get() == node.get()) continue;
      if (mask_nodes.count(consumer.get()) > 0) continue;
      sole = false;
      break;
    }
    if (!sole) continue;
    auto pred = ExtractPredicate(node->inputs[1], read);
    if (!pred.has_value()) continue;
    std::vector<io::LfcPredicate> conjuncts;
    CollectPruneConjuncts(*pred, &conjuncts);
    if (conjuncts.empty()) continue;
    // Clone rather than mutate: interior mask nodes can be user-held
    // variables forced in a later round, and those must keep seeing the
    // unpruned scan.
    OpDesc pruned_desc = read->desc;
    pruned_desc.lfc_options.prune = std::move(conjuncts);
    TaskNodePtr pruned_read = graph->NewNode(std::move(pruned_desc), {});
    TaskNodePtr mask = BuildMask(graph, *pred, pruned_read);
    node->inputs = {pruned_read, mask};
    if (stats != nullptr) ++stats->zone_prunes_attached;
  }
  return Status::OK();
}

Status PushDownPredicates(Session* session,
                          const std::vector<TaskNodePtr>& roots,
                          PassStats* stats) {
  constexpr int kMaxRounds = 64;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (const auto& node : TaskGraph::TopoSort(roots)) {
      if (node->desc.kind != OpKind::kFilter) continue;
      if (TryPushFilter(session, node)) {
        changed = true;
        if (stats != nullptr) ++stats->predicates_pushed;
      }
    }
    if (!changed) break;
  }
  return Status::OK();
}

namespace {

using PassFn = Status (*)(Session*, const std::vector<TaskNodePtr>&,
                          PassStats*);

/// Adapter from the module's free-function passes to the session's
/// OptimizerPass registry. The live set participates so shared chains
/// between the compute target and later uses are physically merged
/// before the session's persist marking sees them.
lazy::OptimizerPassFn WrapPass(PassFn fn, PassStats* stats) {
  return [fn, stats](Session* s, const std::vector<TaskNodePtr>& roots,
                     const std::vector<TaskNodePtr>& live) {
    std::vector<TaskNodePtr> all = roots;
    all.insert(all.end(), live.begin(), live.end());
    return fn(s, all, stats);
  };
}

}  // namespace

void InstallDefaultOptimizer(Session* session,
                             const OptimizerOptions& options,
                             PassStats* cumulative_stats) {
  // Registered as named passes so each round's ExecutionReport lists
  // them (with per-pass wall time) under these names.
  session->ClearOptimizerPasses();
  // When no cumulative sink is supplied, stats land in a sacrificial
  // accumulator owned by the pass closures.
  auto local = std::make_shared<PassStats>();
  PassStats* stats = cumulative_stats != nullptr ? cumulative_stats
                                                 : local.get();
  auto add = [session, local](std::string name,
                              lazy::OptimizerPassFn hook) {
    session->RegisterOptimizerPass(lazy::MakeFunctionPass(
        std::move(name),
        [local, hook = std::move(hook)](
            Session* s, const std::vector<TaskNodePtr>& roots,
            const std::vector<TaskNodePtr>& live) {
          return hook(s, roots, live);
        }));
  };
  if (options.deduplicate) {
    add("dedup", WrapPass(&DeduplicateNodes, stats));
  }
  if (options.redundant) {
    add("redundant-elim", WrapPass(&EliminateRedundantOps, stats));
  }
  if (options.pushdown) {
    add("pushdown", WrapPass(&PushDownPredicates, stats));
  }
  if (options.zone_prune) {
    // After pushdown: filters have been sunk onto their scan leaves, so
    // the filter-directly-on-kReadLfc shape this pass matches exists.
    add("zone-prune", WrapPass(&PruneZoneMaps, stats));
  }
  if (options.deduplicate) {
    // Pushdown can re-create structurally identical filter chains; a
    // final dedup merges them.
    add("dedup-final", WrapPass(&DeduplicateNodes, stats));
  }
}

}  // namespace lafp::opt
