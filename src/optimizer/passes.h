#ifndef LAFP_OPTIMIZER_PASSES_H_
#define LAFP_OPTIMIZER_PASSES_H_

#include <vector>

#include "lazy/session.h"

namespace lafp::opt {

/// Statistics reported by one optimization round (tests and the bench
/// harness read these).
struct PassStats {
  int predicates_pushed = 0;
  int nodes_deduplicated = 0;
  int redundant_ops_removed = 0;
  int zone_prunes_attached = 0;
};

/// Merge structurally identical nodes (same op fingerprint, same inputs)
/// so shared subexpressions execute once per round. Consumers inside the
/// reachable graph are redirected to a canonical node; executed nodes and
/// prints are never touched.
Status DeduplicateNodes(lazy::Session* session,
                        const std::vector<lazy::TaskNodePtr>& roots,
                        PassStats* stats);

/// Local algebraic cleanups: head(head), select(select), astype(astype)
/// with the same type, not(not), and head(sort_values) into one top_k.
Status EliminateRedundantOps(lazy::Session* session,
                             const std::vector<lazy::TaskNodePtr>& roots,
                             PassStats* stats);

/// Predicate pushdown with safe points (paper §3.2): each filter whose
/// mask reifies into a Predicate is pushed below safe row-wise operators
/// (set_item, select, rename, drop, sort_values, drop_duplicates) when
///   (1) the operator does not modify the predicate's columns,
///   (2) the operator is row-wise invariant, and
///   (3) the filter is the operator's only consumer.
/// Runs to a fixpoint.
Status PushDownPredicates(lazy::Session* session,
                          const std::vector<lazy::TaskNodePtr>& roots,
                          PassStats* stats);

/// Zone-map pruning for native columnar scans: for each filter sitting
/// directly on a kReadLfc leaf (after pushdown has sunk it there), reify
/// the mask into a Predicate and attach its top-level compare-with-scalar
/// conjuncts as `LfcReadOptions::prune`, so the scan skips chunks whose
/// zone maps prove no row can match. The shared read node is never
/// mutated: the filter is repointed at a cloned read (+ re-anchored mask)
/// so interior mask nodes held as user variables still observe the full
/// scan if forced later. Sound by construction — a chunk is only skipped
/// when *some* conjunct provably matches no row in it, and the filter
/// kernel still runs above the pruned scan.
Status PruneZoneMaps(lazy::Session* session,
                     const std::vector<lazy::TaskNodePtr>& roots,
                     PassStats* stats);

struct OptimizerOptions {
  bool deduplicate = true;
  bool pushdown = true;
  bool redundant = true;
  bool zone_prune = true;
};

/// Register the default pass pipeline with the session's OptimizerPass
/// registry (named passes "dedup" -> "redundant-elim" -> "pushdown" ->
/// "zone-prune" -> "dedup-final", visible in each round's
/// ExecutionReport), replacing any previously registered passes.
/// Cumulative stats, if provided, must outlive the session.
void InstallDefaultOptimizer(lazy::Session* session,
                             const OptimizerOptions& options = {},
                             PassStats* cumulative_stats = nullptr);

}  // namespace lafp::opt

#endif  // LAFP_OPTIMIZER_PASSES_H_
