#ifndef LAFP_LAZY_PLAN_FINGERPRINT_H_
#define LAFP_LAZY_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lazy/task_graph.h"

namespace lafp::lazy {

/// Canonical identity of a task-graph subtree, the key half of the
/// cross-query result cache (DESIGN.md "Plan & result cache").
///
/// Canonicalization contract:
///  - node ids, handle identity, and print chaining never affect the hash;
///  - column renames are normalized away whenever the schema is statically
///    known (so `read(f).rename(a->b)[...b...]` hashes like
///    `read(f)[...a...]`), otherwise they hash structurally;
///  - op kind, op parameters, and input order always affect the hash;
///  - CSV sources contribute a separate input fingerprint
///    (io/fingerprint.h) so a file edit invalidates without changing the
///    plan hash.
struct PlanFingerprint {
  /// Name-normalized structural hash of the subtree.
  uint64_t plan_hash = 0;
  /// Combined fingerprint of every CSV source in the subtree.
  uint64_t input_hash = 0;
  /// False for prints, plans whose sources cannot be fingerprinted, plans
  /// that would error against the known schema, and plans whose output
  /// naming cannot be canonicalized soundly. Uncacheable nodes get a
  /// unique poison hash so they can never collide in the cache.
  bool cacheable = false;
  /// Statically inferred output columns as (visible, canonical) pairs, in
  /// output order. nullopt = unknown schema; canonicalization is then the
  /// identity (raw names were hashed), which is sound because any plan
  /// with an equal hash used the same raw names.
  std::optional<std::vector<std::pair<std::string, std::string>>> schema;
  /// The node statically produces a scalar (len/reduce), not a frame.
  bool scalar = false;

  /// True when every visible name equals its canonical name (or the
  /// schema is unknown). Cached values are stored under canonical names;
  /// non-identity fingerprints relabel on insert and hit.
  bool identity_names() const;
};

/// Bottom-up fingerprint computation with per-node memoization. One
/// instance serves one execution round: optimizer passes may rewrite the
/// graph between rounds, so call Reset() (or use a fresh instance) before
/// fingerprinting a new round. File fingerprints and CSV headers are
/// memoized per path for the instance's lifetime.
class PlanFingerprinter {
 public:
  PlanFingerprinter() = default;

  /// Fingerprint of the subtree rooted at `node`. Never fails: problems
  /// surface as cacheable == false.
  const PlanFingerprint& Fingerprint(const TaskNodePtr& node);

  /// Drop the per-node memo (keeps file/header memos: file identity is
  /// sampled once per round anyway, and tests mutate files only between
  /// rounds of *different* fingerprinter instances).
  void Reset() { memo_.clear(); }

 private:
  PlanFingerprint Compute(const TaskNodePtr& node);
  PlanFingerprint Poison(const TaskNodePtr& node);
  /// Output schema (and, for scans, input hash) of an OutputNames::kCustom
  /// node from its first input's schema; false when the node must not
  /// cache.
  bool CustomSchema(
      const exec::OpDesc& d,
      const std::optional<std::vector<std::pair<std::string, std::string>>>&
          in0,
      PlanFingerprint* fp);
  /// Input fingerprint (path + size + mtime + sample) for a CSV source;
  /// nullopt when the file cannot be fingerprinted.
  std::optional<uint64_t> FileHash(const std::string& path);
  /// Header names for a CSV source; nullopt on IO error or duplicates.
  const std::optional<std::vector<std::string>>& Header(
      const std::string& path, char delimiter);
  /// Column names for an LFC source; nullopt on IO error. Memoized like
  /// Header: footer parsing mmaps and decodes dictionaries, which must
  /// not be repaid on every fingerprint of the same path.
  const std::optional<std::vector<std::string>>& LfcColumns(
      const std::string& path);

  std::unordered_map<const TaskNode*, PlanFingerprint> memo_;
  std::unordered_map<std::string, std::optional<uint64_t>> file_memo_;
  std::unordered_map<std::string, std::optional<std::vector<std::string>>>
      header_memo_;
  std::unordered_map<std::string, std::optional<std::vector<std::string>>>
      lfc_header_memo_;
  uint64_t poison_seq_ = 0;
};

}  // namespace lafp::lazy

#endif  // LAFP_LAZY_PLAN_FINGERPRINT_H_
