#ifndef LAFP_TESTING_ORACLE_H_
#define LAFP_TESTING_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/backend.h"
#include "meta/metadata.h"

namespace lafp::testing {

/// How a fuzzed program executes: plain eager statements, the lazy
/// runtime with forcing prints (hand-ported Dask style), or full LaFP
/// (lazy + lazy print + JIT static analysis).
enum class OracleMode : int { kEager = 0, kLazy = 1, kLafp = 2 };

/// One point of the differential configuration matrix.
struct OracleConfig {
  exec::BackendKind backend = exec::BackendKind::kPandas;
  OracleMode mode = OracleMode::kEager;
  /// Graph-optimizer pass subset (lazy::Session OptimizerPass registry);
  /// applied in non-eager modes only.
  bool dedup = false;
  bool redundant = false;
  bool pushdown = false;
  /// ExecutionOptions sweep (DAG scheduler / morsel geometry).
  int num_threads = 1;
  int intra_op_threads = 0;
  size_t morsel_rows = 65536;
  size_t partition_rows = 8192;
  /// Dask spill-to-disk persistence.
  bool spill = false;
  /// Fault-injection specs (LAFP_FAULTS grammar) armed only while the
  /// program executes under this config — the fault axis of the matrix.
  /// The oracle contract with faults armed: the run either produces
  /// reference-identical output or fails with a clean Status; it must
  /// never crash, hang, or print a truncated frame that checksums ok.
  std::string faults;
  /// Plan/result-cache axis: the program runs twice against one fresh
  /// ResultCache — a cold pass that populates it and a warm pass that
  /// splices cached subtrees. The warm outcome is compared against the
  /// reference, and any cold/warm self-mismatch is reported as a failed
  /// Status (which the oracle treats as a divergence since cache configs
  /// never arm faults).
  bool cache = false;
  /// Native-columnar axis: the program replays against LFC conversions of
  /// its base tables (the fuzz harness substitutes `.lfc` paths for this
  /// config; read_csv transparently dispatches on the magic). `lfc_prune`
  /// toggles the zone-map pruning optimizer pass so both the pruned and
  /// unpruned scan paths are cross-checked against the CSV reference.
  bool lfc = false;
  bool lfc_prune = true;
  /// Shared-nothing axis: > 0 runs the program on the shard backend with
  /// that many forked worker processes (overrides `backend`). 0 = off.
  int shards = 0;

  /// Compact display name, e.g. "lafp-modin+dp t4 m1".
  std::string Name() const;
};

/// The oracle baseline: the eager Pandas interpreter with every
/// optimization off — the semantics LaFP promises to preserve.
OracleConfig ReferenceConfig();

/// A deterministic sample of `n` matrix points (always includes the full
/// LaFP config on each backend; the rest drawn from the cross product).
std::vector<OracleConfig> SampleConfigs(uint64_t seed, int n);

/// The small fixed matrix the regression corpus replays: all three
/// backends, every single-pass and all-pass subset, serial and parallel,
/// plus LfcConfigs' two anchors (LaFP Pandas pruned, LaFP Modin unpruned).
std::vector<OracleConfig> RegressionConfigs();

/// `n` matrix points with a fault spec armed (the --faults axis): base
/// configs drawn like SampleConfigs, each crossed with one injection
/// site; spill faults force a spilling Dask config so the site is hit.
std::vector<OracleConfig> FaultConfigs(uint64_t seed, int n);

/// `n` matrix points with the result-cache axis armed (the --cache axis):
/// base configs drawn like SampleConfigs, forced into a lazy mode (the
/// splicer only runs in lazy sessions) with `cache = true` and no faults.
std::vector<OracleConfig> CacheConfigs(uint64_t seed, int n);

/// `n` matrix points with the native-columnar axis armed (the --lfc
/// axis): base configs drawn like SampleConfigs with `lfc = true` and no
/// faults; alternate points disable the zone-prune pass so pruned and
/// unpruned LFC scans are both differentially checked.
std::vector<OracleConfig> LfcConfigs(uint64_t seed, int n);

/// `n` matrix points with the shared-nothing axis armed (the --shards
/// axis): base configs drawn like SampleConfigs, forced onto the shard
/// backend with 1/2/4 worker processes and no faults, so any divergence
/// from the single-process reference is a real cross-process bug.
std::vector<OracleConfig> ShardConfigs(uint64_t seed, int n);

/// Result of one program execution.
struct RunOutcome {
  Status status;           // program-level failure (not a divergence)
  std::string output;      // full printed output
  std::string checksums;   // just the "checksum ..." lines
};

/// Execute `source` (placeholders already substituted) under `config`
/// with a fresh session, tracker, and output stream. LaFP configs take
/// their §3.6 CSV dtype hints from `metastore` (none when null); LFC
/// reads need none.
RunOutcome ExecuteUnderConfig(const std::string& source,
                              const OracleConfig& config,
                              meta::MetaStore* metastore = nullptr);

/// Compare a run against the reference. Returns a human-readable
/// divergence description, or nullopt when the run is observationally
/// identical. Frame payloads (checksum lines, canonicalized row order)
/// must match everywhere; full printed output must additionally match for
/// order-preserving backends (Dask legitimately reorders rows, §5.2).
std::optional<std::string> CompareOutcomes(const RunOutcome& reference,
                                           const RunOutcome& run,
                                           const OracleConfig& config);

/// Extract the "checksum ..." lines from captured output.
std::string ChecksumLines(const std::string& output);

}  // namespace lafp::testing

#endif  // LAFP_TESTING_ORACLE_H_
