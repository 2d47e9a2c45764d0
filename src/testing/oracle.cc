#include "testing/oracle.h"

#include <sstream>

#include "common/memory_tracker.h"
#include "lazy/session.h"
#include "optimizer/passes.h"
#include "script/analyze.h"
#include "testing/rng.h"

namespace lafp::testing {

std::string OracleConfig::Name() const {
  std::string name;
  switch (mode) {
    case OracleMode::kEager:
      name = "eager-";
      break;
    case OracleMode::kLazy:
      name = "lazy-";
      break;
    case OracleMode::kLafp:
      name = "lafp-";
      break;
  }
  name += exec::BackendKindName(backend);
  if (dedup || redundant || pushdown) {
    name += "+";
    if (dedup) name += "d";
    if (redundant) name += "r";
    if (pushdown) name += "p";
  }
  name += " t" + std::to_string(num_threads);
  if (intra_op_threads != 0) {
    name += " k" + std::to_string(intra_op_threads);
  }
  if (morsel_rows != 65536) name += " m" + std::to_string(morsel_rows);
  if (partition_rows != 8192) name += " pr" + std::to_string(partition_rows);
  if (spill) name += " spill";
  if (!faults.empty()) name += " faults[" + faults + "]";
  if (cache) name += " cache";
  if (lfc) name += lfc_prune ? " lfc" : " lfc-np";
  if (shards > 0) name += " sh" + std::to_string(shards);
  return name;
}

OracleConfig ReferenceConfig() {
  return OracleConfig{};  // eager Pandas, no passes, serial everywhere
}

std::vector<OracleConfig> SampleConfigs(uint64_t seed, int n) {
  std::vector<OracleConfig> configs;
  // Anchor: the full LaFP pipeline on every backend — the paper's actual
  // claim — always present regardless of the sample size.
  for (auto backend :
       {exec::BackendKind::kPandas, exec::BackendKind::kModin,
        exec::BackendKind::kDask}) {
    OracleConfig c;
    c.backend = backend;
    c.mode = OracleMode::kLafp;
    c.dedup = c.redundant = c.pushdown = true;
    c.num_threads = backend == exec::BackendKind::kModin ? 4 : 1;
    configs.push_back(c);
  }
  SplitMix rng(seed);
  while (static_cast<int>(configs.size()) < n) {
    OracleConfig c;
    switch (rng.Below(3)) {
      case 0:
        c.backend = exec::BackendKind::kPandas;
        break;
      case 1:
        c.backend = exec::BackendKind::kModin;
        break;
      default:
        c.backend = exec::BackendKind::kDask;
        break;
    }
    if (c.backend == exec::BackendKind::kDask) {
      // Dask is a lazy engine: its plan caches are driven through the
      // lazy runtime in every real configuration.
      c.mode = rng.Chance(0.5) ? OracleMode::kLazy : OracleMode::kLafp;
      c.spill = rng.Chance(0.3);
    } else {
      switch (rng.Below(3)) {
        case 0:
          c.mode = OracleMode::kEager;
          break;
        case 1:
          c.mode = OracleMode::kLazy;
          break;
        default:
          c.mode = OracleMode::kLafp;
          break;
      }
    }
    if (c.mode != OracleMode::kEager) {
      unsigned mask = static_cast<unsigned>(rng.Below(8));
      c.dedup = (mask & 1) != 0;
      c.redundant = (mask & 2) != 0;
      c.pushdown = (mask & 4) != 0;
    }
    c.num_threads = rng.Chance(0.5) ? 1 : 4;
    static const int kIntraOp[] = {0, 1, 8};
    c.intra_op_threads = kIntraOp[rng.Below(3)];
    if (c.intra_op_threads != 0 && rng.Chance(0.4)) c.morsel_rows = 1;
    static const size_t kPartitionRows[] = {8192, 7, 32};
    c.partition_rows = kPartitionRows[rng.Below(3)];
    configs.push_back(c);
  }
  return configs;
}

std::vector<OracleConfig> FaultConfigs(uint64_t seed, int n) {
  static const char* kSites[] = {"spill.write", "spill.read",  "csv.read",
                                 "csv.write",   "mem.reserve", "backend.execute"};
  std::vector<OracleConfig> base = SampleConfigs(seed ^ 0xfa1u, n);
  SplitMix rng(seed * 0x9e3779b9ULL + 0xfa);
  std::vector<OracleConfig> configs;
  for (int i = 0; i < n; ++i) {
    OracleConfig c = base[static_cast<size_t>(i) % base.size()];
    const std::string site = kSites[rng.Below(6)];
    if (site.rfind("spill.", 0) == 0) {
      // Spill sites are only reachable from a spilling Dask round.
      c.backend = exec::BackendKind::kDask;
      if (c.mode == OracleMode::kEager) c.mode = OracleMode::kLazy;
      c.spill = true;
      c.partition_rows = 16;
    }
    std::string spec = site;
    if (rng.Chance(0.3)) {
      spec += ":p=0.5,seed=" + std::to_string(seed + i) + ",fires=2";
    } else {
      spec += ":nth=" + std::to_string(1 + rng.Below(4));
    }
    if (site == "mem.reserve") {
      spec += ",code=oom";  // budget denial must look like real OOM
    } else if (site == "backend.execute") {
      spec += ",code=exec";
    }
    c.faults = spec;
    configs.push_back(std::move(c));
  }
  return configs;
}

std::vector<OracleConfig> CacheConfigs(uint64_t seed, int n) {
  std::vector<OracleConfig> configs = SampleConfigs(seed ^ 0xcac4eull, n);
  for (auto& c : configs) {
    // The cache splicer only runs in lazy sessions; eager points would
    // exercise nothing. Faults stay off so a failed Status is always a
    // genuine divergence under this axis.
    if (c.mode == OracleMode::kEager) c.mode = OracleMode::kLafp;
    c.cache = true;
    c.faults.clear();
  }
  return configs;
}

std::vector<OracleConfig> LfcConfigs(uint64_t seed, int n) {
  std::vector<OracleConfig> configs = SampleConfigs(seed ^ 0x1fcull, n);
  size_t i = 0;
  for (auto& c : configs) {
    // The harness points these configs at LFC conversions of the base
    // tables; faults stay off so a failed Status is always a genuine
    // divergence. Alternate points run with zone-map pruning disabled so
    // the unpruned native scan is cross-checked too.
    c.lfc = true;
    c.lfc_prune = (i++ % 2) == 0;
    c.faults.clear();
  }
  return configs;
}

std::vector<OracleConfig> ShardConfigs(uint64_t seed, int n) {
  std::vector<OracleConfig> configs = SampleConfigs(seed ^ 0x54a7dull, n);
  SplitMix rng(seed * 0x9e3779b9ULL + 0x54);
  for (auto& c : configs) {
    // The shard count (1 included: the degenerate single-worker cluster
    // must also match) is the variable under test; faults stay off so a
    // failed Status is always a genuine divergence under this axis.
    static const int kShardCounts[] = {1, 2, 4};
    c.backend = exec::BackendKind::kShard;
    c.shards = kShardCounts[rng.Below(3)];
    c.spill = false;
    c.faults.clear();
  }
  return configs;
}

std::vector<OracleConfig> RegressionConfigs() {
  std::vector<OracleConfig> configs;
  for (auto backend :
       {exec::BackendKind::kPandas, exec::BackendKind::kModin,
        exec::BackendKind::kDask}) {
    const bool dask = backend == exec::BackendKind::kDask;
    for (unsigned mask : {0u, 1u, 2u, 4u, 7u}) {
      OracleConfig c;
      c.backend = backend;
      c.mode = dask ? OracleMode::kLazy : OracleMode::kEager;
      if (mask != 0) c.mode = OracleMode::kLafp;
      c.dedup = (mask & 1) != 0;
      c.redundant = (mask & 2) != 0;
      c.pushdown = (mask & 4) != 0;
      c.num_threads = backend == exec::BackendKind::kModin ? 4 : 1;
      c.partition_rows = 16;  // several partitions even on tiny repros
      configs.push_back(c);
    }
    // Threading / morsel-geometry points for the full-pass pipeline.
    OracleConfig threads;
    threads.backend = backend;
    threads.mode = dask ? OracleMode::kLazy : OracleMode::kLafp;
    threads.dedup = threads.redundant = threads.pushdown = !dask;
    threads.num_threads = 4;
    threads.intra_op_threads = 8;
    threads.morsel_rows = 1;
    threads.partition_rows = 16;
    threads.spill = dask;
    configs.push_back(threads);
  }
  // The LFC axis's anchors: footer category hints over pruned and
  // unpruned scans.
  for (auto& c : LfcConfigs(0, 2)) configs.push_back(std::move(c));
  return configs;
}

namespace {

/// One session run; `cache` (when non-null) is shared into the session so
/// successive calls can exercise cold/warm cache behaviour.
RunOutcome ExecuteOnce(const std::string& source, const OracleConfig& config,
                       const std::shared_ptr<lazy::ResultCache>& cache,
                       meta::MetaStore* metastore) {
  RunOutcome outcome;
  MemoryTracker tracker(0);
  std::stringstream output;

  lazy::SessionOptions opts;
  opts.backend = config.backend;
  opts.tracker = &tracker;
  opts.output = &output;
  opts.mode = config.mode == OracleMode::kEager ? lazy::ExecutionMode::kEager
                                                : lazy::ExecutionMode::kLazy;
  opts.lazy_print = config.mode == OracleMode::kLafp;
  opts.exec.num_threads = config.num_threads;
  opts.exec.intra_op_threads = config.intra_op_threads;
  opts.exec.morsel_rows = config.morsel_rows;
  opts.backend_config.partition_rows = config.partition_rows;
  opts.backend_config.spill_persisted = config.spill;
  if (config.shards > 0) {
    opts.backend = exec::BackendKind::kShard;
    opts.backend_config.shards = config.shards;
  }
  // Faults arm via the session so they cover exactly the program's
  // execution: the table CSVs were materialized before this call, and the
  // session's FaultScope restores (with fresh counters) on return —
  // replay and shrink see identical firing sequences.
  opts.fault_config = config.faults;
  opts.cache = cache;

  lazy::Session session(opts);
  // LFC configs install the optimizer even with every rewrite pass off so
  // the zone-prune pass can run (it is the only path that attaches prune
  // predicates to native scans); lfc_prune=false checks the unpruned scan.
  if (config.mode != OracleMode::kEager &&
      (config.dedup || config.redundant || config.pushdown || config.lfc)) {
    opt::OptimizerOptions pass_options;
    pass_options.deduplicate = config.dedup;
    pass_options.redundant = config.redundant;
    pass_options.pushdown = config.pushdown;
    pass_options.zone_prune = config.lfc_prune;
    opt::InstallDefaultOptimizer(&session, pass_options);
  }

  script::RunOptions run_opts;
  run_opts.analyze = config.mode == OracleMode::kLafp;
  run_opts.analyze_options.rewrite.metastore = metastore;

  outcome.status = script::RunProgram(source, &session, run_opts);
  outcome.output = output.str();
  outcome.checksums = ChecksumLines(outcome.output);
  return outcome;
}

}  // namespace

RunOutcome ExecuteUnderConfig(const std::string& source,
                              const OracleConfig& config,
                              meta::MetaStore* metastore) {
  if (!config.cache) return ExecuteOnce(source, config, nullptr, metastore);
  // Cache axis: cold pass populates a fresh shared cache, warm pass
  // splices from it; the warm outcome is what the matrix compares. A
  // cold/warm self-mismatch can hide from the reference comparison (the
  // warm run may be the correct one), so it is reported as a failed
  // Status — cache configs never arm faults, making that a divergence.
  auto cache = std::make_shared<lazy::ResultCache>();
  RunOutcome cold = ExecuteOnce(source, config, cache, metastore);
  RunOutcome warm = ExecuteOnce(source, config, cache, metastore);
  const bool order_preserving = config.backend != exec::BackendKind::kDask;
  const bool mismatch =
      cold.status.ok() != warm.status.ok() ||
      cold.checksums != warm.checksums ||
      (order_preserving && cold.status.ok() && cold.output != warm.output);
  if (mismatch) {
    RunOutcome outcome;
    outcome.status = Status::Invalid(
        "cache cold/warm self-mismatch: cold " + cold.status.ToString() +
        " vs warm " + warm.status.ToString() + "\n--- cold ---\n" +
        cold.output + "--- warm ---\n" + warm.output);
    return outcome;
  }
  return warm;
}

std::string ChecksumLines(const std::string& output) {
  std::istringstream in(output);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("checksum ", 0) == 0) {
      out += line;
      out += "\n";
    }
  }
  return out;
}

std::optional<std::string> CompareOutcomes(const RunOutcome& reference,
                                           const RunOutcome& run,
                                           const OracleConfig& config) {
  if (!reference.status.ok()) {
    // Callers should skip the matrix when the reference fails; a failing
    // reference gives the oracle nothing to compare against.
    return std::nullopt;
  }
  if (!run.status.ok()) {
    if (!config.faults.empty()) {
      // With faults armed a clean Status is an acceptable outcome — the
      // oracle only rejects crashes/hangs (which never reach here) and
      // wrong output from runs that claim success.
      return std::nullopt;
    }
    return "status: reference ok but " + config.Name() + " failed: " +
           run.status.ToString();
  }
  if (run.checksums != reference.checksums) {
    return "frame checksums differ under " + config.Name() +
           "\n--- reference ---\n" + reference.checksums + "--- " +
           config.Name() + " ---\n" + run.checksums;
  }
  // Dask reorders rows (§5.2), so only the canonicalized checksum payload
  // is comparable; every order-preserving backend must reproduce the
  // printed output byte for byte.
  if (config.backend != exec::BackendKind::kDask &&
      run.output != reference.output) {
    return "printed output differs under " + config.Name() +
           "\n--- reference ---\n" + reference.output + "--- " +
           config.Name() + " ---\n" + run.output;
  }
  return std::nullopt;
}

}  // namespace lafp::testing
