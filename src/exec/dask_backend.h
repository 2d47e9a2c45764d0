#ifndef LAFP_EXEC_DASK_BACKEND_H_
#define LAFP_EXEC_DASK_BACKEND_H_

#include <memory>
#include <vector>

#include "exec/backend.h"
#include "exec/partition.h"

namespace lafp::exec {

namespace internal {
struct DaskNode;
class DaskEvaluator;
}  // namespace internal

/// Lazy, partitioned, out-of-core engine modeled on Dask.
///
/// Execute() merely records plan nodes ("creates an operator DAG in the
/// backend framework", paper §2.5); MaterializeAll() evaluates the plan
/// for a set of outputs, as one dask.compute(*outputs) does, by streaming
/// partitions and running each op by its StrategyOf
/// (exec/partitioned.h):
///   - chains of row-wise ops are fused and evaluated one partition at a
///     time (bounded memory regardless of dataset size);
///   - combine ops (group-by, reductions, head, value_counts, describe,
///     drop_duplicates, unique) pull partitions through the shared
///     combiners (exec/agg_twophase.h) until the combiner has enough;
///   - concat chains its inputs' streams;
///   - merge broadcasts the right side (a deliberate materialization
///     point that can OOM, as in the paper's failure cases);
///   - the final result is concatenated into an eager frame — the other
///     OOM point when a program materializes something dataset-sized.
///
/// The folds the outputs need (combines, lens, whole-frame and persist
/// collections) run in dependency waves; in a wave, the folds over the
/// same sources share one pass, which pulls each source partition once.
/// So the outputs of one MaterializeAll share their scans, while results
/// are still recomputed across calls unless Persist() was requested.
/// Like Dask, row order across shuffling ops is not guaranteed, and
/// persisted collections are memory-resident (paper §5.4 notes disk
/// persistence as future work; config.spill_persisted enables that
/// extension here).
class DaskBackend : public Backend {
 public:
  DaskBackend(MemoryTracker* tracker, const BackendConfig& config,
              const ExecutionOptions& exec);
  ~DaskBackend() override;

  const char* name() const override { return "dask"; }
  bool lazy() const override { return true; }
  bool preserves_row_order() const override { return false; }
  bool SupportsOp(const OpDesc& desc) const override;

  Result<BackendValue> Execute(
      const OpDesc& desc, const std::vector<BackendValue>& inputs) override;
  Result<EagerValue> Materialize(const BackendValue& value) override;
  Result<std::vector<EagerValue>> MaterializeAll(
      const std::vector<BackendValue>& values) override;
  Result<BackendValue> FromEager(const EagerValue& value) override;
  Status Persist(const BackendValue& value) override;

 private:
  friend class internal::DaskEvaluator;

  std::string spill_dir_;
  std::string spill_fallback_dir_;
  // True when the directories above are generated defaults owned by this
  // instance; they are deleted on destruction. Configured dirs are kept.
  bool owns_spill_dir_ = false;
  bool owns_spill_fallback_dir_ = false;
  int64_t spill_counter_ = 0;
};

}  // namespace lafp::exec

#endif  // LAFP_EXEC_DASK_BACKEND_H_
