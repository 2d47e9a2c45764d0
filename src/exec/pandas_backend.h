#ifndef LAFP_EXEC_PANDAS_BACKEND_H_
#define LAFP_EXEC_PANDAS_BACKEND_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "dataframe/kernel_context.h"
#include "exec/backend.h"

namespace lafp::exec {

/// The plain eager engine: every op materializes immediately via the
/// dataframe kernels, everything lives in (tracked) memory. This is the
/// "Pandas" of the reproduction — fastest in-memory, first to OOM.
///
/// When exec.intra_op_threads >= 1 the backend owns a kernel thread
/// pool and installs a df::KernelContext for the duration of each
/// Execute call, so the dataframe kernels split their loops into fixed
/// morsels (parallel when intra_op_threads > 1). The context lives in
/// thread-local storage and does not propagate into pool workers, which
/// is what prevents nested forking.
///
/// Thread-safe for concurrent Execute/Materialize/FromEager: the backend
/// holds no mutable per-call state (kernels allocate fresh outputs; the
/// shared MemoryTracker and the kernel pool's queue are internally
/// synchronized), which is what lets the DAG scheduler run independent
/// nodes in parallel. Concurrent Execute calls share the kernel pool;
/// each call blocks only its own scheduler worker while its morsels run.
class PandasBackend : public Backend {
 public:
  PandasBackend(MemoryTracker* tracker, const BackendConfig& config,
                const ExecutionOptions& exec);

  const char* name() const override { return "pandas"; }
  bool preserves_row_order() const override { return true; }
  bool SupportsOp(const OpDesc& desc) const override;

  Result<BackendValue> Execute(
      const OpDesc& desc, const std::vector<BackendValue>& inputs) override;
  Result<EagerValue> Materialize(const BackendValue& value) override;
  Result<BackendValue> FromEager(const EagerValue& value) override;
  int64_t RowCount(const BackendValue& value) const override;

 private:
  /// Owned only when intra_op_threads > 1 and no shared pool was
  /// injected (BackendConfig::shared_pool).
  std::unique_ptr<ThreadPool> kernel_pool_;
  df::KernelContext kernel_ctx_;  // default (single-morsel) if knob is 0
};

}  // namespace lafp::exec

#endif  // LAFP_EXEC_PANDAS_BACKEND_H_
