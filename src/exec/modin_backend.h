#ifndef LAFP_EXEC_MODIN_BACKEND_H_
#define LAFP_EXEC_MODIN_BACKEND_H_

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "dataframe/kernel_context.h"
#include "exec/partitioned.h"

namespace lafp::exec {

/// Eager, partition-parallel engine modeled on Modin: the partitioned
/// planner (exec/partitioned.h) over in-memory row partitions whose tasks
/// run on a thread pool. All partitions stay in (tracked) memory — like
/// Modin it scales CPU, not memory — and every partition task pays a
/// simulated dispatch overhead (config.task_overhead_us), which is why it
/// trails plain Pandas at small sizes (paper Fig. 13).
///
/// Thread-safe for concurrent Execute calls (the DAG scheduler's
/// contract): the only shared state is the partition pool, whose queue is
/// mutex-protected, and each ParallelFor call synchronizes its own
/// completion — so two scheduler workers can run partitioned ops on the
/// same pool simultaneously. The pool is distinct from the scheduler's,
/// so a scheduler worker blocking in ParallelFor cannot starve it.
///
/// Intra-operator kernel parallelism shares that same partition pool (no
/// second pool, no oversubscription): gathered ops install a
/// df::KernelContext over pool_ so their kernel loops go morsel-parallel,
/// while partitioned ops keep their parallelism at the partition level —
/// the kernel context is thread-local and does not propagate into pool
/// workers, so per-partition kernels stay serial instead of forking
/// nested morsel tasks onto the pool they run on.
class ModinBackend : public PartitionedBackend {
 public:
  ModinBackend(MemoryTracker* tracker, const BackendConfig& config,
               const ExecutionOptions& exec);

  const char* name() const override { return "modin"; }
  bool preserves_row_order() const override { return true; }

  Result<BackendValue> Execute(
      const OpDesc& desc, const std::vector<BackendValue>& inputs) override;
  Result<EagerValue> Materialize(const BackendValue& value) override;
  Result<BackendValue> FromEager(const EagerValue& value) override;

  /// Threads of the partition pool (the shared pool's, when injected).
  int workers() const { return work_pool_->num_threads(); }

 private:
  Result<BackendFramePtr> Scan(const OpDesc& desc) override;
  Result<BackendFramePtr> RunKeep(
      const OpDesc& desc, const std::vector<BackendValue>& inputs) override;
  Result<std::vector<df::DataFrame>> RunReturn(
      const OpDesc& desc, const std::vector<BackendValue>& inputs,
      size_t limit) override;
  Result<std::vector<df::DataFrame>> Fetch(const BackendFrame& frame) override;
  Result<BackendFramePtr> Place(const df::DataFrame& frame) override;
  Result<BackendFramePtr> Broadcast(const df::DataFrame& frame,
                                    const BackendFrame& alongside) override;
  bool Colocated(const BackendFrame& a, const BackendFrame& b) const override;
  Result<std::vector<uint64_t>> Rows(const BackendFrame& frame) const override;
  void PayTasks(size_t tasks) const override;
  const df::KernelContext* gather_kernels() const override {
    return &kernel_ctx_;
  }

  /// Owned only when no shared pool was injected
  /// (BackendConfig::shared_pool); work_pool_ is what partition ops use.
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* work_pool_;
  df::KernelContext kernel_ctx_;  // over work_pool_; default if knob is 0
};

}  // namespace lafp::exec

#endif  // LAFP_EXEC_MODIN_BACKEND_H_
