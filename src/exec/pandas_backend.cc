#include "exec/pandas_backend.h"

#include "common/macros.h"
#include "common/trace.h"

namespace lafp::exec {

namespace {

/// Eager frame wrapper.
class EagerBackendFrame : public BackendFrame {
 public:
  explicit EagerBackendFrame(df::DataFrame frame)
      : frame_(std::move(frame)) {}
  const df::DataFrame& frame() const { return frame_; }

 private:
  df::DataFrame frame_;
};

}  // namespace

PandasBackend::PandasBackend(MemoryTracker* tracker,
                             const BackendConfig& config,
                             const ExecutionOptions& exec)
    : Backend(tracker, config, exec) {
  // Morsel workers come from the injected shared pool when one is
  // configured (query server: one pool for every session's kernels);
  // otherwise the backend owns a private pool.
  ThreadPool* pool = nullptr;
  if (exec_.intra_op_threads > 1) {
    if (config_.shared_pool != nullptr) {
      pool = config_.shared_pool;
    } else {
      kernel_pool_ = std::make_unique<ThreadPool>(exec_.intra_op_threads);
      pool = kernel_pool_.get();
    }
  }
  if (exec_.intra_op_threads >= 1) {
    kernel_ctx_ = df::KernelContext(pool, exec_.intra_op_threads,
                                    exec_.morsel_rows);
  }
}

bool PandasBackend::SupportsOp(const OpDesc& desc) const {
  return desc.kind != OpKind::kPrint;  // print handled by the session
}

Result<BackendValue> PandasBackend::Execute(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  trace::Span span("pandas:execute", "backend");
  if (span.active()) span.AddArg("op", desc.ToString());
  df::KernelScope kernel_scope(&kernel_ctx_);
  std::vector<EagerValue> eager_inputs;
  eager_inputs.reserve(inputs.size());
  for (const auto& in : inputs) {
    LAFP_ASSIGN_OR_RETURN(EagerValue v, Materialize(in));
    eager_inputs.push_back(std::move(v));
  }
  LAFP_ASSIGN_OR_RETURN(EagerValue out,
                        ExecuteEagerOp(desc, eager_inputs, tracker_));
  return FromEager(out);
}

Result<EagerValue> PandasBackend::Materialize(const BackendValue& value) {
  if (value.is_scalar) return EagerValue::FromScalar(value.scalar);
  auto* wrapped = dynamic_cast<EagerBackendFrame*>(value.frame.get());
  if (wrapped == nullptr) {
    return Status::Invalid("foreign frame handle passed to pandas backend");
  }
  return EagerValue::Frame(wrapped->frame());
}

Result<BackendValue> PandasBackend::FromEager(const EagerValue& value) {
  if (value.is_scalar) return BackendValue::FromScalar(value.scalar);
  return BackendValue::Frame(
      std::make_shared<EagerBackendFrame>(value.frame));
}

int64_t PandasBackend::RowCount(const BackendValue& value) const {
  if (value.is_scalar) return 1;
  auto* wrapped = dynamic_cast<EagerBackendFrame*>(value.frame.get());
  if (wrapped == nullptr) return -1;
  return static_cast<int64_t>(wrapped->frame().num_rows());
}

}  // namespace lafp::exec
