#ifndef LAFP_EXEC_BACKEND_H_
#define LAFP_EXEC_BACKEND_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "exec/eager_ops.h"
#include "exec/op.h"

namespace lafp::exec {

/// Execution knobs (lazy::SessionOptions::exec), the one home of the
/// thread counts, the morsel size and the cancellation token: the session
/// reads them for its scheduler and hands them to its backend beside the
/// BackendConfig.
struct ExecutionOptions {
  /// Worker threads for the parallel DAG scheduler and for the Modin
  /// backend's partition pool. 1 = serial scheduling.
  int num_threads = 4;
  /// Morsel-driven parallelism *inside* individual kernels (the
  /// intra-operator axis, orthogonal to num_threads' inter-operator /
  /// partition axis). 0 = off (kernels run as one morsel, the sequential
  /// loops byte-for-byte); 1 = serial execution over the fixed morsel
  /// geometry; >1 = morsel-parallel on the backend's kernel pool. Because
  /// morsel boundaries depend only on row count and morsel_rows, every
  /// value >= 1 yields bit-identical results.
  int intra_op_threads = 0;
  /// Rows per kernel morsel when intra_op_threads >= 1. Part of the
  /// determinism contract: changing it changes morsel boundaries (and may
  /// perturb compensated sums by ~1 ulp); changing thread counts never
  /// does.
  size_t morsel_rows = 65536;
  /// Graceful degradation (§4.3/§5.2): when a backend's native Execute
  /// fails with an execution / IO / not-implemented error, retry the node
  /// once on the eager Pandas-engine fallback path instead of failing the
  /// round. Out-of-memory and semantic errors (KeyError/TypeError
  /// analogues) always surface — those are program errors, not backend
  /// limitations.
  bool graceful_fallback = true;
  /// Enable the structured tracer (common/trace.h) for this session:
  /// session/round/pass/node/kernel spans are recorded into the global
  /// tracer for Chrome-JSON or EXPLAIN ANALYZE export. Independent of the
  /// LAFP_TRACE env knob (either can switch the tracer on). The tracer
  /// goes off again when the last traced session ends, unless it was on
  /// before the first of them began.
  bool trace = false;
  /// External cancellation token (common/cancellation.h), checked by the
  /// scheduler between nodes, by Dask between partition pulls and by the
  /// shard coordinator between request waves. Non-owning, must outlive
  /// the session; null = rounds cancel only on internal failure. A query
  /// server trips this when the client disconnects, so an abandoned
  /// request stops burning workers at its next boundary.
  CancellationToken* cancel = nullptr;
  /// Non-owning DAG-scheduler worker pool shared across sessions. Null =
  /// the session lazily builds a private pool (the single-session
  /// default). A query server owns one pool and hands it to every
  /// session so N concurrent sessions multiplex a fixed worker set
  /// instead of stacking N private pools. Must outlive the session.
  ThreadPool* scheduler_pool = nullptr;
};

/// Tuning and simulation knobs shared by the backends.
struct BackendConfig {
  /// Rows per partition for the partitioned backends.
  size_t partition_rows = 65536;
  /// Source partitions the Dask backend keeps in flight (models worker
  /// prefetch/parallelism): its steady-state memory is roughly
  /// prefetch_partitions x partition width, which is why projection
  /// pushdown reduces real Dask memory (paper Fig. 15).
  size_t prefetch_partitions = 8;
  /// Simulated scheduler overhead per partition task, in microseconds.
  /// Models Dask/Ray task dispatch cost; 0 disables. This is what makes
  /// the lazy/distributed backends slower than plain Pandas on in-memory
  /// data, as in the paper's Figure 13.
  int64_t task_overhead_us = 0;
  /// Directory for Dask spill files (empty = std::filesystem::temp dir).
  std::string spill_dir;
  /// Alternate spill directory tried when a write to spill_dir fails
  /// (disk full, dead mount). Empty = a "<temp>/lafp_dask_spill_alt"
  /// default; this is the graceful-degradation half of the §5.4 disk
  /// extension.
  std::string spill_fallback_dir;
  /// Extension (paper future work §5.4): persist Dask frames on disk
  /// instead of memory.
  bool spill_persisted = false;
  /// Non-owning worker pool shared across backend instances. Null = the
  /// backend owns a private pool sized from the ExecutionOptions thread
  /// counts (the single-session default). A query server owns one pool
  /// and injects it into every session's backend so N concurrent
  /// sessions multiplex a fixed worker set instead of oversubscribing the
  /// machine with N private pools; num_threads / intra_op_threads then
  /// cap only how much work one session keeps in flight. Must outlive the
  /// backend.
  ThreadPool* shared_pool = nullptr;
  /// Worker processes for the shard backend (BackendKind::kShard), in
  /// [1, 64]; 1 is a valid degenerate cluster used for
  /// shard-count-invariance testing. 0 = the LAFP_SHARDS env knob, else
  /// 2. The shard backend alone decides the count: any other value, or a
  /// malformed LAFP_SHARDS, fails its first Execute with Invalid.
  int shards = 0;
};

/// Opaque backend-specific frame representation. Eager backends store
/// materialized data; the Dask backend stores a lazy plan node.
class BackendFrame {
 public:
  virtual ~BackendFrame() = default;
};
using BackendFramePtr = std::shared_ptr<BackendFrame>;

/// A value held by a LaFP task-graph node after execution on a backend:
/// a backend frame, or an immediate scalar.
struct BackendValue {
  BackendFramePtr frame;
  df::Scalar scalar;
  bool is_scalar = false;

  static BackendValue Frame(BackendFramePtr f) {
    BackendValue v;
    v.frame = std::move(f);
    return v;
  }
  static BackendValue FromScalar(df::Scalar s) {
    BackendValue v;
    v.scalar = std::move(s);
    v.is_scalar = true;
    return v;
  }
  bool empty() const { return frame == nullptr && !is_scalar; }
};

/// Execution engine abstraction (paper §2.6, contribution 5). The LaFP
/// runtime walks its optimized task graph and calls Execute per node; for
/// ops a backend does not support, the runtime materializes the inputs,
/// runs the eager Pandas-engine kernel, and re-imports the result — the
/// paper's transparent fallback.
///
/// Thread-safety contract (required by the parallel DAG scheduler in
/// lazy/scheduler.h): for backends where lazy() is false, Execute,
/// Materialize, FromEager and RowCount may be called concurrently from
/// multiple scheduler workers, on distinct nodes whose inputs are fully
/// executed. Inputs are only read; any backend-internal shared state
/// (thread pools, the memory tracker) must be internally synchronized.
/// Lazy backends (Dask) are exempt: the scheduler serializes their rounds
/// because Execute() is cheap plan recording and the plan's persist
/// caches are deliberately unsynchronized.
class Backend {
 public:
  Backend(MemoryTracker* tracker, BackendConfig config,
          ExecutionOptions exec)
      : tracker_(tracker != nullptr ? tracker : MemoryTracker::Default()),
        config_(std::move(config)),
        exec_(exec) {}
  virtual ~Backend() = default;

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  virtual const char* name() const = 0;

  /// True for lazy engines (Dask): Execute() is cheap plan recording, so
  /// the LaFP runtime never clears node results (they hold plans, not
  /// data); eager backends return false and get §2.6 result clearing.
  virtual bool lazy() const { return false; }

  /// Dask does not preserve row order (paper §5.2); result comparison must
  /// canonicalize row order when this is false.
  virtual bool preserves_row_order() const = 0;

  /// Whether Execute can run this op natively (otherwise the runtime uses
  /// the Pandas fallback path).
  virtual bool SupportsOp(const OpDesc& desc) const = 0;

  /// Execute (eager backends) or record (lazy backends) one operator.
  virtual Result<BackendValue> Execute(
      const OpDesc& desc, const std::vector<BackendValue>& inputs) = 0;

  /// Force a value to an eager in-memory frame or scalar. For the Dask
  /// backend this triggers streaming evaluation of the recorded plan, and
  /// is the moment a larger-than-budget result OOMs.
  virtual Result<EagerValue> Materialize(const BackendValue& value) = 0;

  /// Force several values at once, as one dask.compute(*values) does: a
  /// lazy engine may share work between them. Results are in `values`
  /// order; the first failure fails the whole call. The default
  /// materializes each value in turn.
  virtual Result<std::vector<EagerValue>> MaterializeAll(
      const std::vector<BackendValue>& values) {
    std::vector<EagerValue> out;
    out.reserve(values.size());
    for (const auto& value : values) {
      LAFP_ASSIGN_OR_RETURN(EagerValue v, Materialize(value));
      out.push_back(std::move(v));
    }
    return out;
  }

  /// Import an eager value (fallback results, user-provided frames).
  virtual Result<BackendValue> FromEager(const EagerValue& value) = 0;

  /// Cache `value` across materializations (paper §3.5 common-computation
  /// reuse). No-op on eager backends, where values are already
  /// materialized.
  virtual Status Persist(const BackendValue& value) {
    (void)value;
    return Status::OK();
  }

  /// Best-effort row count of a value for the execution-stats API: rows
  /// of a materialized frame, 1 for a scalar, -1 when unknown (an
  /// unevaluated lazy plan). Must be cheap (no materialization) and
  /// thread-safe.
  virtual int64_t RowCount(const BackendValue& value) const {
    return value.is_scalar ? 1 : -1;
  }

  MemoryTracker* tracker() const { return tracker_; }
  const BackendConfig& config() const { return config_; }
  const ExecutionOptions& exec_options() const { return exec_; }

 protected:
  MemoryTracker* tracker_;
  BackendConfig config_;
  ExecutionOptions exec_;
};

enum class BackendKind : int {
  kPandas = 0,
  kModin = 1,
  kDask = 2,
  kShard = 3,  // shared-nothing multi-process executor (src/shard/)
};

const char* BackendKindName(BackendKind kind);

std::unique_ptr<Backend> MakeBackend(BackendKind kind, MemoryTracker* tracker,
                                     const BackendConfig& config,
                                     const ExecutionOptions& exec = {});

}  // namespace lafp::exec

#endif  // LAFP_EXEC_BACKEND_H_
