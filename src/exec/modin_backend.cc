#include "exec/modin_backend.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "common/macros.h"
#include "common/trace.h"
#include "exec/partition.h"

namespace lafp::exec {

namespace {

/// Partitioned frame wrapper for Modin values.
class ModinFrame : public BackendFrame {
 public:
  explicit ModinFrame(PartitionedFrame parts) : parts_(std::move(parts)) {}
  const PartitionedFrame& parts() const { return parts_; }

 private:
  PartitionedFrame parts_;
};

/// A broadcast input: one whole frame beside every partition.
class ModinBroadcast : public BackendFrame {
 public:
  explicit ModinBroadcast(df::DataFrame frame) : frame_(std::move(frame)) {}
  const df::DataFrame& frame() const { return frame_; }

 private:
  df::DataFrame frame_;
};

Result<const PartitionedFrame*> PartsOf(const BackendFrame& frame) {
  auto* wrapped = dynamic_cast<const ModinFrame*>(&frame);
  if (wrapped == nullptr) {
    return Status::Invalid("foreign frame handle passed to modin backend");
  }
  return &wrapped->parts();
}

BackendFramePtr WrapParts(PartitionedFrame parts) {
  return std::make_shared<ModinFrame>(std::move(parts));
}

/// Partition fan-out with cross-thread kernel attribution. Each worker
/// runs `body(i)` with (a) the launcher's span installed as trace context
/// — so the per-partition span, and any kernel spans under it, attribute
/// to the owning scheduler node — and (b) a local KernelCounters sink
/// whose totals are merged back into the launcher's active sink after the
/// join. This is what makes NodeStats::kernel_micros/morsels include work
/// done on partition-pool threads.
template <typename Body>
Status RunPartitions(ThreadPool* pool, size_t np, const char* what,
                     Body&& body) {
  const uint64_t parent = trace::Tracer::CurrentSpanId();
  df::SharedKernelCounters shared;
  Status status = ParallelForStatus(
      pool, static_cast<int>(np), [&](int i) -> Status {
        trace::SpanContextScope ctx(parent);
        trace::Span span("partition", "task");
        if (span.active()) {
          span.AddArg("op", what);
          span.AddArg("partition", i);
        }
        df::KernelCounters local;
        Status s;
        {
          df::KernelCountersScope counters(&local);
          s = body(i);
        }
        shared.Add(local);
        return s;
      });
  df::MergeIntoCurrentSink(shared.Snapshot());
  return status;
}

}  // namespace

ModinBackend::ModinBackend(MemoryTracker* tracker,
                           const BackendConfig& config,
                           const ExecutionOptions& exec)
    : PartitionedBackend(tracker, config, exec),
      owned_pool_(config.shared_pool == nullptr
                      ? std::make_unique<ThreadPool>(exec.num_threads)
                      : nullptr),
      work_pool_(config.shared_pool != nullptr ? config.shared_pool
                                               : owned_pool_.get()) {
  if (exec_.intra_op_threads >= 1) {
    kernel_ctx_ = df::KernelContext(work_pool_, exec_.intra_op_threads,
                                    exec_.morsel_rows);
  }
}

Result<BackendValue> ModinBackend::Execute(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  trace::Span span("modin:execute", "backend");
  if (span.active()) span.AddArg("op", desc.ToString());
  return ExecutePartitioned(desc, inputs);
}

Result<EagerValue> ModinBackend::Materialize(const BackendValue& value) {
  return MaterializePartitioned(value);
}

Result<BackendValue> ModinBackend::FromEager(const EagerValue& value) {
  return FromEagerPartitioned(value);
}

void ModinBackend::PayTasks(size_t tasks) const {
  if (config_.task_overhead_us > 0 && tasks > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        config_.task_overhead_us * static_cast<int64_t>(tasks)));
  }
}

Result<BackendFramePtr> ModinBackend::Scan(const OpDesc& desc) {
  // Like Modin's parallel read_csv: one walk finds the units, paying each
  // task's dispatch serially, then the units decode on the pool.
  LAFP_ASSIGN_OR_RETURN(
      auto units, ScanUnits::Open(desc, config_.partition_rows, tracker_));
  std::vector<ScanUnit> todo;
  while (true) {
    LAFP_ASSIGN_OR_RETURN(std::optional<ScanUnit> unit, units->Next());
    if (!unit.has_value()) break;
    PayTasks(1);
    todo.push_back(*unit);
  }
  std::vector<df::DataFrame> frames(todo.size());
  LAFP_RETURN_NOT_OK(RunPartitions(
      work_pool_, todo.size(), Traits(desc.kind).name, [&](int i) -> Status {
        LAFP_ASSIGN_OR_RETURN(frames[i], units->Read(todo[i]));
        return Status::OK();
      }));
  PartitionedFrame parts;
  for (auto& frame : frames) parts.Add(std::move(frame));
  return WrapParts(std::move(parts));
}

Result<std::vector<df::DataFrame>> ModinBackend::RunReturn(
    const OpDesc& desc, const std::vector<BackendValue>& inputs,
    size_t limit) {
  LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* primary,
                        PartsOf(*inputs[0].frame));
  std::vector<df::DataFrame> results(
      std::min(primary->num_partitions(), limit));
  LAFP_RETURN_NOT_OK(RunPartitions(
      work_pool_, results.size(), Traits(desc.kind).name,
      [&](int i) -> Status {
        PayTasks(1);
        std::vector<EagerValue> args;
        for (const BackendValue& in : inputs) {
          if (in.is_scalar) {
            args.push_back(EagerValue::FromScalar(in.scalar));
            continue;
          }
          if (auto* b = dynamic_cast<const ModinBroadcast*>(in.frame.get())) {
            args.push_back(EagerValue::Frame(b->frame()));
            continue;
          }
          LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* parts,
                                PartsOf(*in.frame));
          LAFP_ASSIGN_OR_RETURN(df::DataFrame part,
                                parts->partition(i, tracker_));
          args.push_back(EagerValue::Frame(std::move(part)));
        }
        LAFP_ASSIGN_OR_RETURN(EagerValue out,
                              ExecuteEagerOp(desc, args, tracker_));
        if (out.is_scalar) {
          return Status::Invalid("partition op produced a scalar");
        }
        results[i] = std::move(out.frame);
        return Status::OK();
      }));
  return results;
}

Result<BackendFramePtr> ModinBackend::RunKeep(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  LAFP_ASSIGN_OR_RETURN(
      std::vector<df::DataFrame> results,
      RunReturn(desc, inputs, std::numeric_limits<size_t>::max()));
  PartitionedFrame out;
  for (auto& r : results) out.Add(std::move(r));
  return WrapParts(std::move(out));
}

Result<std::vector<df::DataFrame>> ModinBackend::Fetch(
    const BackendFrame& frame) {
  LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* parts, PartsOf(frame));
  std::vector<df::DataFrame> out;
  for (size_t i = 0; i < parts->num_partitions(); ++i) {
    LAFP_ASSIGN_OR_RETURN(df::DataFrame part, parts->partition(i, tracker_));
    out.push_back(std::move(part));
  }
  return out;
}

Result<BackendFramePtr> ModinBackend::Place(const df::DataFrame& frame) {
  LAFP_ASSIGN_OR_RETURN(
      PartitionedFrame parts,
      PartitionedFrame::FromEager(frame, config_.partition_rows));
  return WrapParts(std::move(parts));
}

Result<BackendFramePtr> ModinBackend::Broadcast(
    const df::DataFrame& frame, const BackendFrame& alongside) {
  (void)alongside;  // every pool worker sees the whole frame
  return BackendFramePtr(std::make_shared<ModinBroadcast>(frame));
}

bool ModinBackend::Colocated(const BackendFrame& a,
                             const BackendFrame& b) const {
  (void)a;
  (void)b;
  return true;  // every pool worker reads every partition
}

Result<std::vector<uint64_t>> ModinBackend::Rows(
    const BackendFrame& frame) const {
  LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* parts, PartsOf(frame));
  std::vector<uint64_t> rows(parts->num_partitions());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = parts->num_rows(i);
  return rows;
}

}  // namespace lafp::exec
