#include "exec/modin_backend.h"

#include <chrono>
#include <limits>
#include <mutex>
#include <thread>

#include "common/macros.h"
#include "common/trace.h"
#include "exec/agg_twophase.h"

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

Result<const PartitionedFrame*> PartsOf(const BackendValue& value) {
  auto* wrapped = dynamic_cast<ModinFrame*>(value.frame.get());
  if (wrapped == nullptr) {
    return Status::Invalid("foreign frame handle passed to modin backend");
  }
  return &wrapped->parts();
}

BackendValue WrapParts(PartitionedFrame parts) {
  return BackendValue::Frame(std::make_shared<ModinFrame>(std::move(parts)));
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
                           const BackendConfig& config)
    : Backend(tracker, config),
      owned_pool_(config.shared_pool == nullptr
                      ? std::make_unique<ThreadPool>(config.num_threads)
                      : nullptr),
      work_pool_(config.shared_pool != nullptr ? config.shared_pool
                                               : owned_pool_.get()) {
  if (config_.intra_op_threads >= 1) {
    kernel_ctx_ = df::KernelContext(work_pool_, config_.intra_op_threads,
                                    config_.morsel_rows);
  }
}

void ModinBackend::PayOverhead() const {
  if (config_.task_overhead_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(config_.task_overhead_us));
  }
}

bool ModinBackend::SupportsOp(const OpDesc& desc) const {
  return desc.kind != OpKind::kPrint;
}

Result<BackendValue> ModinBackend::Execute(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  trace::Span span("modin:execute", "backend");
  if (span.active()) span.AddArg("op", desc.ToString());
  switch (desc.kind) {
    case OpKind::kReadCsv: {
      // Partitioned read, like Modin's parallel read_csv: one row scan
      // finds the partition boundaries, then the partitions parse in
      // parallel (eager: all partitions in memory).
      LAFP_ASSIGN_OR_RETURN(
          auto reader,
          io::CsvChunkReader::Open(desc.path, desc.csv_options, tracker_));
      std::vector<io::CsvRange> ranges;
      while (true) {
        LAFP_ASSIGN_OR_RETURN(auto range,
                              reader->NextRange(config_.partition_rows));
        if (!range.has_value()) break;
        PayOverhead();  // simulated per-task cost, paid at serial dispatch
        ranges.push_back(*range);
      }
      std::vector<df::DataFrame> frames(ranges.size());
      LAFP_RETURN_NOT_OK(RunPartitions(
          work_pool_, ranges.size(), "read_csv", [&](int i) -> Status {
            LAFP_ASSIGN_OR_RETURN(frames[i], reader->ParseRange(ranges[i]));
            return Status::OK();
          }));
      PartitionedFrame parts;
      for (auto& frame : frames) parts.Add(std::move(frame));
      if (parts.num_partitions() == 0) {
        LAFP_ASSIGN_OR_RETURN(df::DataFrame empty, reader->EmptyFrame());
        parts.Add(std::move(empty));
      }
      return WrapParts(std::move(parts));
    }
    case OpKind::kReadLfc: {
      // Native columnar scan: each surviving LFC chunk becomes one
      // partition. Zone-pruned chunks still consume their share of the
      // nrows quota so the partitioned read matches the eager scan.
      LAFP_ASSIGN_OR_RETURN(auto reader,
                            io::LfcReader::Open(desc.path, tracker_));
      const auto& o = desc.lfc_options;
      LAFP_ASSIGN_OR_RETURN(std::vector<size_t> sel,
                            reader->SelectColumns(o.usecols));
      const bool pruning = o.prune_enabled && !o.prune.empty();
      PartitionedFrame parts;
      uint64_t remaining = o.nrows == 0
                               ? std::numeric_limits<uint64_t>::max()
                               : o.nrows;
      for (size_t chunk = 0; chunk < reader->num_chunks(); ++chunk) {
        if (remaining == 0) break;
        const uint64_t take =
            std::min<uint64_t>(reader->chunk_rows(chunk), remaining);
        remaining -= take;
        if (pruning && !reader->ChunkMayMatch(chunk, o.prune)) continue;
        LAFP_ASSIGN_OR_RETURN(
            df::DataFrame part,
            reader->ReadChunk(chunk, sel, static_cast<size_t>(take)));
        PayOverhead();
        parts.Add(std::move(part));
      }
      if (parts.num_partitions() == 0) {
        LAFP_ASSIGN_OR_RETURN(df::DataFrame empty, reader->EmptyFrame(sel));
        parts.Add(std::move(empty));
      }
      return WrapParts(std::move(parts));
    }
    case OpKind::kGroupByAgg:
      return ExecuteGroupBy(desc, inputs[0]);
    case OpKind::kReduce:
    case OpKind::kLen:
      return ExecuteReduce(desc, inputs[0]);
    case OpKind::kMerge:
      return ExecuteMerge(desc, inputs[0], inputs[1]);
    default:
      if (Traits(desc.kind).Is(OpTraits::kMap)) {
        return ExecuteMapOp(desc, inputs);
      }
      return ExecuteViaConcat(desc, inputs);
  }
}

Result<BackendValue> ModinBackend::ExecuteMapOp(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* primary, PartsOf(inputs[0]));
  const PartitionedFrame* secondary = nullptr;
  df::Scalar runtime_scalar;
  bool second_is_scalar = false;
  if (inputs.size() > 1) {
    if (inputs[1].is_scalar) {
      second_is_scalar = true;
      runtime_scalar = inputs[1].scalar;
    } else {
      LAFP_ASSIGN_OR_RETURN(secondary, PartsOf(inputs[1]));
      if (secondary->num_partitions() != primary->num_partitions()) {
        // Misaligned partitioning: run via concat as a correctness
        // fallback.
        return ExecuteViaConcat(desc, inputs);
      }
    }
  }
  size_t np = primary->num_partitions();
  std::vector<df::DataFrame> results(np);
  LAFP_RETURN_NOT_OK(RunPartitions(
      work_pool_, np, "map", [&](int i) -> Status {
        PayOverhead();
        LAFP_ASSIGN_OR_RETURN(df::DataFrame part,
                              primary->partition(i, tracker_));
        std::vector<EagerValue> eager_inputs;
        eager_inputs.push_back(EagerValue::Frame(std::move(part)));
        if (secondary != nullptr) {
          LAFP_ASSIGN_OR_RETURN(df::DataFrame second,
                                secondary->partition(i, tracker_));
          eager_inputs.push_back(EagerValue::Frame(std::move(second)));
        } else if (second_is_scalar) {
          eager_inputs.push_back(EagerValue::FromScalar(runtime_scalar));
        }
        LAFP_ASSIGN_OR_RETURN(EagerValue out,
                              ExecuteEagerOp(desc, eager_inputs, tracker_));
        results[i] = std::move(out.frame);
        return Status::OK();
      }));
  PartitionedFrame out;
  for (auto& r : results) out.Add(std::move(r));
  return WrapParts(std::move(out));
}

Result<BackendValue> ModinBackend::ExecuteGroupBy(
    const OpDesc& desc, const BackendValue& input) {
  LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* parts, PartsOf(input));
  GroupByCombiner combiner(desc.columns, desc.aggs);
  if (!combiner.supported()) {
    return ExecuteViaConcat(desc, {input});
  }
  size_t np = parts->num_partitions();
  // Partial aggregation is parallel; partials are folded in deterministic
  // partition order for reproducible output.
  std::vector<df::DataFrame> partial_inputs(np);
  LAFP_RETURN_NOT_OK(RunPartitions(
      work_pool_, np, "groupby", [&](int i) -> Status {
        PayOverhead();
        LAFP_ASSIGN_OR_RETURN(df::DataFrame part,
                              parts->partition(i, tracker_));
        partial_inputs[i] = std::move(part);
        return Status::OK();
      }));
  for (const auto& part : partial_inputs) {
    LAFP_RETURN_NOT_OK(combiner.AddPartition(part));
  }
  LAFP_ASSIGN_OR_RETURN(df::DataFrame result, combiner.Finish());
  PartitionedFrame out;
  out.Add(std::move(result));
  return WrapParts(std::move(out));
}

Result<BackendValue> ModinBackend::ExecuteReduce(const OpDesc& desc,
                                                 const BackendValue& input) {
  LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* parts, PartsOf(input));
  if (desc.kind == OpKind::kLen) {
    return BackendValue::FromScalar(
        df::Scalar::Int(static_cast<int64_t>(parts->num_rows())));
  }
  ReduceCombiner combiner(desc.agg_func);
  for (size_t i = 0; i < parts->num_partitions(); ++i) {
    PayOverhead();
    LAFP_ASSIGN_OR_RETURN(df::DataFrame part, parts->partition(i, tracker_));
    LAFP_RETURN_NOT_OK(combiner.AddPartition(part));
  }
  LAFP_ASSIGN_OR_RETURN(df::Scalar out, combiner.Finish());
  return BackendValue::FromScalar(std::move(out));
}

Result<BackendValue> ModinBackend::ExecuteMerge(const OpDesc& desc,
                                                const BackendValue& left,
                                                const BackendValue& right) {
  LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* lparts, PartsOf(left));
  LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* rparts, PartsOf(right));
  // Broadcast join: the right side is concatenated and joined against
  // every left partition in parallel.
  LAFP_ASSIGN_OR_RETURN(df::DataFrame right_full, rparts->ToEager(tracker_));
  size_t np = lparts->num_partitions();
  std::vector<df::DataFrame> results(np);
  LAFP_RETURN_NOT_OK(RunPartitions(
      work_pool_, np, "merge", [&](int i) -> Status {
        PayOverhead();
        LAFP_ASSIGN_OR_RETURN(df::DataFrame part,
                              lparts->partition(i, tracker_));
        LAFP_ASSIGN_OR_RETURN(
            df::DataFrame joined,
            df::Merge(part, right_full, desc.columns, desc.join_type));
        results[i] = std::move(joined);
        return Status::OK();
      }));
  PartitionedFrame out;
  for (auto& r : results) out.Add(std::move(r));
  return WrapParts(std::move(out));
}

Result<BackendValue> ModinBackend::ExecuteViaConcat(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  // Whole-frame ops run on the calling (scheduler) thread, so kernel
  // morsels can borrow the partition pool without nesting: its workers
  // never see this thread-local context.
  df::KernelScope kernel_scope(&kernel_ctx_);
  std::vector<EagerValue> eager_inputs;
  for (const auto& in : inputs) {
    LAFP_ASSIGN_OR_RETURN(EagerValue v, Materialize(in));
    eager_inputs.push_back(std::move(v));
  }
  PayOverhead();
  LAFP_ASSIGN_OR_RETURN(EagerValue out,
                        ExecuteEagerOp(desc, eager_inputs, tracker_));
  return FromEager(out);
}

Result<EagerValue> ModinBackend::Materialize(const BackendValue& value) {
  if (value.is_scalar) return EagerValue::FromScalar(value.scalar);
  LAFP_ASSIGN_OR_RETURN(const PartitionedFrame* parts, PartsOf(value));
  LAFP_ASSIGN_OR_RETURN(df::DataFrame frame, parts->ToEager(tracker_));
  return EagerValue::Frame(std::move(frame));
}

Result<BackendValue> ModinBackend::FromEager(const EagerValue& value) {
  if (value.is_scalar) return BackendValue::FromScalar(value.scalar);
  LAFP_ASSIGN_OR_RETURN(
      PartitionedFrame parts,
      PartitionedFrame::FromEager(value.frame, config_.partition_rows));
  return WrapParts(std::move(parts));
}

int64_t ModinBackend::RowCount(const BackendValue& value) const {
  if (value.is_scalar) return 1;
  auto* wrapped = dynamic_cast<ModinFrame*>(value.frame.get());
  if (wrapped == nullptr) return -1;
  return static_cast<int64_t>(wrapped->parts().num_rows());
}

}  // namespace lafp::exec
