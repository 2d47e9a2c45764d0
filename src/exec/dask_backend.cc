#include "exec/dask_backend.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "common/macros.h"
#include "common/trace.h"
#include "exec/agg_twophase.h"
#include "exec/partitioned.h"

namespace lafp::exec {

namespace internal {

/// One node of the Dask plan DAG.
struct DaskNode : public BackendFrame {
  OpDesc desc;
  std::vector<std::shared_ptr<DaskNode>> inputs;
  bool produces_scalar = false;
  bool persist_requested = false;

  // Caches surviving across Materialize calls (persist, §3.5). Memory
  // resident by design unless the spill extension is enabled.
  std::shared_ptr<PartitionedFrame> persisted;
  std::shared_ptr<df::Scalar> persisted_scalar;
};

using DaskNodePtr = std::shared_ptr<DaskNode>;

namespace {

Result<DaskNodePtr> NodeOf(const BackendValue& value) {
  auto node = std::dynamic_pointer_cast<DaskNode>(value.frame);
  if (node == nullptr) {
    return Status::Invalid("foreign frame handle passed to dask backend");
  }
  return node;
}

/// Pull-based stream of partitions.
class PartitionStream {
 public:
  virtual ~PartitionStream() = default;
  /// Next partition, or nullopt at end.
  virtual Result<std::optional<df::DataFrame>> Next() = 0;
};

class PartitionedFrameStream : public PartitionStream {
 public:
  PartitionedFrameStream(std::shared_ptr<PartitionedFrame> parts,
                         MemoryTracker* tracker)
      : parts_(std::move(parts)), tracker_(tracker) {}

  Result<std::optional<df::DataFrame>> Next() override {
    if (idx_ >= parts_->num_partitions()) {
      return std::optional<df::DataFrame>();
    }
    LAFP_ASSIGN_OR_RETURN(df::DataFrame part,
                          parts_->partition(idx_++, tracker_));
    return std::optional<df::DataFrame>(std::move(part));
  }

 private:
  std::shared_ptr<PartitionedFrame> parts_;
  MemoryTracker* tracker_;
  size_t idx_ = 0;
};

/// A scan's partitions, pulled from the scan-unit walker in file order.
/// Up to `window` decoded units stay resident, like Dask workers that
/// prefetch blocks for their task pool.
class ScanStream : public PartitionStream {
 public:
  ScanStream(std::unique_ptr<ScanUnits> units, size_t window,
             int64_t overhead_us)
      : units_(std::move(units)),
        window_(window == 0 ? 1 : window),
        overhead_us_(overhead_us) {}

  Result<std::optional<df::DataFrame>> Next() override {
    while (!eof_ && buffer_.size() < window_) {
      LAFP_ASSIGN_OR_RETURN(std::optional<ScanUnit> unit, units_->Next());
      if (!unit.has_value()) {
        eof_ = true;
        break;
      }
      if (overhead_us_ > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(overhead_us_));
      }
      LAFP_ASSIGN_OR_RETURN(df::DataFrame part, units_->Read(*unit));
      buffer_.push_back(std::move(part));
    }
    if (buffer_.empty()) return std::optional<df::DataFrame>();
    df::DataFrame out = std::move(buffer_.front());
    buffer_.pop_front();
    return std::optional<df::DataFrame>(std::move(out));
  }

 private:
  std::unique_ptr<ScanUnits> units_;
  size_t window_;
  int64_t overhead_us_;
  std::deque<df::DataFrame> buffer_;
  bool eof_ = false;
};

}  // namespace

/// Per-Materialize evaluator. Holds memoized results of non-row-wise
/// nodes so a node shared within one compute is evaluated once (as in
/// Dask); results are NOT retained across Materialize calls unless the
/// node is persisted — re-computation across forced computes is exactly
/// what the paper's common-computation-reuse optimization targets.
class DaskEvaluator {
 public:
  explicit DaskEvaluator(DaskBackend* backend)
      : backend_(backend), tracker_(backend->tracker()) {}

  Result<EagerValue> MaterializeNode(const DaskNodePtr& node) {
    if (node->produces_scalar) {
      LAFP_ASSIGN_OR_RETURN(df::Scalar s, EvalScalar(node));
      return EagerValue::FromScalar(std::move(s));
    }
    LAFP_ASSIGN_OR_RETURN(auto stream, Stream(node));
    std::vector<df::DataFrame> parts;
    while (true) {
      LAFP_ASSIGN_OR_RETURN(auto part, stream->Next());
      if (!part.has_value()) break;
      parts.push_back(std::move(*part));
    }
    LAFP_ASSIGN_OR_RETURN(df::DataFrame all,
                          ConcatPartitions(std::move(parts)));
    return EagerValue::Frame(std::move(all));
  }

  Result<df::Scalar> EvalScalar(const DaskNodePtr& node) {
    if (node->persisted_scalar != nullptr) return *node->persisted_scalar;
    auto memo = scalar_memo_.find(node.get());
    if (memo != scalar_memo_.end()) return memo->second;

    df::Scalar out;
    switch (StrategyOf(node->desc)) {
      case Strategy::kLen: {
        LAFP_ASSIGN_OR_RETURN(auto stream, Stream(node->inputs[0]));
        int64_t rows = 0;
        while (true) {
          LAFP_ASSIGN_OR_RETURN(auto part, stream->Next());
          if (!part.has_value()) break;
          rows += static_cast<int64_t>(part->num_rows());
        }
        out = df::Scalar::Int(rows);
        break;
      }
      case Strategy::kCombine: {
        LAFP_ASSIGN_OR_RETURN(EagerValue value, Combine(node));
        out = std::move(value.scalar);
        break;
      }
      default:
        return Status::Invalid("node does not produce a scalar");
    }
    scalar_memo_[node.get()] = out;
    if (node->persist_requested) {
      node->persisted_scalar = std::make_shared<df::Scalar>(out);
    }
    return out;
  }

  MemoryTracker* tracker() const { return tracker_; }

  void PayOverhead() {
    if (backend_->config().task_overhead_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(backend_->config().task_overhead_us));
    }
  }

  /// Stream of partitions for a frame-producing node.
  Result<std::unique_ptr<PartitionStream>> Stream(const DaskNodePtr& node) {
    if (node->produces_scalar) {
      return Status::Invalid("cannot stream a scalar node");
    }
    if (node->persisted != nullptr) {
      return std::unique_ptr<PartitionStream>(
          std::make_unique<PartitionedFrameStream>(node->persisted,
                                                   tracker_));
    }
    auto memo = collected_.find(node.get());
    if (memo != collected_.end()) {
      return std::unique_ptr<PartitionStream>(
          std::make_unique<PartitionedFrameStream>(memo->second, tracker_));
    }
    if (node->persist_requested) {
      // Collect once, cache across materializations, then stream the
      // cache. With the §5.4 disk extension, partitions spill as they
      // arrive so the collection never holds more than one in memory.
      LAFP_ASSIGN_OR_RETURN(auto inner, StreamInner(node));
      const bool spill = backend_->config().spill_persisted;
      std::string prefix =
          "persist" + std::to_string(backend_->spill_counter_++);
      auto collected = std::make_shared<PartitionedFrame>();
      while (true) {
        LAFP_ASSIGN_OR_RETURN(auto part, inner->Next());
        if (!part.has_value()) break;
        collected->Add(std::move(*part));
        if (spill) {
          size_t i = collected->num_partitions() - 1;
          const std::string part_name = prefix + "_" + std::to_string(i);
          Status spilled = collected->SpillPartition(
              i, backend_->spill_dir_, part_name);
          if (!spilled.ok() &&
              backend_->spill_fallback_dir_ != backend_->spill_dir_) {
            // Graceful degradation: a full or dead spill device should
            // not abort the round when an alternate directory is
            // configured. SpillPartition is retry-safe — the partition
            // stays in memory until a write fully succeeds.
            spilled = collected->SpillPartition(
                i, backend_->spill_fallback_dir_, part_name);
          }
          LAFP_RETURN_NOT_OK(spilled);
        }
      }
      node->persisted = collected;
      return std::unique_ptr<PartitionStream>(
          std::make_unique<PartitionedFrameStream>(collected, tracker_));
    }
    return StreamInner(node);
  }

 private:
  /// Collect a node fully into an eager frame (an internal
  /// materialization point: merge broadcast sides, fallback inputs).
  Result<df::DataFrame> CollectEager(const DaskNodePtr& node) {
    LAFP_ASSIGN_OR_RETURN(EagerValue v, MaterializeNode(node));
    return v.frame;
  }

  Result<std::unique_ptr<PartitionStream>> StreamInner(
      const DaskNodePtr& node);

  /// Pulls the input's partitions through the op's combiner until it has
  /// enough: one simulated task per partition folded.
  Result<EagerValue> Combine(const DaskNodePtr& node) {
    std::unique_ptr<Combiner> combiner = CombinerFor(node->desc);
    LAFP_ASSIGN_OR_RETURN(auto stream, Stream(node->inputs[0]));
    size_t parts = 0;
    for (uint64_t rows = 0; !combiner->Enough(parts, rows); ++parts) {
      LAFP_ASSIGN_OR_RETURN(auto part, stream->Next());
      if (!part.has_value()) break;
      PayOverhead();
      rows += part->num_rows();
      LAFP_RETURN_NOT_OK(combiner->AddPartition(*part));
    }
    return combiner->Finish();
  }

  /// Memoize a small, fully evaluated result for this Materialize call.
  std::unique_ptr<PartitionStream> MemoizeSingle(const DaskNodePtr& node,
                                                 df::DataFrame result) {
    auto parts = std::make_shared<PartitionedFrame>();
    parts->Add(std::move(result));
    collected_[node.get()] = parts;
    return std::make_unique<PartitionedFrameStream>(parts, tracker_);
  }

  DaskBackend* backend_;
  MemoryTracker* tracker_;
  std::unordered_map<DaskNode*, std::shared_ptr<PartitionedFrame>>
      collected_;
  std::unordered_map<DaskNode*, df::Scalar> scalar_memo_;
};

namespace {

/// Stream over a fused blockwise zone: a maximal subgraph of row-wise ops
/// rooted at `root`. Each Next() pulls one aligned partition from every
/// zone source and evaluates the zone's ops on it — Dask-style operator
/// fusion, the reason chains of filters/projections run in constant
/// memory.
class ZoneStream : public PartitionStream {
 public:
  static Result<std::unique_ptr<PartitionStream>> Make(
      DaskEvaluator* eval, const DaskNodePtr& root);

  Result<std::optional<df::DataFrame>> Next() override;

 private:
  ZoneStream(DaskEvaluator* eval, DaskNodePtr root)
      : eval_(eval), root_(std::move(root)) {}

  Status Discover(const DaskNodePtr& node);
  Result<df::DataFrame> EvalRec(
      const DaskNodePtr& node,
      std::unordered_map<DaskNode*, df::DataFrame>* memo);

  bool InZone(const DaskNodePtr& node) const {
    return zone_.count(node.get()) > 0;
  }

  DaskEvaluator* eval_;
  DaskNodePtr root_;
  std::unordered_map<DaskNode*, bool> zone_;  // nodes evaluated per partition
  std::vector<DaskNodePtr> sources_;
  std::vector<std::unique_ptr<PartitionStream>> source_streams_;
  /// Per source, the rows of its last pull not yet evaluated.
  std::vector<std::optional<df::DataFrame>> carry_;
  std::unordered_map<DaskNode*, df::Scalar> scalar_inputs_;
  bool exhausted_ = false;
};

Result<std::unique_ptr<PartitionStream>> ZoneStream::Make(
    DaskEvaluator* eval, const DaskNodePtr& root) {
  auto stream =
      std::unique_ptr<ZoneStream>(new ZoneStream(eval, root));
  LAFP_RETURN_NOT_OK(stream->Discover(root));
  for (const auto& src : stream->sources_) {
    LAFP_ASSIGN_OR_RETURN(auto s, eval->Stream(src));
    stream->source_streams_.push_back(std::move(s));
  }
  stream->carry_.resize(stream->sources_.size());
  return std::unique_ptr<PartitionStream>(std::move(stream));
}

Status ZoneStream::Discover(const DaskNodePtr& node) {
  if (zone_.count(node.get()) > 0) return Status::OK();
  bool fusable = StrategyOf(node->desc) == Strategy::kMap &&
                 (node == root_ || (!node->persist_requested &&
                                    node->persisted == nullptr));
  if (!fusable) {
    if (node->produces_scalar) {
      LAFP_ASSIGN_OR_RETURN(df::Scalar s, eval_->EvalScalar(node));
      scalar_inputs_[node.get()] = std::move(s);
      return Status::OK();
    }
    // Partition source (read_csv, reduction output, merge output,
    // persisted node, ...).
    for (const auto& existing : sources_) {
      if (existing == node) return Status::OK();
    }
    sources_.push_back(node);
    return Status::OK();
  }
  zone_[node.get()] = true;
  for (const auto& in : node->inputs) {
    LAFP_RETURN_NOT_OK(Discover(in));
  }
  return Status::OK();
}

Result<std::optional<df::DataFrame>> ZoneStream::Next() {
  if (exhausted_) return std::optional<df::DataFrame>();
  size_t ended = 0;
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (carry_[i].has_value()) continue;
    LAFP_ASSIGN_OR_RETURN(carry_[i], source_streams_[i]->Next());
    if (!carry_[i].has_value()) ++ended;
  }
  if (ended == sources_.size() || sources_.empty()) {
    exhausted_ = true;
    return std::optional<df::DataFrame>();
  }
  if (ended > 0) {
    return Status::ExecutionError(
        "misaligned partitioning between fused inputs");
  }
  // Sources may partition differently (an LFC scan by its chunk_rows, an
  // imported frame by partition_rows): evaluate the shortest pull and
  // carry the other sources' remaining rows into the next one.
  size_t rows = carry_[0]->num_rows();
  for (const auto& part : carry_) rows = std::min(rows, part->num_rows());
  std::unordered_map<DaskNode*, df::DataFrame> memo;
  for (size_t i = 0; i < sources_.size(); ++i) {
    df::DataFrame& part = *carry_[i];
    const size_t have = part.num_rows();
    if (have == rows) {
      memo[sources_[i].get()] = std::move(part);
      carry_[i].reset();
      continue;
    }
    LAFP_ASSIGN_OR_RETURN(memo[sources_[i].get()], part.SliceRows(0, rows));
    LAFP_ASSIGN_OR_RETURN(carry_[i], part.SliceRows(rows, have - rows));
  }
  LAFP_ASSIGN_OR_RETURN(df::DataFrame out, EvalRec(root_, &memo));
  return std::optional<df::DataFrame>(std::move(out));
}

Result<df::DataFrame> ZoneStream::EvalRec(
    const DaskNodePtr& node,
    std::unordered_map<DaskNode*, df::DataFrame>* memo) {
  auto it = memo->find(node.get());
  if (it != memo->end()) return it->second;
  std::vector<EagerValue> inputs;
  for (const auto& in : node->inputs) {
    auto scalar_it = scalar_inputs_.find(in.get());
    if (scalar_it != scalar_inputs_.end()) {
      inputs.push_back(EagerValue::FromScalar(scalar_it->second));
      continue;
    }
    LAFP_ASSIGN_OR_RETURN(df::DataFrame frame, EvalRec(in, memo));
    inputs.push_back(EagerValue::Frame(std::move(frame)));
  }
  eval_->PayOverhead();
  LAFP_ASSIGN_OR_RETURN(EagerValue out,
                        ExecuteEagerOp(node->desc, inputs,
                                       eval_->tracker()));
  if (out.is_scalar) {
    return Status::ExecutionError("map op unexpectedly produced a scalar");
  }
  (*memo)[node.get()] = out.frame;
  return out.frame;
}

/// Sequential chaining of input streams (pd.concat): partitions of the
/// first input, then the second, and so on.
class ChainStream : public PartitionStream {
 public:
  explicit ChainStream(std::vector<std::unique_ptr<PartitionStream>> streams)
      : streams_(std::move(streams)) {}

  Result<std::optional<df::DataFrame>> Next() override {
    while (index_ < streams_.size()) {
      LAFP_ASSIGN_OR_RETURN(auto part, streams_[index_]->Next());
      if (part.has_value()) return part;
      ++index_;
    }
    return std::optional<df::DataFrame>();
  }

 private:
  std::vector<std::unique_ptr<PartitionStream>> streams_;
  size_t index_ = 0;
};

/// Broadcast hash join: the right side is fully materialized once, the
/// left side streams through.
class MergeStream : public PartitionStream {
 public:
  MergeStream(DaskEvaluator* eval, OpDesc desc,
              std::unique_ptr<PartitionStream> left, df::DataFrame right)
      : eval_(eval),
        desc_(std::move(desc)),
        left_(std::move(left)),
        right_(std::move(right)) {}

  Result<std::optional<df::DataFrame>> Next() override {
    LAFP_ASSIGN_OR_RETURN(auto part, left_->Next());
    if (!part.has_value()) return std::optional<df::DataFrame>();
    eval_->PayOverhead();
    LAFP_ASSIGN_OR_RETURN(
        df::DataFrame joined,
        df::Merge(*part, right_, desc_.columns, desc_.join_type));
    return std::optional<df::DataFrame>(std::move(joined));
  }

 private:
  DaskEvaluator* eval_;
  OpDesc desc_;
  std::unique_ptr<PartitionStream> left_;
  df::DataFrame right_;
};

}  // namespace

Result<std::unique_ptr<PartitionStream>> DaskEvaluator::StreamInner(
    const DaskNodePtr& node) {
  const OpDesc& desc = node->desc;
  switch (StrategyOf(desc)) {
    case Strategy::kScan: {
      const BackendConfig& config = backend_->config();
      LAFP_ASSIGN_OR_RETURN(
          auto units, ScanUnits::Open(desc, config.partition_rows, tracker_));
      // CSV ranges parse ahead within the prefetch window; LFC chunks
      // decode from the mapping one at a time.
      const size_t window = desc.kind == OpKind::kReadCsv
                                ? config.prefetch_partitions
                                : 1;
      return std::unique_ptr<PartitionStream>(std::make_unique<ScanStream>(
          std::move(units), window, config.task_overhead_us));
    }
    case Strategy::kMap:
      return ZoneStream::Make(this, node);
    case Strategy::kMerge: {
      LAFP_ASSIGN_OR_RETURN(auto left, Stream(node->inputs[0]));
      // Broadcast: the right side is materialized (tracked; a deliberate
      // potential OOM point, mirroring real Dask broadcast joins).
      LAFP_ASSIGN_OR_RETURN(df::DataFrame right,
                            CollectEager(node->inputs[1]));
      return std::unique_ptr<PartitionStream>(std::make_unique<MergeStream>(
          this, desc, std::move(left), std::move(right)));
    }
    case Strategy::kChain: {
      std::vector<std::unique_ptr<PartitionStream>> streams;
      for (const auto& in : node->inputs) {
        LAFP_ASSIGN_OR_RETURN(auto s, Stream(in));
        streams.push_back(std::move(s));
      }
      return std::unique_ptr<PartitionStream>(
          std::make_unique<ChainStream>(std::move(streams)));
    }
    case Strategy::kCombine: {
      // The combiners' state grows only with the result (distinct keys,
      // head's rows), and head stops pulling early.
      LAFP_ASSIGN_OR_RETURN(EagerValue out, Combine(node));
      return MemoizeSingle(node, std::move(out.frame));
    }
    case Strategy::kLen:
    case Strategy::kGather:
      break;
  }
  // Gather inside the backend (sort, nunique group-bys and anything
  // exotic): collect the inputs, run the eager kernel.
  std::vector<EagerValue> inputs;
  for (const auto& in : node->inputs) {
    if (in->produces_scalar) {
      LAFP_ASSIGN_OR_RETURN(df::Scalar s, EvalScalar(in));
      inputs.push_back(EagerValue::FromScalar(std::move(s)));
      continue;
    }
    LAFP_ASSIGN_OR_RETURN(df::DataFrame frame, CollectEager(in));
    inputs.push_back(EagerValue::Frame(std::move(frame)));
  }
  PayOverhead();
  LAFP_ASSIGN_OR_RETURN(EagerValue out, ExecuteEagerOp(desc, inputs, tracker_));
  if (out.is_scalar) {
    return Status::ExecutionError("unexpected scalar from fallback op");
  }
  return MemoizeSingle(node, std::move(out.frame));
}

}  // namespace internal

namespace {

// Default spill directories must be unique per backend instance: spill
// file names are derived from a per-instance counter, so two backends
// (or two test processes) sharing one directory would overwrite each
// other's partitions mid-read.
std::string DefaultSpillDir(const char* base) {
  static std::atomic<uint64_t> instance{0};
  return (std::filesystem::temp_directory_path() /
          (std::string(base) + "_" + std::to_string(::getpid()) + "_" +
           std::to_string(instance.fetch_add(1, std::memory_order_relaxed))))
      .string();
}

}  // namespace

DaskBackend::DaskBackend(MemoryTracker* tracker, const BackendConfig& config)
    : Backend(tracker, config) {
  owns_spill_dir_ = config.spill_dir.empty();
  spill_dir_ =
      owns_spill_dir_ ? DefaultSpillDir("lafp_dask_spill") : config.spill_dir;
  owns_spill_fallback_dir_ = config.spill_fallback_dir.empty();
  spill_fallback_dir_ = owns_spill_fallback_dir_
                            ? DefaultSpillDir("lafp_dask_spill_alt")
                            : config.spill_fallback_dir;
}

DaskBackend::~DaskBackend() {
  std::error_code ec;  // best-effort cleanup; ignore races with other dtors
  if (owns_spill_dir_) std::filesystem::remove_all(spill_dir_, ec);
  if (owns_spill_fallback_dir_) {
    std::filesystem::remove_all(spill_fallback_dir_, ec);
  }
}

bool DaskBackend::SupportsOp(const OpDesc& desc) const {
  // No global row order in Dask (paper §5.2): programs fall back to
  // Pandas around sort_values. Print is the session's.
  return desc.kind != OpKind::kPrint && desc.kind != OpKind::kSortValues;
}

Result<BackendValue> DaskBackend::Execute(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  trace::Span span("dask:execute", "backend");
  if (span.active()) span.AddArg("op", desc.ToString());
  auto node = std::make_shared<internal::DaskNode>();
  node->desc = desc;
  for (const auto& in : inputs) {
    if (in.is_scalar) {
      // Immediate scalar input: freeze it into the plan as a constant.
      auto constant = std::make_shared<internal::DaskNode>();
      constant->desc.kind = OpKind::kReduce;  // placeholder kind
      constant->produces_scalar = true;
      constant->persisted_scalar = std::make_shared<df::Scalar>(in.scalar);
      node->inputs.push_back(std::move(constant));
      continue;
    }
    LAFP_ASSIGN_OR_RETURN(internal::DaskNodePtr in_node,
                          internal::NodeOf(in));
    node->inputs.push_back(std::move(in_node));
  }
  node->produces_scalar = Traits(desc.kind).Is(OpTraits::kScalarResult);
  return BackendValue::Frame(std::move(node));
}

Result<EagerValue> DaskBackend::Materialize(const BackendValue& value) {
  if (value.is_scalar) return EagerValue::FromScalar(value.scalar);
  LAFP_ASSIGN_OR_RETURN(internal::DaskNodePtr node,
                        internal::NodeOf(value));
  internal::DaskEvaluator evaluator(this);
  return evaluator.MaterializeNode(node);
}

Result<BackendValue> DaskBackend::FromEager(const EagerValue& value) {
  if (value.is_scalar) return BackendValue::FromScalar(value.scalar);
  auto node = std::make_shared<internal::DaskNode>();
  node->desc.kind = OpKind::kReadCsv;  // placeholder; never re-evaluated
  LAFP_ASSIGN_OR_RETURN(
      PartitionedFrame parts,
      PartitionedFrame::FromEager(value.frame, config_.partition_rows));
  node->persisted = std::make_shared<PartitionedFrame>(std::move(parts));
  return BackendValue::Frame(std::move(node));
}

Status DaskBackend::Persist(const BackendValue& value) {
  if (value.is_scalar) return Status::OK();
  LAFP_ASSIGN_OR_RETURN(internal::DaskNodePtr node,
                        internal::NodeOf(value));
  node->persist_requested = true;
  return Status::OK();
}

}  // namespace lafp::exec
