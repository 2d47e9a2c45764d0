#include "exec/dask_backend.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/macros.h"
#include "common/trace.h"
#include "exec/agg_twophase.h"
#include "exec/partitioned.h"

namespace lafp::exec {

namespace internal {

/// One node of the Dask plan DAG.
struct DaskNode : public BackendFrame {
  OpDesc desc;
  Strategy strategy = Strategy::kGather;
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

Status Unplanned(const DaskNode& node) {
  return Status::Invalid("dask: " + node.desc.ToString() +
                         " has no result from an earlier wave");
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

/// A fused blockwise zone: the row-wise (kMap) ops between one or more
/// roots and their partition sources — scans, persisted or memoized
/// frames, merge and concat streams. Scalar inputs (reductions, len) are
/// evaluated before the zone runs.
struct Zone {
  std::vector<DaskNodePtr> roots;
  std::unordered_set<const DaskNode*> members;  // evaluated per partition
  std::vector<DaskNodePtr> sources;             // first-discovery order
  std::vector<DaskNodePtr> scalars;

  /// Adds `root` and the ops it fuses. A persisted or persist-requested
  /// map op is a source, unless `fuse_root` asks to evaluate the root
  /// itself (its persist collection).
  void Add(const DaskNodePtr& root, bool fuse_root) {
    roots.push_back(root);
    Discover(root, fuse_root);
  }

 private:
  void Discover(const DaskNodePtr& node, bool fuse) {
    if (members.count(node.get()) > 0) return;
    const bool fusable =
        node->strategy == Strategy::kMap &&
        (fuse || (!node->persist_requested && node->persisted == nullptr));
    if (!fusable) {
      std::vector<DaskNodePtr>& list =
          node->produces_scalar ? scalars : sources;
      if (std::find(list.begin(), list.end(), node) == list.end()) {
        list.push_back(node);
      }
      return;
    }
    members.insert(node.get());
    for (const auto& in : node->inputs) Discover(in, false);
  }
};

}  // namespace

/// Evaluates a set of targets, as one dask.compute(*targets) does: it
/// plans the folds the targets need — combines, lens, collections of a
/// whole frame (targets, merge right sides, gather inputs) and persist
/// collections — and runs them in dependency waves. In a wave, the folds
/// over the same sources share one pass (RunPass), the only loop that
/// folds partitions. Results are NOT retained across evaluators unless
/// the node is persisted: re-computation across forced computes is
/// exactly what the paper's common-computation-reuse optimization
/// targets.
class DaskEvaluator {
 public:
  explicit DaskEvaluator(DaskBackend* backend)
      : backend_(backend), tracker_(backend->tracker()) {}

  Result<std::vector<EagerValue>> MaterializeAll(
      const std::vector<DaskNodePtr>& targets);

  MemoryTracker* tracker() const { return tracker_; }

  void PayOverhead() {
    if (backend_->config().task_overhead_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(backend_->config().task_overhead_us));
    }
  }

  /// Stream of partitions for a frame-producing node whose prerequisites
  /// ran in earlier waves.
  Result<std::unique_ptr<PartitionStream>> Stream(const DaskNodePtr& node);

  /// A scalar node's value, evaluated in an earlier wave.
  Result<df::Scalar> ScalarOf(const DaskNode& node) const {
    if (node.persisted_scalar != nullptr) return *node.persisted_scalar;
    auto it = scalars_.find(&node);
    if (it == scalars_.end()) return Unplanned(node);
    return it->second;
  }

 private:
  enum class Fold { kCombine, kLen, kCollect, kPersist };

  /// One fold over a root's partitions.
  struct Consumer {
    Fold fold;
    DaskNodePtr node;  // whose result the fold produces
    DaskNodePtr root;  // whose partitions it folds
    Zone zone;         // the root's zone alone: its sources key the pass
    int wave = 0;
    std::unique_ptr<Combiner> combiner;           // kCombine
    size_t parts = 0;                             // kCombine
    uint64_t rows = 0;                            // kCombine, kLen
    std::vector<df::DataFrame> collected;         // kCollect
    std::shared_ptr<PartitionedFrame> persisted;  // kPersist
    std::string spill_prefix;                     // kPersist

    /// Head's prefix is decided: the consumer takes no more partitions.
    bool Enough() const {
      return combiner != nullptr && combiner->Enough(parts, rows);
    }
  };

  /// Plans `fold` over `node` and what it needs; returns its wave.
  Result<int> Need(Fold fold, const DaskNodePtr& node);
  Result<int> NeedScalar(const DaskNodePtr& node);
  /// Latest wave among what opening `node`'s stream needs (-1: none).
  /// `inner` opens a persist-requested node's own plan, for its
  /// collection.
  Result<int> StreamDeps(const DaskNodePtr& node, bool inner);
  Result<int> ZoneDeps(const Zone& zone, const DaskNode* inner_root);

  Status RunPass(const std::vector<Consumer*>& group);
  Status FoldPartition(Consumer* c, df::DataFrame part);
  Status Finish(Consumer* c);
  void SetScalar(const DaskNodePtr& node, df::Scalar value);

  Result<std::unique_ptr<PartitionStream>> StreamInner(
      const DaskNodePtr& node);

  /// Memoize a small, fully evaluated result for this evaluator.
  std::unique_ptr<PartitionStream> MemoizeSingle(const DaskNodePtr& node,
                                                 df::DataFrame result) {
    auto parts = std::make_shared<PartitionedFrame>();
    parts->Add(std::move(result));
    collected_[node.get()] = parts;
    return std::make_unique<PartitionedFrameStream>(parts, tracker_);
  }

  DaskBackend* backend_;
  MemoryTracker* tracker_;
  /// Planned folds, in first-appearance order from the targets.
  std::vector<std::unique_ptr<Consumer>> consumers_;
  /// Per Fold, the consumer planned for each node.
  std::array<std::unordered_map<const DaskNode*, Consumer*>, 4> planned_;
  /// StreamDeps memo, by `inner`.
  std::array<std::unordered_map<const DaskNode*, int>, 2> stream_deps_;
  /// Combine and gather results, streamed as one partition.
  std::unordered_map<const DaskNode*, std::shared_ptr<PartitionedFrame>>
      collected_;
  /// Whole-frame collections.
  std::unordered_map<const DaskNode*, df::DataFrame> frames_;
  std::unordered_map<const DaskNode*, df::Scalar> scalars_;
};

namespace {

/// Evaluates a zone one aligned partition set at a time: each Pull()
/// takes one partition from every source, then Eval(i) runs root i's ops
/// on it with one memo shared by all roots — Dask-style operator fusion,
/// the reason chains of filters/projections run in constant memory.
/// Release(i) drops what no later root reads.
class ZoneStream : public PartitionStream {
 public:
  /// Opens the zone's sources; its scalar inputs must be evaluated.
  static Result<std::unique_ptr<ZoneStream>> Open(DaskEvaluator* eval,
                                                  Zone zone);

  /// Pulls the next aligned partition set; false at the end.
  Result<bool> Pull();
  Result<df::DataFrame> Eval(size_t root) {
    return EvalRec(zone_.roots[root]);
  }
  void Release(size_t root) {
    for (const DaskNode* node : release_after_[root]) memo_.erase(node);
  }

  /// The first root's partitions (a merge's left side, a concat input).
  Result<std::optional<df::DataFrame>> Next() override {
    LAFP_ASSIGN_OR_RETURN(bool pulled, Pull());
    if (!pulled) return std::optional<df::DataFrame>();
    LAFP_ASSIGN_OR_RETURN(df::DataFrame out, Eval(0));
    memo_.clear();
    return std::optional<df::DataFrame>(std::move(out));
  }

  size_t num_sources() const { return zone_.sources.size(); }

 private:
  ZoneStream(DaskEvaluator* eval, Zone zone)
      : eval_(eval), zone_(std::move(zone)) {}

  Result<df::DataFrame> EvalRec(const DaskNodePtr& node);

  DaskEvaluator* eval_;
  Zone zone_;
  std::vector<std::unique_ptr<PartitionStream>> source_streams_;
  /// Per source, the rows of its last pull not yet evaluated.
  std::vector<std::optional<df::DataFrame>> carry_;
  std::unordered_map<const DaskNode*, df::Scalar> scalar_inputs_;
  /// The pulled partition set's sources and evaluated ops.
  std::unordered_map<const DaskNode*, df::DataFrame> memo_;
  /// Per root, the memo entries no later root reads.
  std::vector<std::vector<const DaskNode*>> release_after_;
  bool exhausted_ = false;
};

Result<std::unique_ptr<ZoneStream>> ZoneStream::Open(DaskEvaluator* eval,
                                                     Zone zone) {
  auto stream = std::unique_ptr<ZoneStream>(new ZoneStream(eval, std::move(zone)));
  const Zone& z = stream->zone_;
  for (const auto& scalar : z.scalars) {
    LAFP_ASSIGN_OR_RETURN(stream->scalar_inputs_[scalar.get()],
                          eval->ScalarOf(*scalar));
  }
  for (const auto& src : z.sources) {
    LAFP_ASSIGN_OR_RETURN(auto s, eval->Stream(src));
    stream->source_streams_.push_back(std::move(s));
  }
  stream->carry_.resize(z.sources.size());
  // The last root that reads each memo entry releases it.
  std::unordered_map<const DaskNode*, size_t> last_reader;
  std::vector<const DaskNode*> order;
  for (size_t i = 0; i < z.roots.size(); ++i) {
    std::unordered_set<const DaskNode*> seen;
    std::vector<const DaskNode*> stack = {z.roots[i].get()};
    while (!stack.empty()) {
      const DaskNode* node = stack.back();
      stack.pop_back();
      if (node->produces_scalar || !seen.insert(node).second) continue;
      if (last_reader.emplace(node, i).second) order.push_back(node);
      last_reader[node] = i;
      if (z.members.count(node) == 0) continue;
      for (const auto& in : node->inputs) stack.push_back(in.get());
    }
  }
  stream->release_after_.resize(z.roots.size());
  for (const DaskNode* node : order) {
    stream->release_after_[last_reader[node]].push_back(node);
  }
  return stream;
}

Result<bool> ZoneStream::Pull() {
  memo_.clear();
  if (exhausted_) return false;
  size_t ended = 0;
  for (size_t i = 0; i < source_streams_.size(); ++i) {
    if (carry_[i].has_value()) continue;
    LAFP_ASSIGN_OR_RETURN(carry_[i], source_streams_[i]->Next());
    if (!carry_[i].has_value()) ++ended;
  }
  if (ended == source_streams_.size() || source_streams_.empty()) {
    exhausted_ = true;
    return false;
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
  for (size_t i = 0; i < carry_.size(); ++i) {
    const DaskNode* source = zone_.sources[i].get();
    df::DataFrame& part = *carry_[i];
    const size_t have = part.num_rows();
    if (have == rows) {
      memo_[source] = std::move(part);
      carry_[i].reset();
      continue;
    }
    LAFP_ASSIGN_OR_RETURN(memo_[source], part.SliceRows(0, rows));
    LAFP_ASSIGN_OR_RETURN(carry_[i], part.SliceRows(rows, have - rows));
  }
  return true;
}

Result<df::DataFrame> ZoneStream::EvalRec(const DaskNodePtr& node) {
  auto it = memo_.find(node.get());
  if (it != memo_.end()) return it->second;
  std::vector<EagerValue> inputs;
  for (const auto& in : node->inputs) {
    auto scalar_it = scalar_inputs_.find(in.get());
    if (scalar_it != scalar_inputs_.end()) {
      inputs.push_back(EagerValue::FromScalar(scalar_it->second));
      continue;
    }
    LAFP_ASSIGN_OR_RETURN(df::DataFrame frame, EvalRec(in));
    inputs.push_back(EagerValue::Frame(std::move(frame)));
  }
  eval_->PayOverhead();
  LAFP_ASSIGN_OR_RETURN(EagerValue out,
                        ExecuteEagerOp(node->desc, inputs,
                                       eval_->tracker()));
  if (out.is_scalar) {
    return Status::ExecutionError("map op unexpectedly produced a scalar");
  }
  memo_[node.get()] = out.frame;
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

Result<std::vector<EagerValue>> DaskEvaluator::MaterializeAll(
    const std::vector<DaskNodePtr>& targets) {
  int last_wave = -1;
  for (const auto& target : targets) {
    LAFP_ASSIGN_OR_RETURN(int wave, target->produces_scalar
                                        ? NeedScalar(target)
                                        : Need(Fold::kCollect, target));
    last_wave = std::max(last_wave, wave);
  }
  for (int wave = 0; wave <= last_wave; ++wave) {
    // Folds over the same sources share a pass; passes run in the order
    // their first fold was planned.
    std::vector<std::vector<const DaskNode*>> keys;
    std::vector<std::vector<Consumer*>> groups;
    for (const auto& c : consumers_) {
      if (c->wave != wave) continue;
      std::vector<const DaskNode*> key;
      for (const auto& src : c->zone.sources) key.push_back(src.get());
      std::sort(key.begin(), key.end());
      auto it = std::find(keys.begin(), keys.end(), key);
      if (it == keys.end()) {
        keys.push_back(std::move(key));
        groups.push_back({c.get()});
      } else {
        groups[it - keys.begin()].push_back(c.get());
      }
    }
    for (const auto& group : groups) LAFP_RETURN_NOT_OK(RunPass(group));
  }
  std::vector<EagerValue> out;
  out.reserve(targets.size());
  for (const auto& target : targets) {
    if (target->produces_scalar) {
      LAFP_ASSIGN_OR_RETURN(df::Scalar s, ScalarOf(*target));
      out.push_back(EagerValue::FromScalar(std::move(s)));
      continue;
    }
    auto it = frames_.find(target.get());
    if (it == frames_.end()) return Unplanned(*target);
    out.push_back(EagerValue::Frame(it->second));
  }
  return out;
}

Result<int> DaskEvaluator::Need(Fold fold, const DaskNodePtr& node) {
  auto& planned = planned_[static_cast<size_t>(fold)];
  auto it = planned.find(node.get());
  if (it != planned.end()) return it->second->wave;
  auto c = std::make_unique<Consumer>();
  c->fold = fold;
  c->node = node;
  c->root = node;
  if (fold == Fold::kCombine || fold == Fold::kLen) {
    if (node->inputs.empty()) return Status::Invalid("fold without an input");
    c->root = node->inputs[0];
  }
  if (c->root->produces_scalar) {
    return Status::Invalid("cannot stream a scalar node");
  }
  if (fold == Fold::kCombine) c->combiner = CombinerFor(node->desc);
  if (fold == Fold::kPersist) {
    c->persisted = std::make_shared<PartitionedFrame>();
    c->spill_prefix = "persist" + std::to_string(backend_->spill_counter_++);
  }
  c->zone.Add(c->root, fold == Fold::kPersist);
  LAFP_ASSIGN_OR_RETURN(
      int deps,
      ZoneDeps(c->zone, fold == Fold::kPersist ? c->root.get() : nullptr));
  c->wave = deps + 1;
  Consumer* consumer = c.get();
  consumers_.push_back(std::move(c));
  planned.emplace(node.get(), consumer);
  return consumer->wave;
}

Result<int> DaskEvaluator::NeedScalar(const DaskNodePtr& node) {
  if (node->persisted_scalar != nullptr) return -1;
  switch (node->strategy) {
    case Strategy::kLen:
      return Need(Fold::kLen, node);
    case Strategy::kCombine:
      return Need(Fold::kCombine, node);
    default:
      return Status::Invalid("node does not produce a scalar");
  }
}

Result<int> DaskEvaluator::ZoneDeps(const Zone& zone,
                                    const DaskNode* inner_root) {
  int deps = -1;
  for (const auto& src : zone.sources) {
    LAFP_ASSIGN_OR_RETURN(int wave, StreamDeps(src, src.get() == inner_root));
    deps = std::max(deps, wave);
  }
  for (const auto& scalar : zone.scalars) {
    LAFP_ASSIGN_OR_RETURN(int wave, NeedScalar(scalar));
    deps = std::max(deps, wave);
  }
  return deps;
}

Result<int> DaskEvaluator::StreamDeps(const DaskNodePtr& node, bool inner) {
  if (!inner) {
    if (node->persisted != nullptr) return -1;
    if (node->persist_requested) return Need(Fold::kPersist, node);
  }
  auto& memo = stream_deps_[inner ? 1 : 0];
  auto it = memo.find(node.get());
  if (it != memo.end()) return it->second;
  int deps = -1;
  switch (node->strategy) {
    case Strategy::kScan:
      break;
    case Strategy::kMap: {
      Zone zone;
      zone.Add(node, true);
      LAFP_ASSIGN_OR_RETURN(deps, ZoneDeps(zone, nullptr));
      break;
    }
    case Strategy::kMerge: {
      LAFP_ASSIGN_OR_RETURN(int left, StreamDeps(node->inputs[0], false));
      LAFP_ASSIGN_OR_RETURN(int right, Need(Fold::kCollect, node->inputs[1]));
      deps = std::max(left, right);
      break;
    }
    case Strategy::kChain:
      for (const auto& in : node->inputs) {
        LAFP_ASSIGN_OR_RETURN(int wave, StreamDeps(in, false));
        deps = std::max(deps, wave);
      }
      break;
    case Strategy::kCombine: {
      LAFP_ASSIGN_OR_RETURN(deps, Need(Fold::kCombine, node));
      break;
    }
    case Strategy::kGather:
      for (const auto& in : node->inputs) {
        LAFP_ASSIGN_OR_RETURN(int wave, in->produces_scalar
                                            ? NeedScalar(in)
                                            : Need(Fold::kCollect, in));
        deps = std::max(deps, wave);
      }
      break;
    case Strategy::kLen:
      return Status::Invalid("cannot stream a scalar node");
  }
  memo.emplace(node.get(), deps);
  return deps;
}

Status DaskEvaluator::RunPass(const std::vector<Consumer*>& group) {
  trace::Span span("dask:pass", "backend");
  Zone zone;
  for (Consumer* c : group) zone.Add(c->root, c->fold == Fold::kPersist);
  LAFP_ASSIGN_OR_RETURN(std::unique_ptr<ZoneStream> stream,
                        ZoneStream::Open(this, std::move(zone)));
  const CancellationToken* cancel = backend_->exec_options().cancel;
  int64_t partitions = 0;
  while (std::any_of(group.begin(), group.end(),
                     [](const Consumer* c) { return !c->Enough(); })) {
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("dask pass cancelled");
    }
    bool pulled = false;
    {
      trace::Span pull_span("dask:pull", "backend");
      LAFP_ASSIGN_OR_RETURN(pulled, stream->Pull());
    }
    if (!pulled) break;
    ++partitions;
    // Every root is evaluated, dropping what no later root reads, before
    // any fold runs: a fold holds only the roots' outputs beside it.
    std::vector<std::optional<df::DataFrame>> outputs(group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      if (!group[i]->Enough()) {
        trace::Span eval_span("dask:zone", "backend");
        if (eval_span.active()) {
          eval_span.AddArg("root", group[i]->root->desc.ToString());
        }
        LAFP_ASSIGN_OR_RETURN(outputs[i], stream->Eval(i));
      }
      stream->Release(i);
    }
    for (size_t i = 0; i < group.size(); ++i) {
      if (!outputs[i].has_value()) continue;
      trace::Span fold_span("dask:fold", "backend");
      if (fold_span.active()) {
        fold_span.AddArg("op", group[i]->node->desc.ToString());
      }
      LAFP_RETURN_NOT_OK(FoldPartition(group[i], std::move(*outputs[i])));
      outputs[i].reset();
    }
  }
  if (span.active()) {
    span.AddArg("consumers", static_cast<int64_t>(group.size()));
    span.AddArg("sources", static_cast<int64_t>(stream->num_sources()));
    span.AddArg("partitions", partitions);
  }
  for (Consumer* c : group) {
    trace::Span finish_span("dask:finish", "backend");
    if (finish_span.active()) {
      finish_span.AddArg("op", c->node->desc.ToString());
    }
    LAFP_RETURN_NOT_OK(Finish(c));
  }
  return Status::OK();
}

Status DaskEvaluator::FoldPartition(Consumer* c, df::DataFrame part) {
  switch (c->fold) {
    case Fold::kCombine:
      // One simulated task per partition folded.
      PayOverhead();
      ++c->parts;
      c->rows += part.num_rows();
      return c->combiner->AddPartition(part);
    case Fold::kLen:
      c->rows += part.num_rows();
      return Status::OK();
    case Fold::kCollect:
      c->collected.push_back(std::move(part));
      return Status::OK();
    case Fold::kPersist: {
      // With the §5.4 disk extension, partitions spill as they arrive so
      // the collection never holds more than one in memory.
      c->persisted->Add(std::move(part));
      if (!backend_->config().spill_persisted) return Status::OK();
      const size_t i = c->persisted->num_partitions() - 1;
      const std::string part_name = c->spill_prefix + "_" + std::to_string(i);
      Status spilled =
          c->persisted->SpillPartition(i, backend_->spill_dir_, part_name);
      if (!spilled.ok() &&
          backend_->spill_fallback_dir_ != backend_->spill_dir_) {
        // Graceful degradation: a full or dead spill device should not
        // abort the round when an alternate directory is configured.
        // SpillPartition is retry-safe — the partition stays in memory
        // until a write fully succeeds.
        spilled = c->persisted->SpillPartition(
            i, backend_->spill_fallback_dir_, part_name);
      }
      return spilled;
    }
  }
  return Status::OK();
}

Status DaskEvaluator::Finish(Consumer* c) {
  switch (c->fold) {
    case Fold::kCombine: {
      // The combiners' state grows only with the result (distinct keys,
      // head's rows).
      LAFP_ASSIGN_OR_RETURN(EagerValue out, c->combiner->Finish());
      if (c->node->produces_scalar) {
        SetScalar(c->node, std::move(out.scalar));
      } else {
        MemoizeSingle(c->node, std::move(out.frame));
      }
      return Status::OK();
    }
    case Fold::kLen:
      SetScalar(c->node, df::Scalar::Int(static_cast<int64_t>(c->rows)));
      return Status::OK();
    case Fold::kCollect: {
      LAFP_ASSIGN_OR_RETURN(df::DataFrame all,
                            ConcatPartitions(std::move(c->collected)));
      frames_[c->node.get()] = std::move(all);
      return Status::OK();
    }
    case Fold::kPersist:
      // Cached across materializations from here on.
      c->node->persisted = std::move(c->persisted);
      return Status::OK();
  }
  return Status::OK();
}

void DaskEvaluator::SetScalar(const DaskNodePtr& node, df::Scalar value) {
  if (node->persist_requested) {
    node->persisted_scalar = std::make_shared<df::Scalar>(value);
  }
  scalars_[node.get()] = std::move(value);
}

Result<std::unique_ptr<PartitionStream>> DaskEvaluator::Stream(
    const DaskNodePtr& node) {
  if (node->produces_scalar) {
    return Status::Invalid("cannot stream a scalar node");
  }
  if (node->persisted != nullptr) {
    return std::unique_ptr<PartitionStream>(
        std::make_unique<PartitionedFrameStream>(node->persisted, tracker_));
  }
  auto memo = collected_.find(node.get());
  if (memo != collected_.end()) {
    return std::unique_ptr<PartitionStream>(
        std::make_unique<PartitionedFrameStream>(memo->second, tracker_));
  }
  return StreamInner(node);
}

Result<std::unique_ptr<PartitionStream>> DaskEvaluator::StreamInner(
    const DaskNodePtr& node) {
  const OpDesc& desc = node->desc;
  switch (node->strategy) {
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
    case Strategy::kMap: {
      Zone zone;
      zone.Add(node, true);
      LAFP_ASSIGN_OR_RETURN(std::unique_ptr<ZoneStream> stream,
                            ZoneStream::Open(this, std::move(zone)));
      return std::unique_ptr<PartitionStream>(std::move(stream));
    }
    case Strategy::kMerge: {
      LAFP_ASSIGN_OR_RETURN(auto left, Stream(node->inputs[0]));
      // Broadcast: the right side was collected in an earlier wave
      // (tracked; a deliberate potential OOM point, mirroring real Dask
      // broadcast joins).
      auto right = frames_.find(node->inputs[1].get());
      if (right == frames_.end()) return Unplanned(*node->inputs[1]);
      return std::unique_ptr<PartitionStream>(std::make_unique<MergeStream>(
          this, desc, std::move(left), right->second));
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
    case Strategy::kGather: {
      // Gather inside the backend (sort, nunique group-bys and anything
      // exotic): the inputs were collected in an earlier wave; run the
      // eager kernel.
      std::vector<EagerValue> inputs;
      for (const auto& in : node->inputs) {
        if (in->produces_scalar) {
          LAFP_ASSIGN_OR_RETURN(df::Scalar s, ScalarOf(*in));
          inputs.push_back(EagerValue::FromScalar(std::move(s)));
          continue;
        }
        auto frame = frames_.find(in.get());
        if (frame == frames_.end()) return Unplanned(*in);
        inputs.push_back(EagerValue::Frame(frame->second));
      }
      PayOverhead();
      LAFP_ASSIGN_OR_RETURN(EagerValue out,
                            ExecuteEagerOp(desc, inputs, tracker_));
      if (out.is_scalar) {
        return Status::ExecutionError("unexpected scalar from fallback op");
      }
      return MemoizeSingle(node, std::move(out.frame));
    }
    case Strategy::kCombine:
    case Strategy::kLen:
      break;
  }
  return Unplanned(*node);
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

DaskBackend::DaskBackend(MemoryTracker* tracker, const BackendConfig& config,
                         const ExecutionOptions& exec)
    : Backend(tracker, config, exec) {
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
  node->strategy = StrategyOf(desc);
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
  LAFP_ASSIGN_OR_RETURN(std::vector<EagerValue> out, MaterializeAll({value}));
  return std::move(out[0]);
}

Result<std::vector<EagerValue>> DaskBackend::MaterializeAll(
    const std::vector<BackendValue>& values) {
  std::vector<internal::DaskNodePtr> targets;
  for (const auto& value : values) {
    if (value.is_scalar) continue;
    LAFP_ASSIGN_OR_RETURN(internal::DaskNodePtr node,
                          internal::NodeOf(value));
    targets.push_back(std::move(node));
  }
  internal::DaskEvaluator evaluator(this);
  LAFP_ASSIGN_OR_RETURN(std::vector<EagerValue> results,
                        evaluator.MaterializeAll(targets));
  std::vector<EagerValue> out;
  out.reserve(values.size());
  size_t next = 0;
  for (const auto& value : values) {
    out.push_back(value.is_scalar ? EagerValue::FromScalar(value.scalar)
                                  : std::move(results[next++]));
  }
  return out;
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
