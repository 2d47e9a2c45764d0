#include "shard/shard_backend.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <deque>
#include <utility>

#include "common/fault.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dataframe/ops.h"
#include "exec/agg_twophase.h"
#include "exec/partition.h"
#include "exec/spill.h"
#include "shard/worker.h"

namespace lafp::shard {

namespace {

using exec::BackendValue;
using exec::EagerValue;
using exec::OpDesc;
using exec::OpKind;

/// Upper bound on worker processes; LAFP_SHARDS beyond this clamps.
constexpr int kMaxShards = 64;

/// Coordinator-side handle to a sharded frame. Destruction queues the
/// remote frees (any scheduler thread may drop the last reference; the
/// actual protocol calls happen on the coordinator thread).
class ShardFrame : public exec::BackendFrame {
 public:
  ShardFrame(std::shared_ptr<Cluster> cluster,
             std::vector<ShardPartition> parts)
      : cluster_(std::move(cluster)), parts_(std::move(parts)) {
    for (const auto& p : parts_) rows_ += p.rows;
  }
  ~ShardFrame() override {
    for (const auto& p : parts_) {
      cluster_->QueueFree(p.worker, p.generation, p.handle);
    }
  }

  const std::vector<ShardPartition>& parts() const { return parts_; }
  uint64_t num_rows() const { return rows_; }

 private:
  std::shared_ptr<Cluster> cluster_;
  std::vector<ShardPartition> parts_;
  uint64_t rows_ = 0;
};

Result<const ShardFrame*> PartsOf(const BackendValue& value) {
  auto* wrapped = dynamic_cast<ShardFrame*>(value.frame.get());
  if (wrapped == nullptr) {
    return Status::Invalid("foreign frame handle passed to shard backend");
  }
  return wrapped;
}

Result<uint64_t> RowsOfOkReply(const Message& reply) {
  if (reply.type != MsgType::kOk) {
    return Status::IOError("shard: unexpected reply type " +
                           std::to_string(static_cast<uint32_t>(reply.type)));
  }
  WireReader r(reply.payload);
  uint64_t rows = 0;
  if (!r.U64(&rows)) return r.Error("ok reply");
  return rows;
}

Result<std::string_view> FrameBytesOfReply(const Message& reply) {
  if (reply.type != MsgType::kFrameData) {
    return Status::IOError("shard: expected frame data, got reply type " +
                           std::to_string(static_cast<uint32_t>(reply.type)));
  }
  return std::string_view(reply.payload);
}

metrics::Counter* CallCounter() {
  static auto* c = metrics::Registry::Global()->GetCounter("shard.calls");
  return c;
}

metrics::Counter* BytesCounter() {
  static auto* c =
      metrics::Registry::Global()->GetCounter("shard.bytes_shipped");
  return c;
}

metrics::Counter* RestartCounter() {
  static auto* c =
      metrics::Registry::Global()->GetCounter("shard.worker_restarts");
  return c;
}

metrics::Counter* RetryCounter() {
  static auto* c =
      metrics::Registry::Global()->GetCounter("shard.scan_retries");
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cluster

Result<std::unique_ptr<Cluster>> Cluster::Spawn(int num_workers) {
  if (num_workers < 1 || num_workers > kMaxShards) {
    return Status::Invalid("shard: worker count must be in [1, " +
                           std::to_string(kMaxShards) + "], got " +
                           std::to_string(num_workers));
  }
  std::unique_ptr<Cluster> cluster(new Cluster());
  cluster->workers_.resize(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    LAFP_RETURN_NOT_OK(cluster->SpawnWorker(w));
  }
  return cluster;
}

Cluster::~Cluster() {
  for (auto& worker : workers_) {
    if (!worker.alive) continue;
    // Workers hold only process-local state; SIGKILL is a clean teardown
    // and never leaves a query half-applied (results only exist once the
    // coordinator has the reply).
    ::kill(worker.pid, SIGKILL);
    ::close(worker.fd);
    ::waitpid(worker.pid, nullptr, 0);
    worker.alive = false;
  }
}

Status Cluster::SpawnWorker(int w) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return Status::IOError(std::string("shard: socketpair failed: ") +
                           std::strerror(errno));
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return Status::IOError(std::string("shard: fork failed: ") +
                           std::strerror(errno));
  }
  if (pid == 0) {
    // Child: keep only our end of our socketpair; sibling descriptors
    // must close so a sibling's EOF-based shutdown is not held open.
    ::close(sv[0]);
    for (const auto& other : workers_) {
      if (other.fd >= 0) ::close(other.fd);
    }
    WorkerMain(sv[1], w);  // never returns
  }
  ::close(sv[1]);
  Worker& slot = workers_[static_cast<size_t>(w)];
  slot.pid = pid;
  slot.fd = sv[0];
  slot.alive = true;
  ++slot.generation;
  if (slot.generation > 1) RestartCounter()->Increment();
  return Status::OK();
}

void Cluster::MarkDead(int w) {
  Worker& worker = workers_[static_cast<size_t>(w)];
  if (!worker.alive) return;
  ::close(worker.fd);
  worker.fd = -1;
  // The stream is broken (or poisoned by a failed exchange); make death
  // synchronous so a later EnsureAlive starts from a known-clean slate.
  ::kill(worker.pid, SIGKILL);
  ::waitpid(worker.pid, nullptr, 0);
  worker.alive = false;
}

void Cluster::KillWorker(int w) { MarkDead(w); }

Status Cluster::EnsureAlive(int w) {
  if (workers_[static_cast<size_t>(w)].alive) return Status::OK();
  return SpawnWorker(w);
}

Status Cluster::Send(int w, MsgType type, std::string_view payload) {
  {
    // "shard.worker_kill" is a trigger, not an error: the target dies by
    // SIGKILL and the send below fails exactly like a real worker crash,
    // so recovery is exercised end to end.
    Status killed = FaultPoint("shard.worker_kill");
    if (!killed.ok()) KillWorker(w);
  }
  LAFP_RETURN_NOT_OK(FaultPoint("shard.send"));
  Worker& worker = workers_[static_cast<size_t>(w)];
  if (!worker.alive) {
    return Status::IOError("shard worker " + std::to_string(w) + " is down");
  }
  CallCounter()->Increment();
  BytesCounter()->Add(static_cast<int64_t>(payload.size()));
  Status s = SendMessage(worker.fd, type, payload);
  if (!s.ok()) MarkDead(w);
  return s;
}

Result<Message> Cluster::Recv(int w) {
  // An injected receive failure leaves the real reply buffered in the
  // socket; callers kill the worker afterwards so the stream can never
  // desync (the next query respawns it).
  LAFP_RETURN_NOT_OK(FaultPoint("shard.recv"));
  Worker& worker = workers_[static_cast<size_t>(w)];
  if (!worker.alive) {
    return Status::IOError("shard worker " + std::to_string(w) + " is down");
  }
  Result<Message> msg = RecvMessage(worker.fd);
  if (!msg.ok()) {
    MarkDead(w);
    return Status::IOError("shard worker " + std::to_string(w) +
                           " died mid-query: " + msg.status().message());
  }
  BytesCounter()->Add(static_cast<int64_t>(msg->payload.size()));
  return msg;
}

void Cluster::QueueFree(int worker, uint64_t generation, uint64_t handle) {
  std::lock_guard<std::mutex> lock(free_mu_);
  pending_frees_.push_back({worker, generation, handle});
}

void Cluster::FlushFrees() {
  std::vector<PendingFree> pending;
  {
    std::lock_guard<std::mutex> lock(free_mu_);
    pending.swap(pending_frees_);
  }
  if (pending.empty()) return;
  // Group by worker; drop frees whose worker incarnation is gone (the
  // frame died with the process). Raw SendMessage/RecvMessage on purpose:
  // background bookkeeping must not consume fault-injection budgets armed
  // for the query protocol.
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = workers_[w];
    WireWriter payload;
    uint32_t n = 0;
    for (const auto& f : pending) {
      if (f.worker != static_cast<int>(w)) continue;
      if (!worker.alive || f.generation != worker.generation) continue;
      payload.U64(f.handle);
      ++n;
    }
    if (n == 0) continue;
    WireWriter msg;
    msg.U32(n);
    msg.Raw(std::string(payload.Take()));
    if (!SendMessage(worker.fd, MsgType::kFreeFrames, msg.Take()).ok()) {
      MarkDead(static_cast<int>(w));
      continue;
    }
    if (!RecvMessage(worker.fd).ok()) MarkDead(static_cast<int>(w));
  }
}

// ---------------------------------------------------------------------------
// ShardBackend

ShardBackend::ShardBackend(MemoryTracker* tracker,
                           const exec::BackendConfig& config)
    : Backend(tracker, config) {}

ShardBackend::~ShardBackend() = default;

bool ShardBackend::SupportsOp(const OpDesc& desc) const {
  return desc.kind != OpKind::kPrint;
}

Status ShardBackend::EnsureCluster() {
  if (cluster_ != nullptr) return Status::OK();
  int n = config_.shards;
  if (n <= 0) n = 2;
  n = std::min(n, kMaxShards);
  LAFP_ASSIGN_OR_RETURN(std::unique_ptr<Cluster> cluster, Cluster::Spawn(n));
  cluster_ = std::move(cluster);
  return Status::OK();
}

Status ShardBackend::RunCalls(const std::vector<WorkerCall>& calls,
                              std::vector<Message>* replies,
                              std::vector<Status>* statuses) {
  const int nw = cluster_->num_workers();
  replies->assign(calls.size(), Message{});
  statuses->assign(calls.size(), Status::OK());
  std::vector<std::deque<size_t>> queues(static_cast<size_t>(nw));
  for (size_t i = 0; i < calls.size(); ++i) {
    queues[static_cast<size_t>(calls[i].worker)].push_back(i);
  }
  std::vector<ptrdiff_t> inflight(static_cast<size_t>(nw), -1);
  bool cancelled = false;
  while (true) {
    if (!cancelled && config_.cancel != nullptr && config_.cancel->cancelled()) {
      cancelled = true;  // stop launching; drain what is in flight
    }
    bool progressed = false;
    if (!cancelled) {
      for (int w = 0; w < nw; ++w) {
        auto& q = queues[static_cast<size_t>(w)];
        if (inflight[static_cast<size_t>(w)] >= 0 || q.empty()) continue;
        const size_t i = q.front();
        q.pop_front();
        trace::Span span("shard:send", "backend");
        if (span.active()) {
          span.AddArg("worker", w);
          span.AddArg("type", static_cast<int>(calls[i].type));
        }
        Status s = cluster_->Send(w, calls[i].type, calls[i].payload);
        if (!s.ok()) {
          (*statuses)[i] = std::move(s);
          cluster_->KillWorker(w);  // uniform: failed call = dead worker
        } else {
          inflight[static_cast<size_t>(w)] = static_cast<ptrdiff_t>(i);
        }
        progressed = true;
      }
    }
    for (int w = 0; w < nw; ++w) {
      if (inflight[static_cast<size_t>(w)] < 0) continue;
      const size_t i = static_cast<size_t>(inflight[static_cast<size_t>(w)]);
      inflight[static_cast<size_t>(w)] = -1;
      trace::Span span("shard:recv", "backend");
      if (span.active()) span.AddArg("worker", w);
      Result<Message> msg = cluster_->Recv(w);
      if (!msg.ok()) {
        (*statuses)[i] = msg.status();
        cluster_->KillWorker(w);
      } else if (msg->type == MsgType::kError) {
        // Worker-side failure: the worker is alive and its stream is
        // clean; only this call failed.
        (*statuses)[i] = DecodeErrorPayload(msg->payload);
      } else {
        (*replies)[i] = std::move(*msg);
      }
      progressed = true;
    }
    bool pending = false;
    for (int w = 0; w < nw; ++w) {
      if (inflight[static_cast<size_t>(w)] >= 0 ||
          (!cancelled && !queues[static_cast<size_t>(w)].empty())) {
        pending = true;
      }
    }
    if (!pending) break;
    if (!progressed && cancelled) break;
  }
  if (cancelled) {
    return Status::Cancelled("shard query cancelled by the coordinator");
  }
  return Status::OK();
}

Status ShardBackend::ValidateLive(
    const std::vector<ShardPartition>& parts) const {
  for (const auto& p : parts) {
    if (!cluster_->alive(p.worker) ||
        cluster_->generation(p.worker) != p.generation) {
      return Status::IOError(
          "shard partition lost: worker " + std::to_string(p.worker) +
          " restarted since the partition was created; rerun the query");
    }
  }
  return Status::OK();
}

Result<BackendValue> ShardBackend::Execute(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  std::lock_guard<std::mutex> lock(mu_);
  trace::Span span("shard:execute", "backend");
  if (span.active()) span.AddArg("op", desc.ToString());
  LAFP_RETURN_NOT_OK(EnsureCluster());
  cluster_->FlushFrees();
  switch (desc.kind) {
    case OpKind::kReadCsv:
    case OpKind::kReadLfc:
      return ExecuteScan(desc);
    case OpKind::kGroupByAgg:
      return ExecuteGroupBy(desc, inputs[0]);
    case OpKind::kReduce:
    case OpKind::kLen:
      return ExecuteReduce(desc, inputs[0]);
    case OpKind::kMerge:
      return ExecuteMerge(desc, inputs[0], inputs[1]);
    default:
      if (exec::Traits(desc.kind).Is(exec::OpTraits::kMap)) {
        return ExecuteMapOp(desc, inputs);
      }
      return ExecuteViaGather(desc, inputs);
  }
}

Result<BackendValue> ShardBackend::ExecuteScan(const OpDesc& desc) {
  const int nw = cluster_->num_workers();
  for (int w = 0; w < nw; ++w) {
    LAFP_RETURN_NOT_OK(cluster_->EnsureAlive(w));
  }
  auto make_call = [&](int w) {
    WireWriter payload;
    EncodeOpDesc(desc, &payload);
    payload.U32(static_cast<uint32_t>(w));
    payload.U32(static_cast<uint32_t>(nw));
    payload.U64(config_.partition_rows);
    return WorkerCall{w, MsgType::kScan, payload.Take()};
  };
  std::vector<WorkerCall> calls;
  calls.reserve(static_cast<size_t>(nw));
  for (int w = 0; w < nw; ++w) calls.push_back(make_call(w));
  std::vector<Message> replies;
  std::vector<Status> statuses;
  LAFP_RETURN_NOT_OK(RunCalls(calls, &replies, &statuses));
  // Scans are idempotent (they reference only the on-disk source), so a
  // worker lost mid-scan gets respawned and retried exactly once — the
  // transparent half of the failure contract.
  for (size_t i = 0; i < calls.size(); ++i) {
    if (statuses[i].ok()) continue;
    const int w = calls[i].worker;
    RetryCounter()->Increment();
    Status respawn = cluster_->EnsureAlive(w);
    if (!respawn.ok()) return statuses[i];
    std::vector<Message> retry_replies;
    std::vector<Status> retry_statuses;
    LAFP_RETURN_NOT_OK(
        RunCalls({make_call(w)}, &retry_replies, &retry_statuses));
    if (!retry_statuses[0].ok()) return retry_statuses[0];
    replies[i] = std::move(retry_replies[0]);
    statuses[i] = Status::OK();
  }
  uint64_t total = 0;
  bool total_known = false;
  std::vector<ShardPartition> parts;
  std::vector<bool> seen;
  for (size_t i = 0; i < replies.size(); ++i) {
    const int w = calls[i].worker;
    if (replies[i].type != MsgType::kScanResult) {
      return Status::IOError("shard: scan reply had unexpected type");
    }
    WireReader r(replies[i].payload);
    uint64_t wtotal = 0;
    uint32_t nlocal = 0;
    if (!r.U64(&wtotal) || !r.U32(&nlocal)) return r.Error("scan result");
    if (!total_known) {
      total = wtotal;
      total_known = true;
      if (total == 0 || total > (1u << 22)) {
        return Status::IOError("shard: implausible scan partition count");
      }
      parts.resize(static_cast<size_t>(total));
      seen.assign(static_cast<size_t>(total), false);
    } else if (wtotal != total) {
      return Status::ExecutionError(
          "shard: workers disagreed on scan partition count");
    }
    for (uint32_t j = 0; j < nlocal; ++j) {
      uint64_t g = 0, handle = 0, rows = 0;
      if (!r.U64(&g) || !r.U64(&handle) || !r.U64(&rows)) {
        return r.Error("scan partition entry");
      }
      if (g >= total || seen[static_cast<size_t>(g)]) {
        return Status::ExecutionError(
            "shard: scan produced an inconsistent partition assignment");
      }
      seen[static_cast<size_t>(g)] = true;
      parts[static_cast<size_t>(g)] = {rows, w, cluster_->generation(w),
                                       handle};
    }
  }
  for (size_t g = 0; g < parts.size(); ++g) {
    if (!seen[g]) {
      return Status::ExecutionError("shard: scan partition " +
                                    std::to_string(g) + " was never claimed");
    }
  }
  return BackendValue::Frame(
      std::make_shared<ShardFrame>(cluster_, std::move(parts)));
}

Result<BackendValue> ShardBackend::ExecuteMapOp(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* primary, PartsOf(inputs[0]));
  LAFP_RETURN_NOT_OK(ValidateLive(primary->parts()));
  const ShardFrame* secondary = nullptr;
  df::Scalar runtime_scalar;
  bool second_is_scalar = false;
  if (inputs.size() > 1) {
    if (inputs[1].is_scalar) {
      second_is_scalar = true;
      runtime_scalar = inputs[1].scalar;
    } else {
      LAFP_ASSIGN_OR_RETURN(secondary, PartsOf(inputs[1]));
      const auto& pp = primary->parts();
      const auto& sp = secondary->parts();
      bool aligned = pp.size() == sp.size();
      for (size_t i = 0; aligned && i < pp.size(); ++i) {
        aligned = pp[i].worker == sp[i].worker &&
                  pp[i].generation == sp[i].generation;
      }
      if (!aligned) {
        // Misaligned partitioning (e.g. one side re-scattered after a
        // fallback): gather-and-run is the correctness path.
        return ExecuteViaGather(desc, inputs);
      }
      LAFP_RETURN_NOT_OK(ValidateLive(sp));
    }
  }
  const auto& pp = primary->parts();
  std::vector<WorkerCall> calls;
  std::vector<uint64_t> out_handles;
  calls.reserve(pp.size());
  for (size_t i = 0; i < pp.size(); ++i) {
    const uint64_t out = cluster_->NextHandle();
    out_handles.push_back(out);
    WireWriter payload;
    EncodeOpDesc(desc, &payload);
    payload.U64(out);
    uint32_t ninputs = 1;
    if (secondary != nullptr || second_is_scalar) ninputs = 2;
    payload.U32(ninputs);
    payload.U8(0);
    payload.U64(pp[i].handle);
    if (secondary != nullptr) {
      payload.U8(0);
      payload.U64(secondary->parts()[i].handle);
    } else if (second_is_scalar) {
      payload.U8(1);
      EncodeScalar(runtime_scalar, &payload);
    }
    calls.push_back({pp[i].worker, MsgType::kExecOp, payload.Take()});
  }
  std::vector<Message> replies;
  std::vector<Status> statuses;
  Status run = RunCalls(calls, &replies, &statuses);
  auto free_outputs = [&] {
    for (size_t i = 0; i < out_handles.size(); ++i) {
      cluster_->QueueFree(pp[i].worker, pp[i].generation, out_handles[i]);
    }
  };
  if (!run.ok()) {
    free_outputs();
    return run;
  }
  for (const Status& s : statuses) {
    if (!s.ok()) {
      free_outputs();
      return s;
    }
  }
  std::vector<ShardPartition> out_parts;
  out_parts.reserve(pp.size());
  for (size_t i = 0; i < pp.size(); ++i) {
    LAFP_ASSIGN_OR_RETURN(uint64_t rows, RowsOfOkReply(replies[i]));
    out_parts.push_back(
        {rows, pp[i].worker, pp[i].generation, out_handles[i]});
  }
  return BackendValue::Frame(
      std::make_shared<ShardFrame>(cluster_, std::move(out_parts)));
}

Result<BackendValue> ShardBackend::ExecuteGroupBy(const OpDesc& desc,
                                                  const BackendValue& input) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* frame, PartsOf(input));
  exec::GroupByCombiner combiner(desc.columns, desc.aggs);
  if (!combiner.supported()) {
    // nunique does not decompose into partials; gather and run whole.
    return ExecuteViaGather(desc, {input});
  }
  LAFP_RETURN_NOT_OK(ValidateLive(frame->parts()));
  std::vector<WorkerCall> calls;
  for (const auto& p : frame->parts()) {
    WireWriter payload;
    payload.U64(p.handle);
    payload.U32(static_cast<uint32_t>(desc.columns.size()));
    for (const auto& k : desc.columns) payload.Str(k);
    payload.U32(static_cast<uint32_t>(desc.aggs.size()));
    for (const auto& a : desc.aggs) {
      payload.Str(a.column);
      payload.U8(static_cast<uint8_t>(a.func));
      payload.Str(a.out_name);
    }
    calls.push_back({p.worker, MsgType::kGroupByPartial, payload.Take()});
  }
  std::vector<Message> replies;
  std::vector<Status> statuses;
  LAFP_RETURN_NOT_OK(RunCalls(calls, &replies, &statuses));
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  // Fold partials in global partition order: first-appearance group order
  // (and therefore bytes) matches the single-process two-phase path.
  for (const auto& reply : replies) {
    LAFP_ASSIGN_OR_RETURN(std::string_view bytes, FrameBytesOfReply(reply));
    LAFP_ASSIGN_OR_RETURN(df::DataFrame partial,
                          exec::DeserializeFrame(bytes, tracker_));
    LAFP_RETURN_NOT_OK(combiner.AddPartial(std::move(partial)));
  }
  LAFP_ASSIGN_OR_RETURN(df::DataFrame result, combiner.Finish());
  return ScatterFrame(result);
}

Result<BackendValue> ShardBackend::ExecuteReduce(const OpDesc& desc,
                                                 const BackendValue& input) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* frame, PartsOf(input));
  if (desc.kind == OpKind::kLen) {
    return BackendValue::FromScalar(
        df::Scalar::Int(static_cast<int64_t>(frame->num_rows())));
  }
  LAFP_RETURN_NOT_OK(ValidateLive(frame->parts()));
  LAFP_ASSIGN_OR_RETURN(std::vector<df::DataFrame> parts,
                        GatherParts(frame->parts()));
  exec::ReduceCombiner combiner(desc.agg_func);
  for (const auto& part : parts) {
    LAFP_RETURN_NOT_OK(combiner.AddPartition(part));
  }
  LAFP_ASSIGN_OR_RETURN(df::Scalar out, combiner.Finish());
  return BackendValue::FromScalar(std::move(out));
}

Result<BackendValue> ShardBackend::ExecuteMerge(const OpDesc& desc,
                                                const BackendValue& left,
                                                const BackendValue& right) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* lframe, PartsOf(left));
  LAFP_RETURN_NOT_OK(ValidateLive(lframe->parts()));
  // Broadcast join: the right side is gathered whole and shipped once to
  // every worker holding a left partition.
  LAFP_ASSIGN_OR_RETURN(EagerValue right_full, MaterializeLocked(right));
  if (right_full.is_scalar) {
    return Status::Invalid("shard: merge right side must be a frame");
  }
  LAFP_ASSIGN_OR_RETURN(std::string right_bytes,
                        exec::SerializeFrame(right_full.frame));
  const auto& pp = lframe->parts();
  std::vector<int> bcast_workers;
  std::vector<uint64_t> bcast_handles(static_cast<size_t>(kMaxShards), 0);
  std::vector<WorkerCall> puts;
  for (const auto& p : pp) {
    if (bcast_handles[static_cast<size_t>(p.worker)] != 0) continue;
    const uint64_t handle = cluster_->NextHandle();
    bcast_handles[static_cast<size_t>(p.worker)] = handle;
    bcast_workers.push_back(p.worker);
    WireWriter payload;
    payload.U64(handle);
    payload.Raw(right_bytes);
    puts.push_back({p.worker, MsgType::kPutFrame, payload.Take()});
  }
  std::vector<Message> replies;
  std::vector<Status> statuses;
  auto free_broadcasts = [&] {
    for (int w : bcast_workers) {
      cluster_->QueueFree(w, cluster_->generation(w),
                          bcast_handles[static_cast<size_t>(w)]);
    }
  };
  Status run = RunCalls(puts, &replies, &statuses);
  if (!run.ok()) {
    free_broadcasts();
    return run;
  }
  for (const Status& s : statuses) {
    if (!s.ok()) {
      free_broadcasts();
      return s;
    }
  }
  std::vector<WorkerCall> joins;
  std::vector<uint64_t> out_handles;
  for (const auto& p : pp) {
    const uint64_t out = cluster_->NextHandle();
    out_handles.push_back(out);
    WireWriter payload;
    EncodeOpDesc(desc, &payload);
    payload.U64(out);
    payload.U32(2);
    payload.U8(0);
    payload.U64(p.handle);
    payload.U8(0);
    payload.U64(bcast_handles[static_cast<size_t>(p.worker)]);
    joins.push_back({p.worker, MsgType::kExecOp, payload.Take()});
  }
  run = RunCalls(joins, &replies, &statuses);
  free_broadcasts();  // the broadcast copies are dead weight either way
  auto free_outputs = [&] {
    for (size_t i = 0; i < out_handles.size(); ++i) {
      cluster_->QueueFree(pp[i].worker, pp[i].generation, out_handles[i]);
    }
  };
  if (!run.ok()) {
    free_outputs();
    return run;
  }
  for (const Status& s : statuses) {
    if (!s.ok()) {
      free_outputs();
      return s;
    }
  }
  std::vector<ShardPartition> out_parts;
  for (size_t i = 0; i < pp.size(); ++i) {
    LAFP_ASSIGN_OR_RETURN(uint64_t rows, RowsOfOkReply(replies[i]));
    out_parts.push_back(
        {rows, pp[i].worker, pp[i].generation, out_handles[i]});
  }
  return BackendValue::Frame(
      std::make_shared<ShardFrame>(cluster_, std::move(out_parts)));
}

Result<BackendValue> ShardBackend::ExecuteViaGather(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  // Ops outside the distributed vocabulary (sorts, dedup, concat, head,
  // describe, ...) gather to the coordinator and run the eager kernel,
  // preserving the engine's fallback semantics bit for bit.
  std::vector<EagerValue> eager_inputs;
  for (const auto& in : inputs) {
    LAFP_ASSIGN_OR_RETURN(EagerValue v, MaterializeLocked(in));
    eager_inputs.push_back(std::move(v));
  }
  LAFP_ASSIGN_OR_RETURN(EagerValue out,
                        exec::ExecuteEagerOp(desc, eager_inputs, tracker_));
  return FromEagerLocked(out);
}

Result<std::vector<df::DataFrame>> ShardBackend::GatherParts(
    const std::vector<ShardPartition>& parts) {
  std::vector<WorkerCall> calls;
  for (const auto& p : parts) {
    WireWriter payload;
    payload.U64(p.handle);
    calls.push_back({p.worker, MsgType::kGetFrame, payload.Take()});
  }
  std::vector<Message> replies;
  std::vector<Status> statuses;
  LAFP_RETURN_NOT_OK(RunCalls(calls, &replies, &statuses));
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  std::vector<df::DataFrame> frames;
  frames.reserve(parts.size());
  for (const auto& reply : replies) {
    LAFP_ASSIGN_OR_RETURN(std::string_view bytes, FrameBytesOfReply(reply));
    LAFP_ASSIGN_OR_RETURN(df::DataFrame frame,
                          exec::DeserializeFrame(bytes, tracker_));
    frames.push_back(std::move(frame));
  }
  return frames;
}

Result<EagerValue> ShardBackend::MaterializeLocked(const BackendValue& value) {
  if (value.is_scalar) return EagerValue::FromScalar(value.scalar);
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* frame, PartsOf(value));
  LAFP_RETURN_NOT_OK(ValidateLive(frame->parts()));
  LAFP_ASSIGN_OR_RETURN(std::vector<df::DataFrame> frames,
                        GatherParts(frame->parts()));
  // Mirror PartitionedFrame::ToEager: a single partition passes through,
  // several concatenate — byte-identical to the other backends.
  if (frames.size() == 1) return EagerValue::Frame(std::move(frames[0]));
  LAFP_ASSIGN_OR_RETURN(df::DataFrame whole, df::Concat(frames));
  return EagerValue::Frame(std::move(whole));
}

Result<BackendValue> ShardBackend::ScatterFrame(const df::DataFrame& frame) {
  LAFP_ASSIGN_OR_RETURN(
      exec::PartitionedFrame chunks,
      exec::PartitionedFrame::FromEager(frame, config_.partition_rows));
  const int nw = cluster_->num_workers();
  const size_t np = chunks.num_partitions();
  std::vector<WorkerCall> calls;
  std::vector<ShardPartition> parts;
  for (size_t i = 0; i < np; ++i) {
    // Same placement rule as scans (global index mod N), so re-scattered
    // frames stay aligned with scanned frames of equal geometry.
    const int w = static_cast<int>(i % static_cast<size_t>(nw));
    LAFP_RETURN_NOT_OK(cluster_->EnsureAlive(w));
    LAFP_ASSIGN_OR_RETURN(df::DataFrame chunk, chunks.partition(i, tracker_));
    LAFP_ASSIGN_OR_RETURN(std::string bytes, exec::SerializeFrame(chunk));
    const uint64_t handle = cluster_->NextHandle();
    WireWriter payload;
    payload.U64(handle);
    payload.Raw(bytes);
    calls.push_back({w, MsgType::kPutFrame, payload.Take()});
    parts.push_back({chunk.num_rows(), w, cluster_->generation(w), handle});
  }
  std::vector<Message> replies;
  std::vector<Status> statuses;
  LAFP_RETURN_NOT_OK(RunCalls(calls, &replies, &statuses));
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  for (size_t i = 0; i < parts.size(); ++i) {
    LAFP_ASSIGN_OR_RETURN(uint64_t rows, RowsOfOkReply(replies[i]));
    if (rows != parts[i].rows) {
      return Status::ExecutionError(
          "shard: scatter round-trip changed a partition's row count");
    }
  }
  return BackendValue::Frame(
      std::make_shared<ShardFrame>(cluster_, std::move(parts)));
}

Result<EagerValue> ShardBackend::Materialize(const BackendValue& value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cluster_ == nullptr) {
    return Status::Invalid("shard: materialize before any execution");
  }
  return MaterializeLocked(value);
}

Result<BackendValue> ShardBackend::FromEager(const EagerValue& value) {
  std::lock_guard<std::mutex> lock(mu_);
  LAFP_RETURN_NOT_OK(EnsureCluster());
  return FromEagerLocked(value);
}

Result<BackendValue> ShardBackend::FromEagerLocked(const EagerValue& value) {
  if (value.is_scalar) return BackendValue::FromScalar(value.scalar);
  return ScatterFrame(value.frame);
}

int64_t ShardBackend::RowCount(const BackendValue& value) const {
  if (value.is_scalar) return 1;
  auto* wrapped = dynamic_cast<ShardFrame*>(value.frame.get());
  if (wrapped == nullptr) return -1;
  return static_cast<int64_t>(wrapped->num_rows());
}

}  // namespace lafp::shard
