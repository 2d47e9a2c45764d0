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
#include "exec/partition.h"
#include "io/columnar.h"
#include "shard/worker.h"

namespace lafp::shard {

namespace {

using exec::BackendValue;
using exec::EagerValue;
using exec::OpDesc;

/// Upper bound on worker processes; LAFP_SHARDS beyond this clamps.
constexpr int kMaxShards = 64;

/// Coordinator-side handle to a sharded frame. Destruction queues the
/// remote frees (any scheduler thread may drop the last reference; the
/// actual protocol calls happen on the coordinator thread).
class ShardFrame : public exec::BackendFrame {
 public:
  ShardFrame(std::shared_ptr<Cluster> cluster,
             std::vector<ShardPartition> parts)
      : cluster_(std::move(cluster)), parts_(std::move(parts)) {}
  ~ShardFrame() override {
    for (const auto& p : parts_) {
      cluster_->QueueFree(p.worker, p.generation, p.handle);
    }
  }

  const std::vector<ShardPartition>& parts() const { return parts_; }

 private:
  std::shared_ptr<Cluster> cluster_;
  std::vector<ShardPartition> parts_;
};

/// A broadcast input: one copy of a frame on each worker it runs beside,
/// one entry per worker in parts().
class ShardBroadcast : public ShardFrame {
 public:
  using ShardFrame::ShardFrame;

  uint64_t HandleOn(int worker) const {
    for (const auto& c : parts()) {
      if (c.worker == worker) return c.handle;
    }
    return 0;
  }
};

Result<const ShardFrame*> PartsOf(const exec::BackendFrame& frame) {
  auto* wrapped = dynamic_cast<const ShardFrame*>(&frame);
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

/// Decodes kFrameData replies, in order.
Result<std::vector<df::DataFrame>> FramesOfReplies(
    const std::vector<Message>& replies, MemoryTracker* tracker) {
  std::vector<df::DataFrame> frames;
  frames.reserve(replies.size());
  for (const auto& reply : replies) {
    if (reply.type != MsgType::kFrameData) {
      return Status::IOError(
          "shard: expected frame data, got reply type " +
          std::to_string(static_cast<uint32_t>(reply.type)));
    }
    LAFP_ASSIGN_OR_RETURN(df::DataFrame frame,
                          io::DecodeLfc(reply.payload, tracker, kExchange));
    frames.push_back(std::move(frame));
  }
  return frames;
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
    : PartitionedBackend(tracker, config) {
  // Fork the workers before the session starts threads of its own: a
  // child forked while another thread holds an allocator lock inherits it
  // locked. glibc's malloc guards against that; ASan's allocator does
  // not. A failed spawn is retried, and reported, by the first Execute.
  (void)EnsureCluster();
}

ShardBackend::~ShardBackend() = default;

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

Result<std::vector<Message>> ShardBackend::RunAll(
    const std::vector<WorkerCall>& calls) {
  std::vector<Message> replies;
  std::vector<Status> statuses;
  LAFP_RETURN_NOT_OK(RunCalls(calls, &replies, &statuses));
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return replies;
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
  return ExecutePartitioned(desc, inputs);
}

Result<EagerValue> ShardBackend::Materialize(const BackendValue& value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cluster_ == nullptr) {
    return Status::Invalid("shard: materialize without a worker cluster");
  }
  return MaterializePartitioned(value);
}

Result<BackendValue> ShardBackend::FromEager(const EagerValue& value) {
  std::lock_guard<std::mutex> lock(mu_);
  LAFP_RETURN_NOT_OK(EnsureCluster());
  return FromEagerPartitioned(value);
}

Result<exec::BackendFramePtr> ShardBackend::Scan(const OpDesc& desc) {
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
    LAFP_ASSIGN_OR_RETURN(std::vector<Message> retry, RunAll({make_call(w)}));
    replies[i] = std::move(retry[0]);
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
  return exec::BackendFramePtr(
      std::make_shared<ShardFrame>(cluster_, std::move(parts)));
}

Result<std::vector<Message>> ShardBackend::ExecOnPartitions(
    const OpDesc& desc, const std::vector<BackendValue>& inputs,
    std::vector<uint64_t>* out_handles) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* primary, PartsOf(*inputs[0].frame));
  // Resolve every frame input once: an aligned frame feeds partition i to
  // partition i, a broadcast feeds the copy on the partition's worker.
  std::vector<const ShardFrame*> frames(inputs.size(), nullptr);
  std::vector<const ShardBroadcast*> copies(inputs.size(), nullptr);
  for (size_t j = 0; j < inputs.size(); ++j) {
    if (inputs[j].is_scalar) continue;
    LAFP_ASSIGN_OR_RETURN(frames[j], PartsOf(*inputs[j].frame));
    LAFP_RETURN_NOT_OK(ValidateLive(frames[j]->parts()));
    copies[j] = dynamic_cast<const ShardBroadcast*>(frames[j]);
  }
  WireWriter op;
  EncodeOpDesc(desc, &op);
  const std::string op_bytes(op.Take());
  const auto& pp = primary->parts();
  std::vector<WorkerCall> calls;
  calls.reserve(pp.size());
  for (size_t i = 0; i < pp.size(); ++i) {
    const uint64_t out = out_handles != nullptr ? cluster_->NextHandle() : 0;
    if (out_handles != nullptr) out_handles->push_back(out);
    WireWriter payload;
    payload.Raw(op_bytes);
    payload.U64(out);
    payload.U32(static_cast<uint32_t>(inputs.size()));
    for (size_t j = 0; j < inputs.size(); ++j) {
      if (inputs[j].is_scalar) {
        payload.U8(1);
        EncodeScalar(inputs[j].scalar, &payload);
        continue;
      }
      payload.U8(0);
      payload.U64(copies[j] != nullptr ? copies[j]->HandleOn(pp[i].worker)
                                       : frames[j]->parts()[i].handle);
    }
    calls.push_back({pp[i].worker, MsgType::kExecOp, payload.Take()});
  }
  Result<std::vector<Message>> replies = RunAll(calls);
  if (!replies.ok() && out_handles != nullptr) {
    for (size_t i = 0; i < pp.size(); ++i) {
      cluster_->QueueFree(pp[i].worker, pp[i].generation, (*out_handles)[i]);
    }
  }
  return replies;
}

Result<exec::BackendFramePtr> ShardBackend::RunKeep(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  std::vector<uint64_t> handles;
  LAFP_ASSIGN_OR_RETURN(std::vector<Message> replies,
                        ExecOnPartitions(desc, inputs, &handles));
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* primary, PartsOf(*inputs[0].frame));
  const auto& pp = primary->parts();
  std::vector<ShardPartition> out_parts;
  out_parts.reserve(pp.size());
  Status parsed;
  for (size_t i = 0; i < pp.size(); ++i) {
    Result<uint64_t> rows = RowsOfOkReply(replies[i]);
    if (!rows.ok() && parsed.ok()) parsed = rows.status();
    out_parts.push_back({rows.ok() ? *rows : 0, pp[i].worker,
                         pp[i].generation, handles[i]});
  }
  // Built before the check, so a bad reply still frees every output.
  auto out = std::make_shared<ShardFrame>(cluster_, std::move(out_parts));
  LAFP_RETURN_NOT_OK(parsed);
  return exec::BackendFramePtr(std::move(out));
}

Result<std::vector<df::DataFrame>> ShardBackend::RunReturn(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  LAFP_ASSIGN_OR_RETURN(std::vector<Message> replies,
                        ExecOnPartitions(desc, inputs, nullptr));
  return FramesOfReplies(replies, tracker_);
}

Result<std::vector<df::DataFrame>> ShardBackend::Fetch(
    const exec::BackendFrame& frame, size_t limit) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* sharded, PartsOf(frame));
  LAFP_RETURN_NOT_OK(ValidateLive(sharded->parts()));
  std::vector<WorkerCall> calls;
  for (const auto& p : sharded->parts()) {
    if (calls.size() == limit) break;
    WireWriter payload;
    payload.U64(p.handle);
    calls.push_back({p.worker, MsgType::kGetFrame, payload.Take()});
  }
  LAFP_ASSIGN_OR_RETURN(std::vector<Message> replies, RunAll(calls));
  return FramesOfReplies(replies, tracker_);
}

Result<exec::BackendFramePtr> ShardBackend::Place(const df::DataFrame& frame) {
  LAFP_ASSIGN_OR_RETURN(
      exec::PartitionedFrame chunks,
      exec::PartitionedFrame::FromEager(frame, config_.partition_rows));
  const int nw = cluster_->num_workers();
  std::vector<WorkerCall> calls;
  std::vector<ShardPartition> parts;
  for (size_t i = 0; i < chunks.num_partitions(); ++i) {
    // Same placement rule as scans (global index mod N), so placed frames
    // stay colocated with scanned frames of equal geometry.
    const int w = static_cast<int>(i % static_cast<size_t>(nw));
    LAFP_RETURN_NOT_OK(cluster_->EnsureAlive(w));
    LAFP_ASSIGN_OR_RETURN(df::DataFrame chunk, chunks.partition(i, tracker_));
    LAFP_ASSIGN_OR_RETURN(std::string bytes, io::EncodeLfc(chunk));
    const uint64_t handle = cluster_->NextHandle();
    WireWriter payload;
    payload.U64(handle);
    payload.Raw(bytes);
    calls.push_back({w, MsgType::kPutFrame, payload.Take()});
    parts.push_back({chunk.num_rows(), w, cluster_->generation(w), handle});
  }
  auto out = std::make_shared<ShardFrame>(cluster_, parts);
  LAFP_ASSIGN_OR_RETURN(std::vector<Message> replies, RunAll(calls));
  for (size_t i = 0; i < parts.size(); ++i) {
    LAFP_ASSIGN_OR_RETURN(uint64_t rows, RowsOfOkReply(replies[i]));
    if (rows != parts[i].rows) {
      return Status::ExecutionError(
          "shard: scatter round-trip changed a partition's row count");
    }
  }
  return exec::BackendFramePtr(std::move(out));
}

Result<exec::BackendFramePtr> ShardBackend::Broadcast(
    const df::DataFrame& frame, const exec::BackendFrame& alongside) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* sharded, PartsOf(alongside));
  LAFP_RETURN_NOT_OK(ValidateLive(sharded->parts()));
  // Serialized once, shipped once to each distinct worker.
  LAFP_ASSIGN_OR_RETURN(std::string bytes, io::EncodeLfc(frame));
  std::vector<ShardPartition> copies;
  std::vector<WorkerCall> puts;
  std::vector<bool> has_copy(static_cast<size_t>(kMaxShards), false);
  for (const auto& p : sharded->parts()) {
    if (has_copy[static_cast<size_t>(p.worker)]) continue;
    has_copy[static_cast<size_t>(p.worker)] = true;
    const uint64_t handle = cluster_->NextHandle();
    copies.push_back({0, p.worker, p.generation, handle});
    WireWriter payload;
    payload.U64(handle);
    payload.Raw(bytes);
    puts.push_back({p.worker, MsgType::kPutFrame, payload.Take()});
  }
  auto out = std::make_shared<ShardBroadcast>(cluster_, std::move(copies));
  LAFP_RETURN_NOT_OK(RunAll(puts).status());
  return exec::BackendFramePtr(std::move(out));
}

bool ShardBackend::Colocated(const exec::BackendFrame& a,
                             const exec::BackendFrame& b) const {
  auto pa = PartsOf(a);
  auto pb = PartsOf(b);
  if (!pa.ok() || !pb.ok()) return false;
  const auto& x = (*pa)->parts();
  const auto& y = (*pb)->parts();
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].worker != y[i].worker || x[i].generation != y[i].generation) {
      return false;
    }
  }
  return true;
}

Result<std::vector<uint64_t>> ShardBackend::Rows(
    const exec::BackendFrame& frame) const {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* sharded, PartsOf(frame));
  std::vector<uint64_t> rows;
  rows.reserve(sharded->parts().size());
  for (const auto& p : sharded->parts()) rows.push_back(p.rows);
  return rows;
}

}  // namespace lafp::shard
