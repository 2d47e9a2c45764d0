#include "shard/shard_backend.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <limits>
#include <string>
#include <utility>

#include "common/fault.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "exec/partition.h"
#include "io/columnar.h"

namespace lafp::shard {

namespace {

using exec::BackendValue;
using exec::EagerValue;
using exec::OpDesc;

/// Upper bound on the workers of one lease.
constexpr int kMaxShards = 64;

/// The one decision of the worker count: BackendConfig::shards when set,
/// else the LAFP_SHARDS env knob, else 2. A count outside [1, kMaxShards]
/// or a malformed LAFP_SHARDS fails.
Result<int> ShardCount(int configured) {
  int64_t n = configured;
  std::string given = std::to_string(configured);
  if (configured == 0) {
    const char* env = std::getenv("LAFP_SHARDS");
    if (env == nullptr) return 2;
    n = ParseInt64(env).value_or(0);  // unparsable reads as out of range
    given = std::string("LAFP_SHARDS=") + env;
  }
  if (n < 1 || n > kMaxShards) {
    return Status::Invalid("shard: worker count must be in [1, " +
                           std::to_string(kMaxShards) + "], got " + given);
  }
  return static_cast<int>(n);
}

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

/// Process-wide, so every lease and every respawn stamps a generation
/// no other one used.
uint64_t NextGeneration() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

metrics::Counter* RetryCounter() {
  static auto* c =
      metrics::Registry::Global()->GetCounter("shard.scan_retries");
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Cluster

Result<std::shared_ptr<Cluster>> Cluster::Lease(int num_workers) {
  std::shared_ptr<Cluster> cluster(new Cluster());
  cluster->workers_.resize(static_cast<size_t>(num_workers));
  WorkerPool* pool = WorkerPool::Get();
  std::vector<WorkerProcess> idle =
      pool->Take(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    if (static_cast<size_t>(w) < idle.size()) {
      cluster->Occupy(w, idle[static_cast<size_t>(w)]);
      continue;
    }
    LAFP_ASSIGN_OR_RETURN(WorkerProcess spawned, pool->Spawn());
    cluster->Occupy(w, spawned);
  }
  return cluster;
}

Cluster::~Cluster() {
  for (int w = 0; w < num_workers(); ++w) MarkDead(w);
}

void Cluster::Occupy(int w, WorkerProcess process) {
  Worker& slot = workers_[static_cast<size_t>(w)];
  slot.pid = process.pid;
  slot.fd = process.fd;
  slot.alive = true;
  slot.in_flight = false;
  slot.generation = NextGeneration();
}

void Cluster::MarkDead(int w) {
  Worker& worker = workers_[static_cast<size_t>(w)];
  if (!worker.alive) return;
  // The stream is broken (or poisoned by a failed exchange); make death
  // synchronous so a later EnsureAlive starts from a known-clean slate.
  WorkerPool::Get()->Kill({worker.pid, worker.fd});
  worker.fd = -1;
  worker.alive = false;
  worker.in_flight = false;
}

void Cluster::KillWorker(int w) { MarkDead(w); }

Status Cluster::EnsureAlive(int w) {
  if (workers_[static_cast<size_t>(w)].alive) return Status::OK();
  LAFP_ASSIGN_OR_RETURN(WorkerProcess spawned, WorkerPool::Get()->Spawn());
  Occupy(w, spawned);
  RestartCounter()->Increment();
  return Status::OK();
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
  if (!s.ok()) {
    MarkDead(w);
  } else {
    worker.in_flight = true;
  }
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
  worker.in_flight = false;
  BytesCounter()->Add(static_cast<int64_t>(msg->payload.size()));
  return msg;
}

void Cluster::QueueFree(int worker, uint64_t generation, uint64_t handle) {
  std::lock_guard<std::mutex> lock(free_mu_);
  pending_frees_.push_back({worker, generation, handle});
}

std::vector<Cluster::PendingFree> Cluster::TakePendingFrees() {
  std::vector<PendingFree> pending;
  std::lock_guard<std::mutex> lock(free_mu_);
  pending.swap(pending_frees_);
  return pending;
}

std::vector<uint64_t> Cluster::FreesFor(
    const std::vector<PendingFree>& pending, int w) const {
  // A free whose worker incarnation is gone is dropped: the frame died
  // with the process.
  const Worker& worker = workers_[static_cast<size_t>(w)];
  std::vector<uint64_t> handles;
  for (const auto& f : pending) {
    if (f.worker == w && worker.alive && f.generation == worker.generation) {
      handles.push_back(f.handle);
    }
  }
  return handles;
}

void Cluster::FlushFrees() {
  const std::vector<PendingFree> pending = TakePendingFrees();
  if (pending.empty()) return;
  // Raw SendMessage/RecvMessage on purpose: background bookkeeping must
  // not consume fault-injection budgets armed for the query protocol.
  for (int w = 0; w < num_workers(); ++w) {
    const std::vector<uint64_t> handles = FreesFor(pending, w);
    if (handles.empty()) continue;
    const int fd = workers_[static_cast<size_t>(w)].fd;
    if (!SendMessage(fd, MsgType::kFreeFrames, EncodeFreeFrames(handles))
             .ok() ||
        !RecvResidentFrames(fd).ok()) {
      MarkDead(w);
    }
  }
}

void Cluster::EndLease(bool frames_alive) {
  const std::vector<PendingFree> pending = TakePendingFrees();
  // Every worker gets its last frees at once, then the replies are read:
  // one round trip for the whole lease.
  std::vector<bool> asked(workers_.size(), false);
  for (int w = 0; w < num_workers(); ++w) {
    Worker& worker = workers_[static_cast<size_t>(w)];
    if (!worker.alive) continue;
    if (frames_alive || worker.in_flight ||
        !SendMessage(worker.fd, MsgType::kFreeFrames,
                     EncodeFreeFrames(FreesFor(pending, w)))
             .ok()) {
      MarkDead(w);
      continue;
    }
    asked[static_cast<size_t>(w)] = true;
  }
  WorkerPool* pool = WorkerPool::Get();
  for (int w = 0; w < num_workers(); ++w) {
    if (!asked[static_cast<size_t>(w)]) continue;
    Worker& worker = workers_[static_cast<size_t>(w)];
    Result<uint64_t> resident = RecvResidentFrames(worker.fd);
    if (!resident.ok() || *resident != 0) {
      MarkDead(w);
      continue;
    }
    pool->Give({worker.pid, worker.fd});
    worker.fd = -1;
    worker.alive = false;
  }
}

// ---------------------------------------------------------------------------
// ShardBackend

ShardBackend::ShardBackend(MemoryTracker* tracker,
                           const exec::BackendConfig& config,
                           const exec::ExecutionOptions& exec)
    : PartitionedBackend(tracker, config, exec) {
  // Lease before the session starts threads of its own, since a short
  // pool forks here: a child forked while another thread holds an
  // allocator lock inherits it locked. glibc's malloc guards against
  // that; ASan's allocator does not. A failed lease is retried, and
  // reported, by the first Execute.
  (void)EnsureCluster();
}

ShardBackend::~ShardBackend() {
  // Every other reference to the cluster is a ShardFrame of this lease.
  if (cluster_ != nullptr) cluster_->EndLease(cluster_.use_count() > 1);
}

std::vector<pid_t> ShardBackend::WorkerPids() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<pid_t> pids;
  for (int w = 0; cluster_ != nullptr && w < cluster_->num_workers(); ++w) {
    pids.push_back(cluster_->pid(w));
  }
  return pids;
}

Status ShardBackend::EnsureCluster() {
  if (cluster_ != nullptr) return Status::OK();
  LAFP_ASSIGN_OR_RETURN(int n, ShardCount(config_.shards));
  LAFP_ASSIGN_OR_RETURN(cluster_, Cluster::Lease(n));
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
    if (!cancelled && exec_.cancel != nullptr && exec_.cancel->cancelled()) {
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
  Status status = RunCalls(calls, &replies, &statuses);
  // Scans are idempotent (they reference only the on-disk source), so a
  // worker lost mid-scan gets respawned and retried exactly once — the
  // transparent half of the failure contract.
  for (size_t i = 0; status.ok() && i < calls.size(); ++i) {
    if (statuses[i].ok()) continue;
    const int w = calls[i].worker;
    RetryCounter()->Increment();
    if (!cluster_->EnsureAlive(w).ok()) {
      status = statuses[i];
      break;
    }
    Result<std::vector<Message>> retry = RunAll({make_call(w)});
    if (!retry.ok()) {
      status = retry.status();
      break;
    }
    replies[i] = std::move((*retry)[0]);
    statuses[i] = Status::OK();
  }
  // Every handle a worker reports is claimed before anything is checked,
  // so a scan that fails frees what the other workers stored.
  std::vector<std::pair<uint64_t, ShardPartition>> claimed;
  uint64_t total = 0;
  bool total_known = false;
  auto fail = [&status](Status s) {
    if (status.ok()) status = std::move(s);
  };
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!statuses[i].ok() || replies[i].type != MsgType::kScanResult) {
      fail(statuses[i].ok()
               ? Status::IOError("shard: scan reply had unexpected type")
               : statuses[i]);
      continue;
    }
    const int w = calls[i].worker;
    WireReader r(replies[i].payload);
    uint64_t wtotal = 0;
    uint32_t nlocal = 0;
    if (!r.U64(&wtotal) || !r.U32(&nlocal)) {
      fail(r.Error("scan result"));
      continue;
    }
    for (uint32_t j = 0; j < nlocal; ++j) {
      uint64_t g = 0, handle = 0, rows = 0;
      if (!r.U64(&g) || !r.U64(&handle) || !r.U64(&rows)) {
        fail(r.Error("scan partition entry"));
        break;
      }
      claimed.push_back({g, {rows, w, cluster_->generation(w), handle}});
    }
    if (!total_known) {
      total = wtotal;
      total_known = true;
    } else if (wtotal != total) {
      fail(Status::ExecutionError(
          "shard: workers disagreed on scan partition count"));
    }
  }
  if (total == 0 || total > (1u << 22)) {
    fail(Status::IOError("shard: implausible scan partition count"));
  }
  std::vector<ShardPartition> parts;
  if (status.ok()) {
    parts.resize(static_cast<size_t>(total));
    std::vector<bool> seen(static_cast<size_t>(total), false);
    for (const auto& [g, part] : claimed) {
      if (g >= total || seen[static_cast<size_t>(g)]) {
        fail(Status::ExecutionError(
            "shard: scan produced an inconsistent partition assignment"));
        break;
      }
      seen[static_cast<size_t>(g)] = true;
      parts[static_cast<size_t>(g)] = part;
    }
    for (size_t g = 0; g < seen.size() && status.ok(); ++g) {
      if (!seen[g]) {
        fail(Status::ExecutionError("shard: scan partition " +
                                    std::to_string(g) + " was never claimed"));
      }
    }
  }
  if (!status.ok()) {
    for (const auto& [g, part] : claimed) {
      cluster_->QueueFree(part.worker, part.generation, part.handle);
    }
    return status;
  }
  return exec::BackendFramePtr(
      std::make_shared<ShardFrame>(cluster_, std::move(parts)));
}

Result<std::vector<Message>> ShardBackend::ExecOnPartitions(
    const OpDesc& desc, const std::vector<BackendValue>& inputs, size_t limit,
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
  const size_t np = std::min(pp.size(), limit);
  std::vector<WorkerCall> calls;
  calls.reserve(np);
  for (size_t i = 0; i < np; ++i) {
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
    for (size_t i = 0; i < np; ++i) {
      cluster_->QueueFree(pp[i].worker, pp[i].generation, (*out_handles)[i]);
    }
  }
  return replies;
}

Result<exec::BackendFramePtr> ShardBackend::RunKeep(
    const OpDesc& desc, const std::vector<BackendValue>& inputs) {
  std::vector<uint64_t> handles;
  LAFP_ASSIGN_OR_RETURN(
      std::vector<Message> replies,
      ExecOnPartitions(desc, inputs, std::numeric_limits<size_t>::max(),
                       &handles));
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
    const OpDesc& desc, const std::vector<BackendValue>& inputs,
    size_t limit) {
  LAFP_ASSIGN_OR_RETURN(std::vector<Message> replies,
                        ExecOnPartitions(desc, inputs, limit, nullptr));
  return FramesOfReplies(replies, tracker_);
}

Result<std::vector<df::DataFrame>> ShardBackend::Fetch(
    const exec::BackendFrame& frame) {
  LAFP_ASSIGN_OR_RETURN(const ShardFrame* sharded, PartsOf(frame));
  LAFP_RETURN_NOT_OK(ValidateLive(sharded->parts()));
  std::vector<WorkerCall> calls;
  for (const auto& p : sharded->parts()) {
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
