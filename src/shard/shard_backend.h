#ifndef LAFP_SHARD_SHARD_BACKEND_H_
#define LAFP_SHARD_SHARD_BACKEND_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/partitioned.h"
#include "shard/pool.h"
#include "shard/wire.h"

namespace lafp::shard {

/// A session's lease over N pooled worker processes (shard/pool.h),
/// each connected over an AF_UNIX socketpair. Single-threaded protocol:
/// at most one request is in flight per worker (the backend serializes
/// queries, and RunCalls pipelines across workers, never within one). A
/// worker that dies — killed by fault injection, crashed, or poisoned by
/// a failed exchange — is reaped and respawned under a fresh generation,
/// and every partition handle minted under the old one becomes invalid.
class Cluster {
 public:
  /// Leases `num_workers` (in [1, 64]) idle workers from the process pool
  /// and forks only those it is short of. Every slot gets a fresh
  /// generation, so a handle of another lease never validates here.
  static Result<std::shared_ptr<Cluster>> Lease(int num_workers);
  /// Kills whatever the lease still holds (EndLease did not run).
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }
  bool alive(int w) const { return workers_[w].alive; }
  uint64_t generation(int w) const { return workers_[w].generation; }
  pid_t pid(int w) const { return workers_[w].alive ? workers_[w].pid : -1; }

  /// Respawn worker `w` if it is down (fresh generation).
  Status EnsureAlive(int w);

  /// Sends one framed request. Fault points "shard.worker_kill" (SIGKILLs
  /// the target first, then proceeds so the failure takes the real dead-
  /// peer path) and "shard.send" (fails the send cleanly) hook here.
  Status Send(int w, MsgType type, std::string_view payload);

  /// Receives the matching reply; fault point "shard.recv". An injected
  /// or real receive failure leaves a reply potentially buffered in the
  /// stream, so callers must KillWorker on any Recv failure to resync.
  Result<Message> Recv(int w);

  /// SIGKILL + reap + close: deterministic, synchronous worker death.
  void KillWorker(int w);

  /// Next coordinator-assigned frame handle (distinct from the worker
  /// scan-handle space above kWorkerHandleBase).
  uint64_t NextHandle() { return next_handle_++; }

  /// Thread-safe: remote-frame releases arrive from whatever scheduler
  /// thread drops the last ShardFrame reference. The actual kFreeFrames
  /// calls happen on the coordinator thread via FlushFrees.
  void QueueFree(int worker, uint64_t generation, uint64_t handle);

  /// Drain queued frees (best-effort; coordinator thread only).
  void FlushFrees();

  /// Ends the lease. A worker goes back to the pool only when no frame
  /// of the lease is alive (`frames_alive` is false), its last exchange
  /// completed, and the reply to its final kFreeFrames reports no frame
  /// resident; every other worker is killed. Like FlushFrees it uses the
  /// raw transport: no fault point, no `shard.calls`.
  void EndLease(bool frames_alive);

 private:
  Cluster() = default;

  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    bool alive = false;
    /// A request was sent and its reply not yet read.
    bool in_flight = false;
    uint64_t generation = 0;
  };

  struct PendingFree {
    int worker;
    uint64_t generation;
    uint64_t handle;
  };

  /// Puts a pooled or freshly forked worker in slot `w`.
  void Occupy(int w, WorkerProcess process);
  void MarkDead(int w);
  std::vector<PendingFree> TakePendingFrees();
  /// The queued frees `pending` holds for worker `w`'s live incarnation.
  std::vector<uint64_t> FreesFor(const std::vector<PendingFree>& pending,
                                 int w) const;

  std::vector<Worker> workers_;
  uint64_t next_handle_ = 1;

  std::mutex free_mu_;
  std::vector<PendingFree> pending_frees_;
};

/// One partition of a sharded frame: `rows` cached for O(1) row counts,
/// the data resident on `worker` under `handle`. Partitions are ordered
/// by global index; `generation` pins the worker incarnation that holds
/// the data (a respawned worker starts empty).
struct ShardPartition {
  uint64_t rows = 0;
  int worker = 0;
  uint64_t generation = 0;
  uint64_t handle = 0;
};

/// Shared-nothing multi-process backend (paper §2.6 taken across process
/// boundaries): the partitioned planner (exec/partitioned.h) over a store
/// of generation-stamped partition handles on N single-threaded worker
/// processes, leased from the process pool when the backend is built and
/// returned when it is destroyed. Scans partition across the workers
/// (global unit index mod N), per-partition ops run where their
/// partition lives (kExecOp; group-by
/// phase one replies with its partial, which the coordinator folds in
/// global partition order), and broadcasts ship one copy per worker.
/// Frames cross the socket as LFC bytes (io::EncodeLfc / DecodeLfc).
/// Gathered ops run at the coordinator and re-scatter, so
/// results are byte-identical to the single-process engines for any
/// shard count.
class ShardBackend : public exec::PartitionedBackend {
 public:
  ShardBackend(MemoryTracker* tracker, const exec::BackendConfig& config,
               const exec::ExecutionOptions& exec);
  /// Ends the lease (Cluster::EndLease).
  ~ShardBackend() override;

  const char* name() const override { return "shard"; }
  bool preserves_row_order() const override { return true; }

  Result<exec::BackendValue> Execute(
      const exec::OpDesc& desc,
      const std::vector<exec::BackendValue>& inputs) override;
  Result<exec::EagerValue> Materialize(
      const exec::BackendValue& value) override;
  Result<exec::BackendValue> FromEager(
      const exec::EagerValue& value) override;

  /// Pids of the leased workers (-1 for a dead slot); empty before the
  /// lease.
  std::vector<pid_t> WorkerPids();

 private:
  struct WorkerCall {
    int worker = 0;
    MsgType type = MsgType::kShutdown;
    std::string payload;
  };

  Status EnsureCluster();

  /// Runs `calls` with at most one request in flight per worker,
  /// pipelined across workers in waves. `statuses`/`replies` are
  /// positionally aligned with `calls`. Transport failures kill the
  /// worker (stream resync); worker-side kError replies decode to their
  /// original Status and leave the worker alive. Checks the external
  /// cancellation token between waves, draining in-flight replies before
  /// failing so the mailbox stays consistent.
  Status RunCalls(const std::vector<WorkerCall>& calls,
                  std::vector<Message>* replies,
                  std::vector<Status>* statuses);

  /// RunCalls, failing with the first failed call's Status.
  Result<std::vector<Message>> RunAll(const std::vector<WorkerCall>& calls);

  /// One kExecOp per partition of inputs[0] among its first `limit`, on
  /// the worker holding it. With `out_handles`, each worker keeps its
  /// output under a fresh handle (appended there; freed again on failure)
  /// and replies kOk with its row count; without, the out handle is 0 and
  /// the worker replies with the frame.
  Result<std::vector<Message>> ExecOnPartitions(
      const exec::OpDesc& desc, const std::vector<exec::BackendValue>& inputs,
      size_t limit, std::vector<uint64_t>* out_handles);

  // The store (exec::PartitionedBackend).
  Result<exec::BackendFramePtr> Scan(const exec::OpDesc& desc) override;
  Result<exec::BackendFramePtr> RunKeep(
      const exec::OpDesc& desc,
      const std::vector<exec::BackendValue>& inputs) override;
  Result<std::vector<df::DataFrame>> RunReturn(
      const exec::OpDesc& desc,
      const std::vector<exec::BackendValue>& inputs, size_t limit) override;
  Result<std::vector<df::DataFrame>> Fetch(
      const exec::BackendFrame& frame) override;
  Result<exec::BackendFramePtr> Place(const df::DataFrame& frame) override;
  Result<exec::BackendFramePtr> Broadcast(
      const df::DataFrame& frame,
      const exec::BackendFrame& alongside) override;
  bool Colocated(const exec::BackendFrame& a,
                 const exec::BackendFrame& b) const override;
  Result<std::vector<uint64_t>> Rows(
      const exec::BackendFrame& frame) const override;

  /// All partitions must be on live workers of the current generation;
  /// otherwise the data died with a worker and the op fails cleanly.
  Status ValidateLive(const std::vector<ShardPartition>& parts) const;

  /// Serializes coordinator-side protocol state: Execute, Materialize and
  /// FromEager may race from scheduler workers, but the mailbox admits
  /// one query at a time.
  std::mutex mu_;
  std::shared_ptr<Cluster> cluster_;
};

}  // namespace lafp::shard

#endif  // LAFP_SHARD_SHARD_BACKEND_H_
