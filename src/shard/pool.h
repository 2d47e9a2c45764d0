#ifndef LAFP_SHARD_POOL_H_
#define LAFP_SHARD_POOL_H_

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/result.h"

namespace lafp::shard {

/// One forked worker process and the coordinator's end of its socketpair.
struct WorkerProcess {
  pid_t pid = -1;
  int fd = -1;
};

/// What an idle worker reports when asked (WorkerPool::ProbeIdle).
struct IdleWorker {
  pid_t pid = -1;
  uint64_t resident_frames = 0;
};

/// The process-wide set of shard workers. Sessions lease workers from it
/// (Cluster::Lease) and give back the clean ones when they end, so a
/// process forks each worker once instead of once per query. It grows to
/// the peak number of workers leased at once and has no size knob.
///
/// The pool exists from the first lease on: a process that never runs a
/// Shard session starts no process and no thread, and nothing here runs
/// before main. A new worker closes every descriptor it inherited but
/// stdio and its own socket, and socketpairs are close-on-exec, so no
/// other process holds a worker's socket open past its coordinator. Idle
/// workers are killed and reaped at exit. A child forked by other code
/// while no lease is in progress may run Shard sessions of its own: it
/// forgets the parent's workers without killing them.
class WorkerPool {
 public:
  /// The pool, created on first call.
  static WorkerPool* Get();
  /// The pool if a lease ever created it, else null.
  static WorkerPool* IfCreated();

  /// Up to `n` idle workers, now owned by the caller.
  std::vector<WorkerProcess> Take(size_t n);

  /// Forks one worker (counted by `shard.worker_spawns`).
  Result<WorkerProcess> Spawn();

  /// Takes back a worker that holds no frame and has no exchange
  /// pending. After exit has begun it is killed instead.
  void Give(WorkerProcess worker);

  /// SIGKILL, close and reap: a synchronous death.
  void Kill(WorkerProcess worker);

  /// Asks every idle worker how many frames it holds (a kFreeFrames
  /// request naming no handle). A worker that fails to answer is killed
  /// and left out.
  std::vector<IdleWorker> ProbeIdle();

 private:
  WorkerPool();

  /// atexit: kill and reap the idle workers.
  static void KillIdleAtExit();

  /// In a child forked by other code, the inherited workers belong to
  /// the parent: close their sockets and forget them.
  void ForgetIfForked();

  std::mutex mu_;
  pid_t owner_ = -1;
  bool exiting_ = false;
  std::vector<WorkerProcess> idle_;
};

}  // namespace lafp::shard

#endif  // LAFP_SHARD_POOL_H_
