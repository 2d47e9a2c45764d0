#ifndef LAFP_SHARD_WORKER_H_
#define LAFP_SHARD_WORKER_H_

namespace lafp::shard {

/// Child-process entry point of the shard executor. Serves framed
/// requests (shard/wire.h) on `fd` until the coordinator sends kShutdown
/// or closes its end, then _exits — never returns. A worker serves one
/// lease after another (shard/pool.h): between leases it holds no frame,
/// and nothing it keeps across them depends on a lease (scan requests
/// carry the worker's index).
///
/// The worker is deliberately single-threaded: the parent may fork from a
/// multi-threaded process, so the child confines itself to the post-fork
/// safe subset (glibc's fork handlers make malloc usable) and never
/// spawns threads of its own. Its first action is
/// FaultInjector::ResetForkedChild(), so coordinator-side fault specs
/// copied across fork cannot fire inside the worker.
[[noreturn]] void WorkerMain(int fd);

}  // namespace lafp::shard

#endif  // LAFP_SHARD_WORKER_H_
