#include "shard/pool.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/metrics.h"
#include "shard/wire.h"
#include "shard/worker.h"

namespace lafp::shard {

namespace {

std::atomic<WorkerPool*> created{nullptr};

metrics::Counter* SpawnCounter() {
  static auto* c =
      metrics::Registry::Global()->GetCounter("shard.worker_spawns");
  return c;
}

void Reap(pid_t pid) {
  while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
}

/// In a new worker: closes every inherited descriptor but stdio and the
/// worker's own socket. Other workers' sockets must go, or their workers
/// would not see EOF when the coordinator goes; so must the coordinator's
/// files and connections, or a pooled worker holding a client's
/// connection would keep that client from seeing the server close it.
void CloseInheritedExcept(int keep) {
  if (keep > 3) ::close_range(3, static_cast<unsigned>(keep) - 1, 0);
  ::close_range(static_cast<unsigned>(std::max(3, keep + 1)), UINT_MAX, 0);
}

}  // namespace

WorkerPool* WorkerPool::Get() {
  static WorkerPool* pool = [] {
    auto* p = new WorkerPool();  // leaked: the exit handler outlives main
    created.store(p, std::memory_order_release);
    std::atexit(&KillIdleAtExit);
    return p;
  }();
  return pool;
}

WorkerPool* WorkerPool::IfCreated() {
  return created.load(std::memory_order_acquire);
}

WorkerPool::WorkerPool() : owner_(::getpid()) {}

void WorkerPool::KillIdleAtExit() {
  WorkerPool* p = IfCreated();
  std::vector<WorkerProcess> idle;
  {
    std::lock_guard<std::mutex> lock(p->mu_);
    if (p->owner_ != ::getpid()) return;  // a fork's copy; not our children
    p->exiting_ = true;
    idle.swap(p->idle_);
  }
  for (const WorkerProcess& w : idle) {
    ::close(w.fd);
    ::kill(w.pid, SIGKILL);
  }
  for (const WorkerProcess& w : idle) Reap(w.pid);
}

void WorkerPool::ForgetIfForked() {
  if (owner_ == ::getpid()) return;
  for (const WorkerProcess& w : idle_) ::close(w.fd);
  idle_.clear();
  owner_ = ::getpid();
}

std::vector<WorkerProcess> WorkerPool::Take(size_t n) {
  std::vector<WorkerProcess> taken;
  std::lock_guard<std::mutex> lock(mu_);
  ForgetIfForked();
  while (taken.size() < n && !idle_.empty()) {
    WorkerProcess w = idle_.back();
    idle_.pop_back();
    // A worker can die while idle (the OOM killer, say); leasing it
    // would fail the next query's first request to it.
    if (::waitpid(w.pid, nullptr, WNOHANG) == w.pid) {
      ::close(w.fd);
      continue;
    }
    taken.push_back(w);
  }
  return taken;
}

Result<WorkerProcess> WorkerPool::Spawn() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return Status::IOError(std::string("shard: socketpair failed: ") +
                           std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    CloseInheritedExcept(sv[1]);
    WorkerMain(sv[1]);  // never returns
  }
  const int fork_errno = errno;
  ::close(sv[1]);
  if (pid < 0) {
    ::close(sv[0]);
    return Status::IOError(std::string("shard: fork failed: ") +
                           std::strerror(fork_errno));
  }
  SpawnCounter()->Increment();
  return WorkerProcess{pid, sv[0]};
}

void WorkerPool::Give(WorkerProcess worker) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!exiting_) {
      idle_.push_back(worker);
      return;
    }
  }
  Kill(worker);
}

void WorkerPool::Kill(WorkerProcess worker) {
  // Workers hold only process-local state; SIGKILL never leaves a query
  // half-applied (a result exists once the coordinator has the reply).
  ::close(worker.fd);
  ::kill(worker.pid, SIGKILL);
  Reap(worker.pid);
}

std::vector<IdleWorker> WorkerPool::ProbeIdle() {
  std::vector<IdleWorker> out;
  std::vector<WorkerProcess> failed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ForgetIfForked();
    const std::string probe = EncodeFreeFrames({});
    std::vector<WorkerProcess> kept;
    for (const WorkerProcess& w : idle_) {
      Result<uint64_t> resident =
          SendMessage(w.fd, MsgType::kFreeFrames, probe).ok()
              ? RecvResidentFrames(w.fd)
              : Result<uint64_t>(Status::IOError("shard: probe failed"));
      if (!resident.ok()) {
        failed.push_back(w);
        continue;
      }
      out.push_back({w.pid, *resident});
      kept.push_back(w);
    }
    idle_.swap(kept);
  }
  for (const WorkerProcess& w : failed) Kill(w);
  return out;
}

}  // namespace lafp::shard
