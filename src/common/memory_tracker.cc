#include "common/memory_tracker.h"

#include <malloc.h>

#include <algorithm>
#include <sstream>

#include "common/fault.h"
#include "common/macros.h"

namespace lafp {

namespace {

/// glibc serves an allocation at or above its mmap threshold from a fresh
/// mmap, which faults in every page, and raises that threshold only after
/// a large mmapped chunk is freed. So whether a job's large column
/// buffers reuse heap pages would depend on what earlier jobs of the
/// process freed. Both thresholds are pinned once per process, at start-up
/// (the initializer below): buffers below 32 MiB come from the heap, and
/// the heap returns memory to the system only past 64 MiB of free top.
constexpr int kMmapThresholdBytes = 32 << 20;
constexpr int kTrimThresholdBytes = 64 << 20;

[[maybe_unused]] const bool kAllocatorPinned = [] {
  mallopt(M_MMAP_THRESHOLD, kMmapThresholdBytes);
  mallopt(M_TRIM_THRESHOLD, kTrimThresholdBytes);
  return true;
}();

}  // namespace

Status MemoryTracker::Reserve(int64_t bytes) {
  if (bytes < 0) return Status::Invalid("negative reservation");
  // Budget-denial injection site: a fired fault is indistinguishable from
  // a genuine budget rejection (usage stays unchanged either way).
  LAFP_RETURN_NOT_OK(FaultPoint("mem.reserve"));
  return ReserveChain(bytes);
}

Status MemoryTracker::ReserveChain(int64_t bytes) {
  // Charge ancestors first: if this tracker's own budget then rejects,
  // the ancestor charge is rolled back and the whole chain is unchanged.
  if (parent_ != nullptr) LAFP_RETURN_NOT_OK(parent_->ReserveChain(bytes));
  const int64_t budget = budget_.load(std::memory_order_relaxed);
  int64_t cur = current_.load(std::memory_order_relaxed);
  while (true) {
    int64_t next = cur + bytes;
    if (budget > 0 && next > budget) {
      if (parent_ != nullptr) parent_->Release(bytes);  // roll back
      std::ostringstream msg;
      msg << "memory budget exceeded: in use " << cur << " + request "
          << bytes << " > budget " << budget;
      return Status::OutOfMemory(msg.str());
    }
    if (current_.compare_exchange_weak(cur, next,
                                       std::memory_order_relaxed)) {
      // Peak update: monotonic max, both lifetime and round-epoch.
      int64_t prev_peak = peak_.load(std::memory_order_relaxed);
      while (next > prev_peak && !peak_.compare_exchange_weak(
                                     prev_peak, next,
                                     std::memory_order_relaxed)) {
      }
      int64_t prev_round = round_peak_.load(std::memory_order_relaxed);
      while (next > prev_round && !round_peak_.compare_exchange_weak(
                                      prev_round, next,
                                      std::memory_order_relaxed)) {
      }
      return Status::OK();
    }
  }
}

void MemoryTracker::Release(int64_t bytes) {
  if (bytes <= 0) return;
  ReleaseLocal(bytes);
  if (parent_ != nullptr) parent_->Release(bytes);
}

void MemoryTracker::ReleaseLocal(int64_t bytes) {
  int64_t cur = current_.load(std::memory_order_relaxed);
  while (true) {
    int64_t next = std::max<int64_t>(0, cur - bytes);
    if (current_.compare_exchange_weak(cur, next,
                                       std::memory_order_relaxed)) {
      return;
    }
  }
}

void MemoryTracker::Reset() {
  current_.store(0, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
  round_peak_.store(0, std::memory_order_relaxed);
}

std::string MemoryTracker::ToString() const {
  std::ostringstream os;
  os << "MemoryTracker{current=" << current() << ", peak=" << peak()
     << ", budget=" << budget() << "}";
  return os.str();
}

MemoryTracker* MemoryTracker::Default() {
  static MemoryTracker* tracker = new MemoryTracker(0);
  return tracker;
}

Status ScopedReservation::Make(MemoryTracker* tracker, int64_t bytes,
                               ScopedReservation* out) {
  LAFP_RETURN_NOT_OK(tracker->Reserve(bytes));
  *out = ScopedReservation(tracker, bytes);
  return Status::OK();
}

}  // namespace lafp
