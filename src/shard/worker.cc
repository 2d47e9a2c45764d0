#include "shard/worker.h"

#include <unistd.h>

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/macros.h"
#include "common/memory_tracker.h"
#include "common/trace.h"
#include "exec/eager_ops.h"
#include "exec/partitioned.h"
#include "io/columnar.h"
#include "shard/wire.h"

namespace lafp::shard {

namespace {

/// Per-worker process state: the frame table maps handles to resident
/// dataframes. Coordinator-assigned handles count up from 1; handles the
/// worker mints during scans live above kWorkerHandleBase.
struct WorkerState {
  MemoryTracker tracker{0};  // workers budget independently of the parent
  std::unordered_map<uint64_t, df::DataFrame> frames;
  uint64_t next_scan_handle = kWorkerHandleBase;
};

Result<df::DataFrame> LookupFrame(WorkerState* st, uint64_t handle) {
  auto it = st->frames.find(handle);
  if (it == st->frames.end()) {
    return Status::KeyError("shard worker: unknown frame handle " +
                            std::to_string(handle));
  }
  return it->second;
}

/// Scan request: every worker walks the same scan units (exec::ScanUnits,
/// the Modin geometry) and keeps the units whose global index hashes to
/// it (idx % num_workers == worker_index), so the union across workers is
/// exactly the single-process partitioning. Every worker row-scans the
/// whole CSV (the text format has no random access) but parses only the
/// ranges it owns; LFC chunks are only decoded by their owner. A scan
/// that fails part-way drops the units it already stored: the
/// coordinator never learns their handles.
Result<Message> HandleScan(WorkerState* st, const Message& req) {
  WireReader r(req.payload);
  exec::OpDesc desc;
  LAFP_RETURN_NOT_OK(DecodeOpDesc(&r, &desc));
  uint32_t worker_index = 0, num_workers = 0;
  uint64_t partition_rows = 0;
  if (!r.U32(&worker_index) || !r.U32(&num_workers) ||
      !r.U64(&partition_rows)) {
    return r.Error("scan request");
  }
  if (num_workers == 0 || worker_index >= num_workers ||
      partition_rows == 0) {
    return Status::Invalid("shard worker: malformed scan geometry");
  }
  LAFP_ASSIGN_OR_RETURN(
      auto units, exec::ScanUnits::Open(desc, static_cast<size_t>(partition_rows),
                                        &st->tracker));
  WireWriter owned;
  std::vector<uint64_t> stored;
  uint64_t total = 0;
  Status scanned = [&]() -> Status {
    while (true) {
      LAFP_ASSIGN_OR_RETURN(std::optional<exec::ScanUnit> unit,
                            units->Next());
      if (!unit.has_value()) return Status::OK();
      if (total % num_workers == worker_index) {
        LAFP_ASSIGN_OR_RETURN(df::DataFrame part, units->Read(*unit));
        const uint64_t handle = st->next_scan_handle++;
        owned.U64(total);
        owned.U64(handle);
        owned.U64(part.num_rows());
        st->frames[handle] = std::move(part);
        stored.push_back(handle);
      }
      ++total;
    }
  }();
  if (!scanned.ok()) {
    for (uint64_t handle : stored) st->frames.erase(handle);
    return scanned;
  }
  WireWriter w;
  w.U64(total);
  w.U32(static_cast<uint32_t>(stored.size()));
  w.Raw(owned.Take());
  return Message{MsgType::kScanResult, w.Take()};
}

Result<Message> HandleExecOp(WorkerState* st, const Message& req) {
  WireReader r(req.payload);
  exec::OpDesc desc;
  LAFP_RETURN_NOT_OK(DecodeOpDesc(&r, &desc));
  uint64_t out_handle = 0;
  uint32_t ninputs = 0;
  if (!r.U64(&out_handle) || !r.U32(&ninputs)) return r.Error("exec header");
  if (ninputs > 64) {
    return Status::Invalid("shard worker: too many op inputs");
  }
  std::vector<exec::EagerValue> inputs;
  for (uint32_t i = 0; i < ninputs; ++i) {
    uint8_t tag = 0;
    if (!r.U8(&tag)) return r.Error("input tag");
    if (tag == 0) {
      uint64_t handle = 0;
      if (!r.U64(&handle)) return r.Error("input handle");
      LAFP_ASSIGN_OR_RETURN(df::DataFrame frame, LookupFrame(st, handle));
      inputs.push_back(exec::EagerValue::Frame(std::move(frame)));
    } else if (tag == 1) {
      df::Scalar s;
      LAFP_RETURN_NOT_OK(DecodeScalar(&r, &s));
      inputs.push_back(exec::EagerValue::FromScalar(std::move(s)));
    } else if (tag == 2) {
      std::string bytes;
      if (!r.Str(&bytes)) return r.Error("inline frame");
      LAFP_ASSIGN_OR_RETURN(df::DataFrame frame,
                            io::DecodeLfc(bytes, &st->tracker, kExchange));
      inputs.push_back(exec::EagerValue::Frame(std::move(frame)));
    } else {
      return Status::Invalid("shard worker: unknown input tag");
    }
  }
  LAFP_ASSIGN_OR_RETURN(exec::EagerValue out,
                        exec::ExecuteEagerOp(desc, inputs, &st->tracker));
  if (out.is_scalar) {
    // The coordinator runs reductions itself; a scalar here means the
    // plan fragment was mis-routed.
    return Status::Invalid("shard worker: op produced a scalar");
  }
  if (out_handle == 0) {
    LAFP_ASSIGN_OR_RETURN(std::string bytes, io::EncodeLfc(out.frame));
    return Message{MsgType::kFrameData, std::move(bytes)};
  }
  const uint64_t rows = out.frame.num_rows();
  st->frames[out_handle] = std::move(out.frame);
  WireWriter w;
  w.U64(rows);
  return Message{MsgType::kOk, w.Take()};
}

Result<Message> HandlePutFrame(WorkerState* st, const Message& req) {
  WireReader r(req.payload);
  uint64_t handle = 0;
  if (!r.U64(&handle)) return r.Error("put handle");
  LAFP_ASSIGN_OR_RETURN(df::DataFrame frame,
                        io::DecodeLfc(r.Rest(), &st->tracker, kExchange));
  const uint64_t rows = frame.num_rows();
  st->frames[handle] = std::move(frame);
  WireWriter w;
  w.U64(rows);
  return Message{MsgType::kOk, w.Take()};
}

Result<Message> HandleGetFrame(WorkerState* st, const Message& req) {
  WireReader r(req.payload);
  uint64_t handle = 0;
  if (!r.U64(&handle)) return r.Error("get handle");
  LAFP_ASSIGN_OR_RETURN(df::DataFrame frame, LookupFrame(st, handle));
  LAFP_ASSIGN_OR_RETURN(std::string bytes, io::EncodeLfc(frame));
  return Message{MsgType::kFrameData, std::move(bytes)};
}

Result<Message> HandleFreeFrames(WorkerState* st, const Message& req) {
  WireReader r(req.payload);
  uint32_t n = 0;
  if (!r.U32(&n)) return r.Error("free count");
  if (static_cast<uint64_t>(n) * 8 > r.remaining()) return r.Error("frees");
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t handle = 0;
    if (!r.U64(&handle)) return r.Error("free handle");
    st->frames.erase(handle);  // freeing an unknown handle is a no-op
  }
  // The count left lets the coordinator pool only a worker that holds
  // nothing.
  WireWriter w;
  w.U64(st->frames.size());
  return Message{MsgType::kOk, w.Take()};
}

Result<Message> Dispatch(WorkerState* st, const Message& req) {
  switch (req.type) {
    case MsgType::kScan:
      return HandleScan(st, req);
    case MsgType::kExecOp:
      return HandleExecOp(st, req);
    case MsgType::kPutFrame:
      return HandlePutFrame(st, req);
    case MsgType::kGetFrame:
      return HandleGetFrame(st, req);
    case MsgType::kFreeFrames:
      return HandleFreeFrames(st, req);
    default:
      return Status::Invalid("shard worker: unexpected message type " +
                             std::to_string(static_cast<uint32_t>(req.type)));
  }
}

}  // namespace

void WorkerMain(int fd) {
  // The fork copied the coordinator's fault state (thread-local injector
  // pointer and the global registry). Worker-side execution must not
  // consume coordinator fault budgets, so the copy is cleared before any
  // FaultPoint can run.
  FaultInjector::ResetForkedChild();
  // A worker forked while the coordinator traced would record every span
  // of every later lease into a tracer nothing reads.
  trace::Tracer::Global()->set_enabled(false);
  WorkerState state;
  for (;;) {
    Result<Message> req = RecvMessage(fd);
    // EOF means the coordinator went away (shutdown or crash); exiting
    // without side effects is the whole cleanup story for a worker.
    if (!req.ok()) _exit(0);
    if (req->type == MsgType::kShutdown) _exit(0);
    Result<Message> reply = Dispatch(&state, *req);
    Message out = reply.ok()
                      ? std::move(*reply)
                      : Message{MsgType::kError,
                                EncodeErrorPayload(reply.status())};
    if (!SendMessage(fd, out.type, out.payload).ok()) _exit(0);
  }
}

}  // namespace lafp::shard
