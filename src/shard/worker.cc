#include "shard/worker.h"

#include <unistd.h>

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/macros.h"
#include "common/memory_tracker.h"
#include "exec/agg_twophase.h"
#include "exec/eager_ops.h"
#include "exec/spill.h"
#include "io/columnar.h"
#include "io/csv.h"
#include "shard/wire.h"

namespace lafp::shard {

namespace {

/// Per-worker process state: the frame table maps handles to resident
/// dataframes. Coordinator-assigned handles count up from 1; handles the
/// worker mints during scans live above kWorkerHandleBase.
struct WorkerState {
  int worker_index = 0;
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

struct LocalPartition {
  uint64_t global_index = 0;
  uint64_t handle = 0;
  uint64_t rows = 0;
};

/// Scan request: every worker walks the same chunk sequence (the same
/// geometry the Modin backend produces) and keeps the chunks whose global
/// index hashes to it (idx % num_workers == worker_index), so the union
/// across workers is exactly the single-process partitioning. Every
/// worker row-scans the whole CSV (the text format has no random access)
/// but parses only the ranges it owns; LFC chunks are only decoded by
/// their owner.
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
  const bool mine_first = worker_index == 0;
  std::vector<LocalPartition> locals;
  uint64_t total = 0;
  auto keep = [&](df::DataFrame frame) {
    LocalPartition p;
    p.global_index = total;
    p.handle = st->next_scan_handle++;
    p.rows = frame.num_rows();
    st->frames[p.handle] = std::move(frame);
    locals.push_back(p);
  };
  if (desc.kind == exec::OpKind::kReadCsv) {
    LAFP_ASSIGN_OR_RETURN(
        auto reader,
        io::CsvChunkReader::Open(desc.path, desc.csv_options, &st->tracker));
    while (true) {
      LAFP_ASSIGN_OR_RETURN(
          auto range, reader->NextRange(static_cast<size_t>(partition_rows)));
      if (!range.has_value()) break;
      if (total % num_workers == worker_index) {
        LAFP_ASSIGN_OR_RETURN(df::DataFrame part, reader->ParseRange(*range));
        keep(std::move(part));
      }
      ++total;
    }
    if (total == 0) {
      // Empty source: mirror Modin's single empty partition, owned by
      // worker 0; every worker still reports total == 1.
      total = 1;
      if (mine_first) {
        LAFP_ASSIGN_OR_RETURN(df::DataFrame empty, reader->EmptyFrame());
        keep(std::move(empty));
        locals.back().global_index = 0;
      }
    }
  } else if (desc.kind == exec::OpKind::kReadLfc) {
    LAFP_ASSIGN_OR_RETURN(auto reader,
                          io::LfcReader::Open(desc.path, &st->tracker));
    const auto& o = desc.lfc_options;
    LAFP_ASSIGN_OR_RETURN(std::vector<size_t> sel,
                          reader->SelectColumns(o.usecols));
    const bool pruning = o.prune_enabled && !o.prune.empty();
    uint64_t remaining =
        o.nrows == 0 ? std::numeric_limits<uint64_t>::max() : o.nrows;
    for (size_t chunk = 0; chunk < reader->num_chunks(); ++chunk) {
      if (remaining == 0) break;
      const uint64_t take =
          std::min<uint64_t>(reader->chunk_rows(chunk), remaining);
      remaining -= take;
      if (pruning && !reader->ChunkMayMatch(chunk, o.prune)) continue;
      if (total % num_workers == worker_index) {
        LAFP_ASSIGN_OR_RETURN(
            df::DataFrame part,
            reader->ReadChunk(chunk, sel, static_cast<size_t>(take)));
        keep(std::move(part));
      }
      ++total;
    }
    if (total == 0) {
      total = 1;
      if (mine_first) {
        LAFP_ASSIGN_OR_RETURN(df::DataFrame empty, reader->EmptyFrame(sel));
        keep(std::move(empty));
        locals.back().global_index = 0;
      }
    }
  } else {
    return Status::Invalid("shard worker: scan request for non-scan op");
  }
  WireWriter w;
  w.U64(total);
  w.U32(static_cast<uint32_t>(locals.size()));
  for (const auto& p : locals) {
    w.U64(p.global_index);
    w.U64(p.handle);
    w.U64(p.rows);
  }
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
                            exec::DeserializeFrame(bytes, &st->tracker));
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
  const uint64_t rows = out.frame.num_rows();
  st->frames[out_handle] = std::move(out.frame);
  WireWriter w;
  w.U64(rows);
  return Message{MsgType::kOk, w.Take()};
}

Result<Message> HandleGroupByPartial(WorkerState* st, const Message& req) {
  WireReader r(req.payload);
  uint64_t handle = 0;
  if (!r.U64(&handle)) return r.Error("groupby handle");
  std::vector<std::string> keys;
  uint32_t nkeys = 0;
  if (!r.U32(&nkeys)) return r.Error("groupby keys");
  if (static_cast<uint64_t>(nkeys) * 4 > r.remaining()) {
    return r.Error("groupby keys");
  }
  for (uint32_t i = 0; i < nkeys; ++i) {
    std::string k;
    if (!r.Str(&k)) return r.Error("groupby key");
    keys.push_back(std::move(k));
  }
  std::vector<df::AggSpec> aggs;
  uint32_t naggs = 0;
  if (!r.U32(&naggs)) return r.Error("groupby aggs");
  if (static_cast<uint64_t>(naggs) * 9 > r.remaining()) {
    return r.Error("groupby aggs");
  }
  for (uint32_t i = 0; i < naggs; ++i) {
    df::AggSpec a;
    uint8_t func = 0;
    if (!r.Str(&a.column) || !r.U8(&func) || !r.Str(&a.out_name)) {
      return r.Error("agg spec");
    }
    if (func > static_cast<uint8_t>(df::AggFunc::kNunique)) {
      return Status::Invalid("shard worker: bad agg func");
    }
    a.func = static_cast<df::AggFunc>(func);
    aggs.push_back(std::move(a));
  }
  LAFP_ASSIGN_OR_RETURN(df::DataFrame frame, LookupFrame(st, handle));
  exec::GroupByCombiner combiner(std::move(keys), std::move(aggs));
  if (!combiner.supported()) {
    return Status::Invalid("shard worker: aggregate is not two-phase");
  }
  LAFP_ASSIGN_OR_RETURN(df::DataFrame partial,
                        combiner.PartialAggregate(frame));
  LAFP_ASSIGN_OR_RETURN(std::string bytes, exec::SerializeFrame(partial));
  return Message{MsgType::kFrameData, std::move(bytes)};
}

Result<Message> HandlePutFrame(WorkerState* st, const Message& req) {
  WireReader r(req.payload);
  uint64_t handle = 0;
  if (!r.U64(&handle)) return r.Error("put handle");
  LAFP_ASSIGN_OR_RETURN(df::DataFrame frame,
                        exec::DeserializeFrame(r.Rest(), &st->tracker));
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
  LAFP_ASSIGN_OR_RETURN(std::string bytes, exec::SerializeFrame(frame));
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
  WireWriter w;
  w.U64(0);
  return Message{MsgType::kOk, w.Take()};
}

Result<Message> Dispatch(WorkerState* st, const Message& req) {
  switch (req.type) {
    case MsgType::kScan:
      return HandleScan(st, req);
    case MsgType::kExecOp:
      return HandleExecOp(st, req);
    case MsgType::kGroupByPartial:
      return HandleGroupByPartial(st, req);
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

void WorkerMain(int fd, int worker_index) {
  // The fork copied the coordinator's fault state (thread-local injector
  // pointer and the global registry). Worker-side execution must not
  // consume coordinator fault budgets, so the copy is cleared before any
  // FaultPoint can run.
  FaultInjector::ResetForkedChild();
  WorkerState state;
  state.worker_index = worker_index;
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
