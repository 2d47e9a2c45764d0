#ifndef LAFP_SHARD_WIRE_H_
#define LAFP_SHARD_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/wire.h"
#include "exec/op.h"

/// Coordinator <-> worker wire protocol for the shared-nothing shard
/// executor (src/shard/). Everything on the socket is a framed message:
///
///   u32 magic ("LFSH") | u32 type | u64 payload_len | payload bytes
///
/// Payloads are little-endian structs built with WireWriter and decoded
/// with the bounds-checked WireReader (common/wire.h); plan fragments are
/// the operator codec (exec::EncodeOpDesc); "frame bytes" are one LFC
/// encoding (io::EncodeLfc), decoded by io::DecodeLfc through the LFC
/// file reader's validation, so files, spill and exchange share one
/// hardened decoder.
///
/// Request payloads (coordinator -> worker):
///   kScan:           OpDesc | u32 worker_index | u32 num_workers
///                    | u64 partition_rows
///   kExecOp:         OpDesc | u64 out_handle | u32 ninputs
///                    | per input: u8 tag (0 = u64 handle, 1 = Scalar,
///                      2 = u64 len + frame bytes)
///                    out_handle != 0: the worker keeps the output under
///                    it and replies kOk; 0: it replies kFrameData with
///                    the output (group-by phase one, exec/partitioned.h)
///   kPutFrame:       u64 handle | frame bytes (rest of payload)
///   kGetFrame:       u64 handle
///   kFreeFrames:     u32 n x u64 handle
///   kShutdown:       (empty; the worker _exits without replying)
///
/// Reply payloads (worker -> coordinator); every request except
/// kShutdown gets exactly one reply:
///   kOk:         u64 rows (of the stored frame); for kFreeFrames, the
///                number of frames the worker still holds
///   kFrameData:  frame bytes (kGetFrame, returning kExecOp)
///   kScanResult: u64 total_partitions | u32 nlocal
///                | nlocal x (u64 global_index, u64 handle, u64 rows)
///   kError:      u32 status code | str message
namespace lafp::shard {

/// Frame header magic: "LFSH".
constexpr uint32_t kFrameMagic = 0x4846534cu;

/// Per-message payload clamp. A crafted or corrupted length header must
/// not drive a multi-gigabyte allocation before any payload byte is read.
constexpr uint64_t kMaxMessageBytes = 1ull << 30;  // 1 GiB

/// The source DecodeLfc names in errors about frame bytes.
constexpr char kExchange[] = "shard exchange";

/// Handles the worker assigns locally during scans live above this base;
/// coordinator-assigned handles count up from 1, so the two spaces can
/// never collide within one worker's frame table.
constexpr uint64_t kWorkerHandleBase = 1ull << 62;

enum class MsgType : uint32_t {
  // Requests.
  kScan = 1,
  kExecOp = 2,
  kPutFrame = 4,
  kGetFrame = 5,
  kFreeFrames = 6,
  kShutdown = 7,
  // Replies.
  kOk = 100,
  kFrameData = 101,
  kScanResult = 102,
  kError = 103,
};

struct Message {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Writes one framed message to `fd` (EINTR-safe, MSG_NOSIGNAL — a dead
/// peer surfaces as a clean Status, never SIGPIPE).
Status SendMessage(int fd, MsgType type, std::string_view payload);

/// Reads one framed message from `fd`. EOF or a malformed header (bad
/// magic, payload above kMaxMessageBytes) is a clean IOError.
Result<Message> RecvMessage(int fd);

/// The scalar and plan-fragment codecs this protocol carries (exec/op.h).
using exec::DecodeOpDesc;
using exec::DecodeScalar;
using exec::EncodeOpDesc;
using exec::EncodeScalar;

/// kFreeFrames request naming `handles` (none: a resident-count probe).
std::string EncodeFreeFrames(const std::vector<uint64_t>& handles);

/// Reads a kFreeFrames reply: the number of frames the worker still
/// holds.
Result<uint64_t> RecvResidentFrames(int fd);

/// kError payload codec. Unknown status codes decode as kExecutionError.
std::string EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(std::string_view payload);

}  // namespace lafp::shard

#endif  // LAFP_SHARD_WIRE_H_
