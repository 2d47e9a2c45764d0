#include "shard/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/macros.h"

namespace lafp::shard {

namespace {

Status SendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("shard send failed: ") +
                             std::strerror(errno));
    }
    data += sent;
    n -= static_cast<size_t>(sent);
  }
  return Status::OK();
}

Status RecvAll(int fd, char* data, size_t n) {
  while (n > 0) {
    ssize_t got = ::recv(fd, data, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("shard recv failed: ") +
                             std::strerror(errno));
    }
    if (got == 0) return Status::IOError("shard peer closed the connection");
    data += got;
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

}  // namespace

Status SendMessage(int fd, MsgType type, std::string_view payload) {
  char header[16];
  const uint32_t magic = kFrameMagic;
  const uint32_t t = static_cast<uint32_t>(type);
  const uint64_t len = payload.size();
  if (len > kMaxMessageBytes) {
    return Status::Invalid("shard message exceeds the 1 GiB frame clamp");
  }
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &t, 4);
  std::memcpy(header + 8, &len, 8);
  LAFP_RETURN_NOT_OK(SendAll(fd, header, sizeof(header)));
  return SendAll(fd, payload.data(), payload.size());
}

Result<Message> RecvMessage(int fd) {
  char header[16];
  LAFP_RETURN_NOT_OK(RecvAll(fd, header, sizeof(header)));
  uint32_t magic = 0;
  uint32_t type = 0;
  uint64_t len = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&len, header + 8, 8);
  if (magic != kFrameMagic) {
    return Status::IOError("shard wire: bad frame magic (stream desync)");
  }
  if (len > kMaxMessageBytes) {
    return Status::IOError("shard wire: frame length exceeds 1 GiB clamp");
  }
  Message msg;
  msg.type = static_cast<MsgType>(type);
  msg.payload.resize(static_cast<size_t>(len));
  if (len > 0) LAFP_RETURN_NOT_OK(RecvAll(fd, msg.payload.data(), len));
  return msg;
}

std::string EncodeFreeFrames(const std::vector<uint64_t>& handles) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(handles.size()));
  for (uint64_t handle : handles) w.U64(handle);
  return w.Take();
}

Result<uint64_t> RecvResidentFrames(int fd) {
  LAFP_ASSIGN_OR_RETURN(Message reply, RecvMessage(fd));
  WireReader r(reply.payload);
  uint64_t resident = 0;
  if (reply.type != MsgType::kOk || !r.U64(&resident)) {
    return Status::IOError("shard wire: malformed free reply");
  }
  return resident;
}

std::string EncodeErrorPayload(const Status& status) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeErrorPayload(std::string_view payload) {
  WireReader r(payload);
  uint32_t code = 0;
  std::string message;
  if (!r.U32(&code) || !r.Str(&message)) {
    return Status::IOError("shard wire: malformed error reply");
  }
  if (code > static_cast<uint32_t>(StatusCode::kCancelled) || code == 0) {
    code = static_cast<uint32_t>(StatusCode::kExecutionError);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

}  // namespace lafp::shard
