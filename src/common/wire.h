#ifndef LAFP_COMMON_WIRE_H_
#define LAFP_COMMON_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace lafp {

/// Little-endian payload builder: the byte encoding shared by the shard
/// wire protocol (shard/wire.h) and the operator codec (exec/op.h).
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendPod(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendPod(&v, sizeof(v)); }
  void I64(int64_t v) { AppendPod(&v, sizeof(v)); }
  void F64(double v) { AppendPod(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void Raw(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }

  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void AppendPod(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked payload decoder: every getter returns false instead of
/// reading past the end, so a truncated or hostile payload can never walk
/// off the buffer. `Error(what)` converts exhaustion into a clean Status.
/// Inline, so a loop over many small fields (an LFC dictionary's entries)
/// compiles to a bounds check and a copy per field.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* out) { return ReadPod(out, 1); }
  bool U32(uint32_t* out) { return ReadPod(out, 4); }
  bool U64(uint64_t* out) { return ReadPod(out, 8); }
  bool I64(int64_t* out) { return ReadPod(out, 8); }
  bool F64(double* out) { return ReadPod(out, 8); }
  bool Str(std::string* out) {
    std::string_view view;
    if (!Str(&view)) return false;
    out->assign(view);
    return true;
  }
  /// A string's bytes in place, valid while the reader's data is.
  bool Str(std::string_view* out) {
    uint32_t len = 0;
    if (!U32(&len) || remaining() < len) return false;
    *out = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }
  /// The unread tail (used for trailing frame-bytes payloads).
  std::string_view Rest() const { return data_.substr(pos_); }
  void SkipRest() { pos_ = data_.size(); }

  Status Error(std::string_view what) const {
    return Status::IOError("wire: truncated " + std::string(what));
  }

 private:
  bool ReadPod(void* out, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace lafp

#endif  // LAFP_COMMON_WIRE_H_
