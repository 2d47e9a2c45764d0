#include "common/wire.h"

#include <cstring>

namespace lafp {

bool WireReader::ReadPod(void* out, size_t n) {
  if (remaining() < n) return false;
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool WireReader::U8(uint8_t* out) { return ReadPod(out, 1); }
bool WireReader::U32(uint32_t* out) { return ReadPod(out, 4); }
bool WireReader::U64(uint64_t* out) { return ReadPod(out, 8); }
bool WireReader::I64(int64_t* out) { return ReadPod(out, 8); }
bool WireReader::F64(double* out) { return ReadPod(out, 8); }

bool WireReader::Str(std::string* out) {
  uint32_t len = 0;
  if (!U32(&len)) return false;
  if (remaining() < len) return false;
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

}  // namespace lafp
