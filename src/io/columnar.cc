#include "io/columnar.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "common/fault.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "dataframe/column.h"

namespace lafp::io {

namespace {

constexpr uint8_t kFlagDictEncoded = 1;
constexpr uint8_t kFlagWasCategory = 2;
constexpr size_t kTrailerBytes = 24;  // footer_len + footer_checksum + magic

struct ChunkMeta {
  uint64_t offset = 0;          // absolute file offset of validity/payload
  uint64_t validity_bytes = 0;  // 0 = chunk is all-valid
  uint64_t payload_bytes = 0;
  LfcZoneMap zone;
};

struct ColumnEntry {
  std::string name;
  df::DataType physical = df::DataType::kNull;
  bool dict_encoded = false;
  bool was_category = false;
  uint64_t dict_offset = 0;
  uint64_t dict_bytes = 0;
  uint32_t dict_count = 0;
  df::DictionaryPtr dict;  // decoded eagerly at Open
  std::vector<ChunkMeta> chunks;
};

uint64_t PayloadWidth(const ColumnEntry& col) {
  if (col.dict_encoded) return 4;  // uint32 dictionary codes
  switch (col.physical) {
    case df::DataType::kInt64:
    case df::DataType::kTimestamp:
    case df::DataType::kDouble:
      return 8;
    case df::DataType::kBool:
      return 1;
    default:
      return 0;
  }
}

template <typename T>
void AppendPod(std::string* buf, T v) {
  buf->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// Bounds-checked reader over a byte range; every length decoded from
/// disk is clamped against what is actually left before it is used.
class Cursor {
 public:
  Cursor(const uint8_t* data, size_t size) : p_(data), end_(data + size) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  template <typename T>
  bool Read(T* v) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(v, p_, sizeof(T));
    p_ += sizeof(T);
    return true;
  }

  bool ReadString(size_t n, std::string* out) {
    if (remaining() < n) return false;
    out->assign(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return true;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

/// Delete a partially written tmp file; a truncated LFC file must never
/// become visible at the final path (same discipline as spill writes).
Status FailWrite(std::ofstream* out, const std::string& tmp,
                 const Status& cause) {
  const int saved_errno = errno;
  out->close();
  std::error_code ec;
  std::filesystem::remove(tmp, ec);  // best effort; report the root cause
  if (!cause.ok()) return cause;
  std::string detail = "lfc write failed: " + tmp;
  if (saved_errno != 0) {
    detail += " (";
    detail += std::strerror(saved_errno);
    detail += ")";
  }
  return Status::IOError(detail);
}

LfcZoneMap ComputeZone(const df::Column& col, size_t r0, size_t r1) {
  LfcZoneMap z;
  for (size_t i = r0; i < r1; ++i) {
    if (!col.IsValid(i)) {
      ++z.null_count;
      continue;
    }
    switch (col.type()) {
      case df::DataType::kInt64:
      case df::DataType::kTimestamp: {
        const int64_t v = col.IntAt(i);
        if (!z.has_bounds || v < z.min_i) z.min_i = v;
        if (!z.has_bounds || v > z.max_i) z.max_i = v;
        z.has_bounds = true;
        break;
      }
      case df::DataType::kDouble: {
        const double v = col.DoubleAt(i);
        if (std::isnan(v)) break;  // NaN never satisfies a predicate
        if (!z.has_bounds || v < z.min_d) z.min_d = v;
        if (!z.has_bounds || v > z.max_d) z.max_d = v;
        z.has_bounds = true;
        break;
      }
      case df::DataType::kBool: {
        const int64_t v = col.BoolAt(i) ? 1 : 0;
        if (!z.has_bounds || v < z.min_i) z.min_i = v;
        if (!z.has_bounds || v > z.max_i) z.max_i = v;
        z.has_bounds = true;
        break;
      }
      default:
        break;  // dictionary columns carry no ordering bounds
    }
  }
  return z;
}

/// Mirror of kernels_compare.cc's double-space compare for the prune
/// decision over the interval [lo, hi] of a chunk's valid non-NaN
/// values. Returns true when NO value in the interval can satisfy `op`.
bool IntervalNeverMatches(df::CompareOp op, double lo, double hi, double r) {
  if (std::isnan(r)) {
    // x <op> NaN is false for everything except !=, which is true for
    // every valid non-NaN row — and a chunk reaching this point has one.
    return op != df::CompareOp::kNe;
  }
  switch (op) {
    case df::CompareOp::kEq:
      return r < lo || r > hi;
    case df::CompareOp::kNe:
      return lo == hi && lo == r;
    case df::CompareOp::kLt:
      return lo >= r;
    case df::CompareOp::kLe:
      return lo > r;
    case df::CompareOp::kGt:
      return hi <= r;
    case df::CompareOp::kGe:
      return hi < r;
  }
  return false;
}

bool IntervalNeverMatchesInt(df::CompareOp op, int64_t lo, int64_t hi,
                             int64_t r) {
  switch (op) {
    case df::CompareOp::kEq:
      return r < lo || r > hi;
    case df::CompareOp::kNe:
      return lo == hi && lo == r;
    case df::CompareOp::kLt:
      return lo >= r;
    case df::CompareOp::kLe:
      return lo > r;
    case df::CompareOp::kGt:
      return hi <= r;
    case df::CompareOp::kGe:
      return hi < r;
  }
  return false;
}

/// Zone-map verdict for one predicate against one chunk. `true` means
/// the chunk provably contains no matching row; every indeterminate
/// case (unknown type pairing the compare kernel would reject, parse
/// failures) conservatively keeps the chunk.
bool ChunkNeverMatches(const ColumnEntry& col, const ChunkMeta& chunk,
                       uint64_t rows, const LfcPredicate& p) {
  const LfcZoneMap& z = chunk.zone;
  if (p.scalar.is_null()) {
    // Compare-with-null: all-false, except != which is true exactly on
    // the valid rows (NaN included — the kernel's null-scalar branch
    // precedes its NaN check).
    if (p.op != df::CompareOp::kNe) return true;
    return z.null_count == rows;
  }
  // From here on null rows never match (the kernel skips them), so an
  // all-null chunk is prunable for every op and scalar type.
  if (z.null_count == rows) return true;

  if (col.dict_encoded) {
    // String/category semantics: lexical compare against a string
    // scalar; anything else is a TypeError the filter must surface.
    if (p.scalar.type() != df::DataType::kString) return false;
    const std::string& needle = p.scalar.string_value();
    const df::Dictionary& dict = *col.dict;
    if (p.op == df::CompareOp::kEq) {
      // File-level dictionary membership: a value absent from the
      // dictionary appears in no chunk.
      return std::find(dict.begin(), dict.end(), needle) == dict.end();
    }
    if (p.op == df::CompareOp::kNe) {
      // Prunable only when every valid value in the file equals needle.
      return dict.size() == 1 && dict[0] == needle;
    }
    return false;  // no ordering metadata for dictionary columns
  }

  if (!z.has_bounds) return true;  // every valid value is NaN

  if (col.physical == df::DataType::kTimestamp &&
      p.scalar.type() == df::DataType::kString) {
    // Timestamp vs string compares in exact int64 epoch space.
    auto ts = df::ParseTimestamp(p.scalar.string_value());
    if (!ts.ok()) return false;  // the kernel reports the parse error
    return IntervalNeverMatchesInt(p.op, z.min_i, z.max_i, *ts);
  }

  auto r = p.scalar.AsDouble();
  if (!r.ok()) return false;  // TypeError surfaces from the kernel
  double lo, hi;
  if (col.physical == df::DataType::kDouble) {
    lo = z.min_d;
    hi = z.max_d;
  } else {
    // int64/timestamp/bool compare as double in the kernel; the cast is
    // monotonic, so the cast bounds bound every cast value.
    lo = static_cast<double>(z.min_i);
    hi = static_cast<double>(z.max_i);
  }
  return IntervalNeverMatches(p.op, lo, hi, *r);
}

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IOError("corrupt lfc file " + path + ": " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

Status WriteLfcFile(const df::DataFrame& frame, const std::string& path,
                    const LfcWriteOptions& options) {
  trace::Span span("lfc:write", "io");
  if (span.active()) {
    span.AddArg("rows", static_cast<int64_t>(frame.num_rows()));
  }
  static auto* lfc_writes =
      metrics::Registry::Global()->GetCounter("lfc.writes");
  lfc_writes->Increment();

  const size_t chunk_rows = options.chunk_rows == 0 ? 65536
                                                    : options.chunk_rows;
  const size_t nrows = frame.num_rows();
  const size_t ncols = frame.num_columns();
  const size_t nchunks = nrows == 0 ? 0 : (nrows + chunk_rows - 1) / chunk_rows;

  // Per-column encodings. String columns dictionary-encode into
  // first-appearance order; category columns keep their codes and
  // dictionary verbatim so a round trip is exact.
  std::vector<ColumnEntry> metas(ncols);
  std::vector<std::vector<uint32_t>> codes(ncols);
  std::vector<const df::Dictionary*> dicts(ncols, nullptr);
  std::vector<df::Dictionary> built_dicts(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const df::Column& col = *frame.column(c);
    ColumnEntry& m = metas[c];
    m.name = frame.names()[c];
    m.physical = col.type();
    switch (col.type()) {
      case df::DataType::kNull:
        return Status::Invalid("cannot write a null-typed column to lfc: " +
                               m.name);
      case df::DataType::kString: {
        m.dict_encoded = true;
        std::unordered_map<std::string, uint32_t> index;
        codes[c].resize(col.size(), 0);
        for (size_t i = 0; i < col.size(); ++i) {
          if (!col.IsValid(i)) continue;
          auto [it, inserted] = index.emplace(
              col.StringAt(i), static_cast<uint32_t>(built_dicts[c].size()));
          if (inserted) built_dicts[c].push_back(col.StringAt(i));
          codes[c][i] = it->second;
        }
        dicts[c] = &built_dicts[c];
        break;
      }
      case df::DataType::kCategory: {
        m.dict_encoded = true;
        m.was_category = true;
        const df::Dictionary& dict = *col.dictionary();
        codes[c].resize(col.size(), 0);
        for (size_t i = 0; i < col.size(); ++i) {
          const int32_t code = col.CodeAt(i);
          if (!col.IsValid(i)) continue;
          if (code < 0 || static_cast<size_t>(code) >= dict.size()) {
            return Status::Invalid("category code out of range in column " +
                                   m.name);
          }
          codes[c][i] = static_cast<uint32_t>(code);
        }
        dicts[c] = &dict;
        break;
      }
      default:
        break;
    }
    if (dicts[c] != nullptr) {
      m.dict_count = static_cast<uint32_t>(dicts[c]->size());
    }
  }

  const std::string tmp = path + ".tmp";
  errno = 0;
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot create lfc file " + tmp);
  }
  uint64_t pos = 0;
  auto write_raw = [&](const void* data, size_t n) {
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(n));
    pos += n;
  };
  write_raw(&kLfcMagic, sizeof(kLfcMagic));

  // ---- chunk data section ----
  for (size_t chunk = 0; chunk < nchunks; ++chunk) {
    const size_t r0 = chunk * chunk_rows;
    const size_t r1 = std::min(nrows, r0 + chunk_rows);
    const size_t n = r1 - r0;
    for (size_t c = 0; c < ncols; ++c) {
      // ENOSPC/EIO injection, once per column-chunk so a fault lands
      // mid-file — the partial-write shape a full disk produces.
      Status injected = FaultPoint("lfc.write");
      if (!injected.ok()) return FailWrite(&out, tmp, injected);
      const df::Column& col = *frame.column(c);
      ChunkMeta cm;
      cm.offset = pos;
      cm.zone = ComputeZone(col, r0, r1);
      if (cm.zone.null_count > 0) {
        std::vector<uint8_t> bitmap((n + 7) / 8, 0);
        for (size_t i = 0; i < n; ++i) {
          if (col.IsValid(r0 + i)) bitmap[i / 8] |= uint8_t(1u << (i % 8));
        }
        cm.validity_bytes = bitmap.size();
        write_raw(bitmap.data(), bitmap.size());
      }
      switch (col.type()) {
        case df::DataType::kInt64:
        case df::DataType::kTimestamp:
          cm.payload_bytes = n * 8;
          write_raw(col.ints().data() + r0, n * 8);
          break;
        case df::DataType::kDouble:
          cm.payload_bytes = n * 8;
          write_raw(col.doubles().data() + r0, n * 8);
          break;
        case df::DataType::kBool:
          cm.payload_bytes = n;
          write_raw(col.bools().data() + r0, n);
          break;
        case df::DataType::kString:
        case df::DataType::kCategory:
          cm.payload_bytes = n * 4;
          write_raw(codes[c].data() + r0, n * 4);
          break;
        case df::DataType::kNull:
          break;  // rejected above
      }
      if (!out.good()) return FailWrite(&out, tmp, Status::OK());
      metas[c].chunks.push_back(cm);
    }
  }

  // ---- dictionary section ----
  for (size_t c = 0; c < ncols; ++c) {
    if (dicts[c] == nullptr) continue;
    metas[c].dict_offset = pos;
    for (const std::string& s : *dicts[c]) {
      const uint32_t len = static_cast<uint32_t>(s.size());
      write_raw(&len, sizeof(len));
      write_raw(s.data(), s.size());
    }
    metas[c].dict_bytes = pos - metas[c].dict_offset;
    if (!out.good()) return FailWrite(&out, tmp, Status::OK());
  }

  // ---- footer + trailer ----
  std::string footer;
  AppendPod(&footer, kLfcVersion);
  AppendPod(&footer, static_cast<uint64_t>(nrows));
  AppendPod(&footer, static_cast<uint64_t>(chunk_rows));
  AppendPod(&footer, static_cast<uint32_t>(ncols));
  AppendPod(&footer, static_cast<uint32_t>(nchunks));
  for (size_t chunk = 0; chunk < nchunks; ++chunk) {
    const size_t r0 = chunk * chunk_rows;
    AppendPod(&footer,
              static_cast<uint64_t>(std::min(nrows, r0 + chunk_rows) - r0));
  }
  for (const ColumnEntry& m : metas) {
    AppendPod(&footer, static_cast<uint32_t>(m.name.size()));
    footer += m.name;
    AppendPod(&footer, static_cast<uint8_t>(m.physical));
    uint8_t flags = 0;
    if (m.dict_encoded) flags |= kFlagDictEncoded;
    if (m.was_category) flags |= kFlagWasCategory;
    AppendPod(&footer, flags);
    if (m.dict_encoded) {
      AppendPod(&footer, m.dict_offset);
      AppendPod(&footer, m.dict_bytes);
      AppendPod(&footer, m.dict_count);
    }
    for (const ChunkMeta& cm : m.chunks) {
      AppendPod(&footer, cm.offset);
      AppendPod(&footer, cm.validity_bytes);
      AppendPod(&footer, cm.payload_bytes);
      AppendPod(&footer, cm.zone.null_count);
      AppendPod(&footer, static_cast<uint8_t>(cm.zone.has_bounds ? 1 : 0));
      AppendPod(&footer, cm.zone.min_i);
      AppendPod(&footer, cm.zone.max_i);
      AppendPod(&footer, cm.zone.min_d);
      AppendPod(&footer, cm.zone.max_d);
    }
  }
  Status injected = FaultPoint("lfc.write");
  if (!injected.ok()) return FailWrite(&out, tmp, injected);
  write_raw(footer.data(), footer.size());
  const uint64_t footer_len = footer.size();
  const uint64_t footer_checksum = Fnv1a64(footer.data(), footer.size());
  write_raw(&footer_len, sizeof(footer_len));
  write_raw(&footer_checksum, sizeof(footer_checksum));
  write_raw(&kLfcMagic, sizeof(kLfcMagic));
  out.flush();
  if (!out.good()) return FailWrite(&out, tmp, Status::OK());
  out.close();

  // Atomic publish: the final path only ever holds a complete file.
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::IOError("cannot publish lfc file " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct LfcReader::Impl {
  void* map = MAP_FAILED;
  size_t map_size = 0;
  std::vector<ColumnEntry> cols;

  ~Impl() {
    if (map != MAP_FAILED) ::munmap(map, map_size);
  }

  const uint8_t* base() const { return static_cast<const uint8_t*>(map); }
};

LfcReader::LfcReader() : impl_(new Impl) {}
LfcReader::~LfcReader() = default;

bool IsLfcFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return false;
  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  return in.gcount() == sizeof(magic) && magic == kLfcMagic;
}

Result<std::unique_ptr<LfcReader>> LfcReader::Open(const std::string& path,
                                                   MemoryTracker* tracker) {
  LAFP_RETURN_NOT_OK(FaultPoint("lfc.read"));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open lfc file " + path + " (" +
                           std::strerror(errno) + ")");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat lfc file " + path);
  }
  const size_t file_size = static_cast<size_t>(st.st_size);
  if (file_size < sizeof(kLfcMagic) + kTrailerBytes) {
    ::close(fd);
    return Corrupt(path, "file too small for header and trailer");
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("cannot mmap lfc file " + path + " (" +
                           std::strerror(errno) + ")");
  }

  std::unique_ptr<LfcReader> reader(new LfcReader());
  reader->impl_->map = map;
  reader->impl_->map_size = file_size;
  reader->path_ = path;
  reader->tracker_ = tracker;
  const uint8_t* base = reader->impl_->base();

  uint64_t head_magic = 0;
  std::memcpy(&head_magic, base, sizeof(head_magic));
  if (head_magic != kLfcMagic) return Corrupt(path, "bad magic");

  // Trailer: footer_len | footer_checksum | magic at the very end.
  uint64_t footer_len = 0, footer_checksum = 0, tail_magic = 0;
  const uint8_t* trailer = base + file_size - kTrailerBytes;
  std::memcpy(&footer_len, trailer, 8);
  std::memcpy(&footer_checksum, trailer + 8, 8);
  std::memcpy(&tail_magic, trailer + 16, 8);
  if (tail_magic != kLfcMagic) return Corrupt(path, "bad trailer magic");
  const uint64_t max_footer =
      file_size - sizeof(kLfcMagic) - kTrailerBytes;
  if (footer_len > max_footer) {
    return Corrupt(path, "footer length " + std::to_string(footer_len) +
                             " exceeds file size");
  }
  const uint64_t footer_start = file_size - kTrailerBytes - footer_len;
  if (Fnv1a64(base + footer_start, footer_len) != footer_checksum) {
    return Corrupt(path, "footer checksum mismatch");
  }
  reader->info_.footer_checksum = footer_checksum;

  Cursor cur(base + footer_start, footer_len);
  uint32_t version = 0, ncols = 0, nchunks = 0;
  uint64_t nrows = 0, nominal_chunk_rows = 0;
  if (!cur.Read(&version) || !cur.Read(&nrows) ||
      !cur.Read(&nominal_chunk_rows) || !cur.Read(&ncols) ||
      !cur.Read(&nchunks)) {
    return Corrupt(path, "truncated footer header");
  }
  if (version != kLfcVersion) {
    return Status::IOError("unsupported lfc version " +
                           std::to_string(version) + " in " + path);
  }
  // Every chunk row count is a u64 and every column needs at least its
  // name length + type + flags; clamp both counts before any loop.
  if (nchunks > cur.remaining() / 8) {
    return Corrupt(path, "chunk count exceeds footer size");
  }
  reader->chunk_rows_.resize(nchunks);
  uint64_t rows_sum = 0;
  for (uint32_t i = 0; i < nchunks; ++i) {
    if (!cur.Read(&reader->chunk_rows_[i])) {
      return Corrupt(path, "truncated chunk table");
    }
    if (reader->chunk_rows_[i] == 0 || reader->chunk_rows_[i] > nrows) {
      return Corrupt(path, "chunk row count out of range");
    }
    // Overflow-safe accumulation: huge per-chunk counts must not wrap
    // rows_sum back onto nrows and launder themselves through the sum
    // check below.
    if (reader->chunk_rows_[i] > nrows - rows_sum) {
      return Corrupt(path, "chunk rows exceed row count");
    }
    rows_sum += reader->chunk_rows_[i];
  }
  if (rows_sum != nrows) {
    return Corrupt(path, "chunk rows do not sum to row count");
  }
  if (ncols == 0 && nrows != 0) {
    // The writer only emits chunks for frames with columns; without this
    // a column-less footer could claim an arbitrary row count that no
    // per-chunk payload check below would ever bound.
    return Corrupt(path, "row count without columns");
  }
  if (ncols > cur.remaining() / 6) {
    return Corrupt(path, "column count exceeds footer size");
  }

  reader->info_.nrows = nrows;
  reader->info_.num_chunks = nchunks;
  reader->impl_->cols.resize(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    ColumnEntry& col = reader->impl_->cols[c];
    uint32_t name_len = 0;
    if (!cur.Read(&name_len) || name_len > cur.remaining() ||
        !cur.ReadString(name_len, &col.name)) {
      return Corrupt(path, "truncated column name");
    }
    uint8_t type_raw = 0, flags = 0;
    if (!cur.Read(&type_raw) || !cur.Read(&flags)) {
      return Corrupt(path, "truncated column meta");
    }
    col.physical = static_cast<df::DataType>(type_raw);
    col.dict_encoded = (flags & kFlagDictEncoded) != 0;
    col.was_category = (flags & kFlagWasCategory) != 0;
    switch (col.physical) {
      case df::DataType::kInt64:
      case df::DataType::kTimestamp:
      case df::DataType::kDouble:
      case df::DataType::kBool:
        if (col.dict_encoded) {
          return Corrupt(path, "dictionary flag on numeric column");
        }
        break;
      case df::DataType::kString:
      case df::DataType::kCategory:
        if (!col.dict_encoded) {
          return Corrupt(path, "string column without dictionary");
        }
        break;
      default:
        return Corrupt(path, "bad column type");
    }
    if (col.dict_encoded) {
      if (!cur.Read(&col.dict_offset) || !cur.Read(&col.dict_bytes) ||
          !cur.Read(&col.dict_count)) {
        return Corrupt(path, "truncated dictionary meta");
      }
      if (col.dict_offset > footer_start ||
          col.dict_bytes > footer_start - col.dict_offset) {
        return Corrupt(path, "dictionary extends past data section");
      }
      if (col.dict_count > col.dict_bytes / 4 + 1) {
        return Corrupt(path, "dictionary count exceeds its byte length");
      }
      // Decode the dictionary eagerly; entry lengths are clamped against
      // the remaining dictionary bytes ("over-long offsets" corpus).
      auto dict = std::make_shared<df::Dictionary>();
      Cursor dcur(base + col.dict_offset, col.dict_bytes);
      for (uint32_t i = 0; i < col.dict_count; ++i) {
        uint32_t len = 0;
        std::string entry;
        if (!dcur.Read(&len) || len > dcur.remaining() ||
            !dcur.ReadString(len, &entry)) {
          return Corrupt(path, "truncated dictionary entry");
        }
        dict->push_back(std::move(entry));
      }
      if (dcur.remaining() != 0) {
        return Corrupt(path, "trailing bytes in dictionary");
      }
      col.dict = std::move(dict);
    }
    const uint64_t width = PayloadWidth(col);
    col.chunks.resize(nchunks);
    for (uint32_t i = 0; i < nchunks; ++i) {
      ChunkMeta& cm = col.chunks[i];
      uint8_t has_bounds = 0;
      if (!cur.Read(&cm.offset) || !cur.Read(&cm.validity_bytes) ||
          !cur.Read(&cm.payload_bytes) || !cur.Read(&cm.zone.null_count) ||
          !cur.Read(&has_bounds) || !cur.Read(&cm.zone.min_i) ||
          !cur.Read(&cm.zone.max_i) || !cur.Read(&cm.zone.min_d) ||
          !cur.Read(&cm.zone.max_d)) {
        return Corrupt(path, "truncated chunk meta");
      }
      cm.zone.has_bounds = has_bounds != 0;
      const uint64_t rows = reader->chunk_rows_[i];
      // The chunk's bytes must lie entirely inside the data section
      // (between the head magic and the footer), checked without
      // overflow: each length is clamped against what is left.
      if (cm.offset < sizeof(kLfcMagic) || cm.offset > footer_start ||
          cm.validity_bytes > footer_start - cm.offset ||
          cm.payload_bytes >
              footer_start - cm.offset - cm.validity_bytes) {
        return Corrupt(path, "chunk extends past data section");
      }
      // Bound the row count in division form BEFORE any arithmetic on
      // it: a crafted `rows` near 2^64/width would wrap `rows * width`
      // (and `rows + 7`) and make a zero-byte chunk claim to hold 2^61
      // rows, sending the decoder far past the mapping. `width` is 1, 4,
      // or 8 for every column type accepted above.
      const uint64_t payload_room =
          footer_start - cm.offset - cm.validity_bytes;
      if (rows > payload_room / width) {
        return Corrupt(path, "chunk row count exceeds data section");
      }
      if (cm.validity_bytes != 0 && cm.validity_bytes != (rows + 7) / 8) {
        return Corrupt(path, "validity bitmap size mismatch");
      }
      if (cm.payload_bytes != rows * width) {
        return Corrupt(path, "payload size mismatch");
      }
      if (cm.zone.null_count > rows) {
        return Corrupt(path, "null count exceeds chunk rows");
      }
    }
    reader->info_.columns.push_back(
        {col.name, col.was_category ? df::DataType::kCategory
         : col.physical == df::DataType::kCategory ? df::DataType::kString
                                                   : col.physical});
  }
  if (cur.remaining() != 0) {
    return Corrupt(path, "trailing bytes in footer");
  }
  return reader;
}

const LfcZoneMap& LfcReader::zone_map(size_t col, size_t chunk) const {
  return impl_->cols[col].chunks[chunk].zone;
}

Result<std::vector<size_t>> LfcReader::SelectColumns(
    const std::vector<std::string>& usecols) const {
  std::vector<size_t> out;
  if (usecols.empty()) {
    out.resize(impl_->cols.size());
    for (size_t i = 0; i < out.size(); ++i) out[i] = i;
    return out;
  }
  for (const auto& want : usecols) {
    bool found = false;
    for (size_t i = 0; i < impl_->cols.size(); ++i) {
      if (impl_->cols[i].name == want) {
        out.push_back(i);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::KeyError("usecols: no column '" + want + "' in '" +
                              path_ + "'");
    }
  }
  // pandas usecols keeps file order, matching the CSV reader.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool LfcReader::ChunkMayMatch(size_t chunk,
                              const std::vector<LfcPredicate>& prune) const {
  const uint64_t rows = chunk_rows_[chunk];
  for (const LfcPredicate& p : prune) {
    for (const ColumnEntry& col : impl_->cols) {
      if (col.name != p.column) continue;
      if (ChunkNeverMatches(col, col.chunks[chunk], rows, p)) return false;
      break;
    }
    // Unknown columns fall through as indeterminate: the filter's own
    // column lookup reports the KeyError, exactly as without pruning.
  }
  return true;
}

namespace {

/// Decode `take` rows of one column chunk, appending into caller-owned
/// typed vectors (so multi-chunk assembly is one allocation per column).
struct ColumnAssembly {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  std::vector<int32_t> codes;
  std::vector<std::string> strings;
  std::vector<uint8_t> validity;
  bool saw_invalid = false;
};

Status DecodeChunkInto(const std::string& path, const ColumnEntry& col,
                       const ChunkMeta& cm, const uint8_t* base,
                       uint64_t take, ColumnAssembly* out) {
  // Validity first: bits are LSB-first within each byte.
  std::vector<uint8_t> valid;
  if (cm.validity_bytes != 0) {
    valid.resize(take);
    const uint8_t* bitmap = base + cm.offset;
    for (uint64_t i = 0; i < take; ++i) {
      valid[i] = (bitmap[i / 8] >> (i % 8)) & 1;
      if (valid[i] == 0) out->saw_invalid = true;
    }
  }
  const uint8_t* payload = base + cm.offset + cm.validity_bytes;
  const size_t prior = out->validity.size();
  out->validity.resize(prior + take, 1);
  if (!valid.empty()) {
    std::copy(valid.begin(), valid.end(), out->validity.begin() + prior);
  }
  switch (col.physical) {
    case df::DataType::kInt64:
    case df::DataType::kTimestamp: {
      const size_t at = out->ints.size();
      out->ints.resize(at + take);
      std::memcpy(out->ints.data() + at, payload, take * 8);
      break;
    }
    case df::DataType::kDouble: {
      const size_t at = out->doubles.size();
      out->doubles.resize(at + take);
      std::memcpy(out->doubles.data() + at, payload, take * 8);
      break;
    }
    case df::DataType::kBool: {
      const size_t at = out->bools.size();
      out->bools.resize(at + take);
      std::memcpy(out->bools.data() + at, payload, take);
      break;
    }
    case df::DataType::kString:
    case df::DataType::kCategory: {
      const df::Dictionary& dict = *col.dict;
      for (uint64_t i = 0; i < take; ++i) {
        uint32_t code = 0;
        std::memcpy(&code, payload + i * 4, 4);
        const bool is_valid = valid.empty() || valid[i] != 0;
        if (is_valid && code >= col.dict_count) {
          return Corrupt(path, "dictionary code out of range");
        }
        if (!is_valid) code = 0;  // never dereference a null row's code
        if (col.was_category) {
          out->codes.push_back(static_cast<int32_t>(code));
        } else {
          out->strings.push_back(is_valid ? dict[code] : std::string());
        }
      }
      break;
    }
    case df::DataType::kNull:
      return Corrupt(path, "bad column type");
  }
  return Status::OK();
}

Result<df::ColumnPtr> FinishAssembly(const ColumnEntry& col,
                                     ColumnAssembly&& a,
                                     MemoryTracker* tracker) {
  std::vector<uint8_t> validity;
  if (a.saw_invalid) validity = std::move(a.validity);
  switch (col.physical) {
    case df::DataType::kInt64:
      return df::Column::MakeInt(std::move(a.ints), std::move(validity),
                                 tracker);
    case df::DataType::kTimestamp:
      return df::Column::MakeTimestamp(std::move(a.ints),
                                       std::move(validity), tracker);
    case df::DataType::kDouble:
      return df::Column::MakeDouble(std::move(a.doubles),
                                    std::move(validity), tracker);
    case df::DataType::kBool:
      return df::Column::MakeBool(std::move(a.bools), std::move(validity),
                                  tracker);
    case df::DataType::kString:
    case df::DataType::kCategory:
      if (col.was_category) {
        return df::Column::MakeCategory(std::move(a.codes),
                                        std::move(validity), col.dict,
                                        tracker);
      }
      return df::Column::MakeString(std::move(a.strings),
                                    std::move(validity), tracker);
    default:
      return Status::Invalid("bad lfc column type");
  }
}

}  // namespace

Result<df::DataFrame> LfcReader::ReadChunk(size_t chunk,
                                           const std::vector<size_t>& col_idxs,
                                           size_t limit) const {
  const uint64_t rows = chunk_rows_[chunk];
  const uint64_t take =
      limit == 0 ? rows : std::min<uint64_t>(rows, limit);
  std::vector<std::string> names;
  std::vector<df::ColumnPtr> cols;
  for (size_t idx : col_idxs) {
    const ColumnEntry& col = impl_->cols[idx];
    ColumnAssembly a;
    LAFP_RETURN_NOT_OK(DecodeChunkInto(path_, col, col.chunks[chunk],
                                       impl_->base(), take, &a));
    LAFP_ASSIGN_OR_RETURN(df::ColumnPtr built,
                          FinishAssembly(col, std::move(a), tracker_));
    names.push_back(col.name);
    cols.push_back(std::move(built));
  }
  return df::DataFrame::Make(std::move(names), std::move(cols));
}

Result<df::DataFrame> LfcReader::EmptyFrame(
    const std::vector<size_t>& col_idxs) const {
  std::vector<std::string> names;
  std::vector<df::ColumnPtr> cols;
  for (size_t idx : col_idxs) {
    const ColumnEntry& col = impl_->cols[idx];
    LAFP_ASSIGN_OR_RETURN(df::ColumnPtr built,
                          FinishAssembly(col, ColumnAssembly{}, tracker_));
    names.push_back(col.name);
    cols.push_back(std::move(built));
  }
  return df::DataFrame::Make(std::move(names), std::move(cols));
}

std::vector<LfcSlice> LfcReader::Slices(const LfcReadOptions& options,
                                        LfcReadStats* stats) const {
  trace::Span span("lfc:slices", "io");
  static auto* lfc_skipped =
      metrics::Registry::Global()->GetCounter("lfc.chunks_skipped");
  const bool pruning = options.prune_enabled && !options.prune.empty();
  std::vector<LfcSlice> slices;
  uint64_t remaining = options.nrows == 0
                           ? std::numeric_limits<uint64_t>::max()
                           : options.nrows;
  size_t total = 0, skipped = 0;
  for (size_t chunk = 0; chunk < num_chunks() && remaining > 0; ++chunk) {
    const uint64_t take = std::min<uint64_t>(chunk_rows_[chunk], remaining);
    remaining -= take;
    ++total;
    if (pruning && !ChunkMayMatch(chunk, options.prune)) {
      ++skipped;
      continue;
    }
    slices.push_back({chunk, take});
  }
  if (stats != nullptr) {
    stats->chunks_total = total;
    stats->chunks_skipped = skipped;
  }
  lfc_skipped->Add(static_cast<int64_t>(skipped));
  if (span.active()) {
    span.AddArg("chunks", static_cast<int64_t>(total));
    span.AddArg("skipped", static_cast<int64_t>(skipped));
  }
  return slices;
}

Result<df::DataFrame> ReadLfcFile(const std::string& path,
                                  const LfcReadOptions& options,
                                  MemoryTracker* tracker,
                                  LfcReadStats* stats) {
  trace::Span span("lfc:read", "io");
  static auto* lfc_reads =
      metrics::Registry::Global()->GetCounter("lfc.reads");
  lfc_reads->Increment();
  LAFP_ASSIGN_OR_RETURN(auto reader, LfcReader::Open(path, tracker));
  LAFP_ASSIGN_OR_RETURN(std::vector<size_t> sel,
                        reader->SelectColumns(options.usecols));
  const std::vector<LfcSlice> slices = reader->Slices(options, stats);

  if (slices.empty()) return reader->EmptyFrame(sel);
  if (slices.size() == 1) {
    return reader->ReadChunk(slices[0].chunk, sel,
                             static_cast<size_t>(slices[0].rows));
  }
  // Multi-chunk assembly: one pass per column over the surviving
  // slices, one allocation per column.
  std::vector<std::string> names;
  std::vector<df::ColumnPtr> cols;
  for (size_t idx : sel) {
    df::ColumnPtr built;
    LAFP_ASSIGN_OR_RETURN(
        built, [&]() -> Result<df::ColumnPtr> {
          ColumnAssembly a;
          const ColumnEntry& col = reader->impl_->cols[idx];
          for (const LfcSlice& s : slices) {
            LAFP_RETURN_NOT_OK(DecodeChunkInto(path, col,
                                               col.chunks[s.chunk],
                                               reader->impl_->base(), s.rows,
                                               &a));
          }
          return FinishAssembly(col, std::move(a), tracker);
        }());
    names.push_back(reader->impl_->cols[idx].name);
    cols.push_back(std::move(built));
  }
  return df::DataFrame::Make(std::move(names), std::move(cols));
}

Result<LfcFileInfo> ReadLfcInfo(const std::string& path) {
  LAFP_ASSIGN_OR_RETURN(auto reader, LfcReader::Open(path, nullptr));
  return reader->info();
}

Status ConvertCsvToLfc(const std::string& csv_path,
                       const std::string& lfc_path,
                       const CsvReadOptions& csv_options,
                       const LfcWriteOptions& options,
                       MemoryTracker* tracker) {
  LAFP_ASSIGN_OR_RETURN(df::DataFrame frame,
                        ReadCsv(csv_path, csv_options, tracker));
  return WriteLfcFile(frame, lfc_path, options);
}

}  // namespace lafp::io
