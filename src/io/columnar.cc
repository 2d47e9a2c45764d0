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
#include <mutex>

#include "common/fault.h"
#include "common/hash.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/wire.h"
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
  df::DictionaryPtr dict;  // the writer's, or a reader's (Impl::DecodeDict)
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

/// Where the one encoder's bytes go: a string (EncodeLfc) or a tmp file
/// (WriteLfcFile).
class Sink {
 public:
  virtual ~Sink() = default;
  void Append(const void* data, size_t n) {
    Write(static_cast<const char*>(data), n);
    pos_ += n;
  }
  void Append(const std::string& bytes) { Append(bytes.data(), bytes.size()); }
  /// Runs before each column-chunk and before the footer.
  virtual Status Check() { return Status::OK(); }
  uint64_t pos() const { return pos_; }

 private:
  virtual void Write(const char* data, size_t n) = 0;
  uint64_t pos_ = 0;
};

class StringSink final : public Sink {
 public:
  std::string bytes;

 private:
  void Write(const char* data, size_t n) override { bytes.append(data, n); }
};

class FileSink final : public Sink {
 public:
  explicit FileSink(const std::string& path)
      : path_(path), out_(path, std::ios::binary | std::ios::trunc) {}

  bool is_open() const { return out_.is_open(); }

  /// ENOSPC/EIO injection, once per column-chunk so a fault lands
  /// mid-file — the partial-write shape a full disk produces — then the
  /// stream's own state.
  Status Check() override {
    LAFP_RETURN_NOT_OK(FaultPoint("lfc.write"));
    return StreamStatus();
  }

  Status Close() {
    out_.flush();
    LAFP_RETURN_NOT_OK(StreamStatus());
    out_.close();
    return Status::OK();
  }

 private:
  void Write(const char* data, size_t n) override {
    out_.write(data, static_cast<std::streamsize>(n));
  }

  Status StreamStatus() const {
    if (out_.good()) return Status::OK();
    std::string detail = "lfc write failed: " + path_;
    if (errno != 0) {
      detail += " (";
      detail += std::strerror(errno);
      detail += ")";
    }
    return Status::IOError(detail);
  }

  std::string path_;
  std::ofstream out_;
};

LfcZoneMap ComputeZone(const df::Column& col, size_t r0, size_t r1) {
  LfcZoneMap z;
  const uint8_t* valid = col.validity_data();
  // Min/max over the valid rows whose value `skip` keeps.
  auto bounds = [&](auto value, auto skip, auto* lo, auto* hi) {
    for (size_t i = r0; i < r1; ++i) {
      if (valid != nullptr && valid[i] == 0) {
        ++z.null_count;
        continue;
      }
      const auto v = value(i);
      if (skip(v)) continue;
      if (!z.has_bounds || v < *lo) *lo = v;
      if (!z.has_bounds || v > *hi) *hi = v;
      z.has_bounds = true;
    }
  };
  auto keep = [](auto) { return false; };
  switch (col.type()) {
    case df::DataType::kInt64:
    case df::DataType::kTimestamp: {
      const int64_t* v = col.int_data();
      bounds([v](size_t i) { return v[i]; }, keep, &z.min_i, &z.max_i);
      break;
    }
    case df::DataType::kDouble: {
      // NaN never satisfies a predicate.
      const double* v = col.double_data();
      bounds([v](size_t i) { return v[i]; },
             [](double d) { return std::isnan(d); }, &z.min_d, &z.max_d);
      break;
    }
    case df::DataType::kBool: {
      const uint8_t* v = col.bool_data();
      bounds([v](size_t i) { return int64_t{v[i] != 0}; }, keep, &z.min_i,
             &z.max_i);
      break;
    }
    default:  // dictionary columns carry no ordering bounds
      for (size_t i = r0; i < r1 && valid != nullptr; ++i) {
        z.null_count += valid[i] == 0;
      }
      break;
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

/// `source` names the bytes: "lfc file <path>" or "lfc bytes (<what>)".
Status Corrupt(const std::string& source, const std::string& what) {
  return Status::IOError("corrupt " + source + ": " + what);
}

/// Raw chunk payload of `col`; dictionary columns write `codes`.
const char* PayloadData(const df::Column& col,
                        const std::vector<int32_t>& codes) {
  switch (col.type()) {
    case df::DataType::kInt64:
    case df::DataType::kTimestamp:
      return reinterpret_cast<const char*>(col.int_data());
    case df::DataType::kDouble:
      return reinterpret_cast<const char*>(col.double_data());
    case df::DataType::kBool:
      return reinterpret_cast<const char*>(col.bool_data());
    default:
      return reinterpret_cast<const char*>(codes.data());
  }
}

/// The one LFC encoder: files, spill files and exchange payloads.
Status Encode(const df::DataFrame& frame, const LfcWriteOptions& options,
              Sink* sink) {
  const size_t chunk_rows = options.chunk_rows == 0 ? 65536
                                                    : options.chunk_rows;
  const size_t nrows = frame.num_rows();
  const size_t ncols = frame.num_columns();
  const size_t nchunks = nrows == 0 ? 0 : (nrows + chunk_rows - 1) / chunk_rows;

  // Per-column encodings. String columns dictionary-encode into
  // first-appearance order (df::FactorizeStrings); category columns keep
  // their codes and dictionary verbatim so a round trip is exact.
  std::vector<ColumnEntry> metas(ncols);
  std::vector<std::vector<int32_t>> codes(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    const df::Column& col = *frame.column(c);
    ColumnEntry& m = metas[c];
    m.name = frame.names()[c];
    m.physical = col.type();
    if (col.type() == df::DataType::kNull) {
      return Status::Invalid("cannot write a null-typed column to lfc: " +
                             m.name);
    }
    if (col.type() == df::DataType::kString) {
      m.dict = df::FactorizeStrings(col, &codes[c]);
    } else if (col.type() == df::DataType::kCategory) {
      m.was_category = true;
      m.dict = col.dictionary();
      codes[c].assign(col.size(), 0);  // a null row writes code 0
      for (size_t i = 0; i < col.size(); ++i) {
        if (!col.IsValid(i)) continue;
        const int32_t code = col.CodeAt(i);
        if (code < 0 || static_cast<size_t>(code) >= m.dict->size()) {
          return Status::Invalid("category code out of range in column " +
                                 m.name);
        }
        codes[c][i] = code;
      }
    }
    m.dict_encoded = m.dict != nullptr;
    if (m.dict_encoded) m.dict_count = static_cast<uint32_t>(m.dict->size());
  }

  sink->Append(&kLfcMagic, sizeof(kLfcMagic));

  // ---- chunk data section ----
  std::vector<uint8_t> bitmap;
  for (size_t chunk = 0; chunk < nchunks; ++chunk) {
    const size_t r0 = chunk * chunk_rows;
    const size_t r1 = std::min(nrows, r0 + chunk_rows);
    const size_t n = r1 - r0;
    for (size_t c = 0; c < ncols; ++c) {
      LAFP_RETURN_NOT_OK(sink->Check());
      const df::Column& col = *frame.column(c);
      ChunkMeta cm;
      cm.offset = sink->pos();
      cm.zone = ComputeZone(col, r0, r1);
      if (cm.zone.null_count > 0) {
        bitmap.assign((n + 7) / 8, 0);
        for (size_t i = 0; i < n; ++i) {
          if (col.IsValid(r0 + i)) bitmap[i / 8] |= uint8_t(1u << (i % 8));
        }
        cm.validity_bytes = bitmap.size();
        sink->Append(bitmap.data(), bitmap.size());
      }
      const uint64_t width = PayloadWidth(metas[c]);
      cm.payload_bytes = n * width;
      sink->Append(PayloadData(col, codes[c]) + r0 * width, n * width);
      metas[c].chunks.push_back(cm);
    }
  }

  // ---- dictionary section ----
  for (ColumnEntry& m : metas) {
    if (!m.dict_encoded) continue;
    WireWriter entries;
    for (const std::string& s : *m.dict) entries.Str(s);
    m.dict_offset = sink->pos();
    m.dict_bytes = entries.size();
    sink->Append(entries.Take());
  }

  // ---- footer + trailer ----
  WireWriter footer;
  footer.U32(kLfcVersion);
  footer.U64(nrows);
  footer.U64(chunk_rows);
  footer.U32(static_cast<uint32_t>(ncols));
  footer.U32(static_cast<uint32_t>(nchunks));
  for (size_t chunk = 0; chunk < nchunks; ++chunk) {
    footer.U64(std::min(nrows, (chunk + 1) * chunk_rows) - chunk * chunk_rows);
  }
  for (const ColumnEntry& m : metas) {
    footer.Str(m.name);
    footer.U8(static_cast<uint8_t>(m.physical));
    footer.U8((m.dict_encoded ? kFlagDictEncoded : 0) |
              (m.was_category ? kFlagWasCategory : 0));
    if (m.dict_encoded) {
      footer.U64(m.dict_offset);
      footer.U64(m.dict_bytes);
      footer.U32(m.dict_count);
    }
    for (const ChunkMeta& cm : m.chunks) {
      footer.U64(cm.offset);
      footer.U64(cm.validity_bytes);
      footer.U64(cm.payload_bytes);
      footer.U64(cm.zone.null_count);
      footer.U8(cm.zone.has_bounds ? 1 : 0);
      footer.I64(cm.zone.min_i);
      footer.I64(cm.zone.max_i);
      footer.F64(cm.zone.min_d);
      footer.F64(cm.zone.max_d);
    }
  }
  LAFP_RETURN_NOT_OK(sink->Check());
  const std::string bytes = footer.Take();
  WireWriter trailer;
  trailer.U64(bytes.size());
  trailer.U64(Fnv1a64(bytes.data(), bytes.size()));
  trailer.U64(kLfcMagic);
  sink->Append(bytes);
  sink->Append(trailer.Take());
  return Status::OK();
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

  const std::string tmp = path + ".tmp";
  errno = 0;
  Status st;
  {  // the stream closes here, before the tmp file is removed or renamed
    FileSink sink(tmp);
    if (!sink.is_open()) {
      return Status::IOError("cannot create lfc file " + tmp);
    }
    st = Encode(frame, options, &sink);
    if (st.ok()) st = sink.Close();
  }
  std::error_code ec;
  if (!st.ok()) {
    // A truncated LFC file must never become visible at the final path.
    std::filesystem::remove(tmp, ec);  // best effort; report the root cause
    return st;
  }
  // Atomic publish: the final path only ever holds a complete file.
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return Status::IOError("cannot publish lfc file " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<std::string> EncodeLfc(const df::DataFrame& frame,
                              const LfcWriteOptions& options) {
  StringSink sink;
  LAFP_RETURN_NOT_OK(Encode(frame, options, &sink));
  return std::move(sink.bytes);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct LfcReader::Impl {
  void* map = MAP_FAILED;
  size_t map_size = 0;
  std::string_view bytes;  // the mapping or the caller's buffer
  std::vector<ColumnEntry> cols;
  /// One flag per column: a dictionary is decoded on its column's first
  /// use, once, whichever concurrent ReadSlices gets there first.
  std::unique_ptr<std::once_flag[]> dict_once;

  ~Impl() {
    if (map != MAP_FAILED) ::munmap(map, map_size);
  }

  /// Decodes column c's dictionary into cols[c].dict, once. Parse has
  /// checked every entry, so decoding cannot fail. Every reader of a
  /// reader-side `dict` calls this first.
  void DecodeDict(size_t c) {
    ColumnEntry& col = cols[c];
    if (!col.dict_encoded) return;
    std::call_once(dict_once[c], [&] {
      auto dict = std::make_shared<df::Dictionary>();
      dict->reserve(col.dict_count);
      WireReader entries(bytes.substr(col.dict_offset, col.dict_bytes));
      std::string_view entry;
      for (uint32_t i = 0; i < col.dict_count && entries.Str(&entry); ++i) {
        dict->emplace_back(entry);
      }
      col.dict = std::move(dict);
    });
  }

  const uint8_t* base() const {
    return reinterpret_cast<const uint8_t*>(bytes.data());
  }
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
  std::unique_ptr<LfcReader> reader(new LfcReader());
  reader->path_ = path;
  reader->source_ = "lfc file " + path;
  reader->tracker_ = tracker;
  // A file too small to hold a header and trailer stays unmapped; Parse
  // rejects the empty view.
  const size_t file_size = static_cast<size_t>(st.st_size);
  if (file_size >= sizeof(kLfcMagic) + kTrailerBytes) {
    void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) {
      const int saved_errno = errno;
      ::close(fd);
      return Status::IOError("cannot mmap lfc file " + path + " (" +
                             std::strerror(saved_errno) + ")");
    }
    reader->impl_->map = map;
    reader->impl_->map_size = file_size;
    reader->impl_->bytes = {static_cast<const char*>(map), file_size};
  }
  ::close(fd);
  LAFP_RETURN_NOT_OK(reader->Parse());
  return reader;
}

Result<std::unique_ptr<LfcReader>> LfcReader::OpenBytes(
    std::string_view bytes, MemoryTracker* tracker, std::string_view source) {
  std::unique_ptr<LfcReader> reader(new LfcReader());
  reader->source_ = "lfc bytes (" + std::string(source) + ")";
  reader->tracker_ = tracker;
  reader->impl_->bytes = bytes;
  LAFP_RETURN_NOT_OK(reader->Parse());
  return reader;
}

Status LfcReader::Parse() {
  const std::string_view bytes = impl_->bytes;
  const size_t size = bytes.size();
  auto corrupt = [&](const std::string& what) {
    return Corrupt(source_, what);
  };
  if (size < sizeof(kLfcMagic) + kTrailerBytes) {
    return corrupt("file too small for header and trailer");
  }
  uint64_t head_magic = 0;
  WireReader(bytes).U64(&head_magic);
  if (head_magic != kLfcMagic) return corrupt("bad magic");

  // Trailer: footer_len | footer_checksum | magic at the very end.
  uint64_t footer_len = 0, footer_checksum = 0, tail_magic = 0;
  WireReader trailer(bytes.substr(size - kTrailerBytes));
  trailer.U64(&footer_len);
  trailer.U64(&footer_checksum);
  trailer.U64(&tail_magic);
  if (tail_magic != kLfcMagic) return corrupt("bad trailer magic");
  const uint64_t max_footer = size - sizeof(kLfcMagic) - kTrailerBytes;
  if (footer_len > max_footer) {
    return corrupt("footer length " + std::to_string(footer_len) +
                   " exceeds file size");
  }
  const uint64_t footer_start = size - kTrailerBytes - footer_len;
  if (Fnv1a64(bytes.data() + footer_start, footer_len) != footer_checksum) {
    return corrupt("footer checksum mismatch");
  }
  info_.footer_checksum = footer_checksum;

  WireReader footer(bytes.substr(footer_start, footer_len));
  uint32_t version = 0, ncols = 0, nchunks = 0;
  uint64_t nrows = 0, nominal_chunk_rows = 0;
  if (!footer.U32(&version) || !footer.U64(&nrows) ||
      !footer.U64(&nominal_chunk_rows) || !footer.U32(&ncols) ||
      !footer.U32(&nchunks)) {
    return corrupt("truncated footer header");
  }
  if (version != kLfcVersion) {
    return Status::IOError("unsupported lfc version " +
                           std::to_string(version) + " in " + source_);
  }
  // Every chunk row count is a u64 and every column needs at least its
  // name length + type + flags; clamp both counts before any loop.
  if (nchunks > footer.remaining() / 8) {
    return corrupt("chunk count exceeds footer size");
  }
  chunk_rows_.resize(nchunks);
  uint64_t rows_sum = 0;
  for (uint32_t i = 0; i < nchunks; ++i) {
    if (!footer.U64(&chunk_rows_[i])) return corrupt("truncated chunk table");
    if (chunk_rows_[i] == 0 || chunk_rows_[i] > nrows) {
      return corrupt("chunk row count out of range");
    }
    // Overflow-safe accumulation: huge per-chunk counts must not wrap
    // rows_sum back onto nrows and launder themselves through the sum
    // check below.
    if (chunk_rows_[i] > nrows - rows_sum) {
      return corrupt("chunk rows exceed row count");
    }
    rows_sum += chunk_rows_[i];
  }
  if (rows_sum != nrows) {
    return corrupt("chunk rows do not sum to row count");
  }
  if (ncols == 0 && nrows != 0) {
    // The writer only emits chunks for frames with columns; without this
    // a column-less footer could claim an arbitrary row count that no
    // per-chunk payload check below would ever bound.
    return corrupt("row count without columns");
  }
  if (ncols > footer.remaining() / 6) {
    return corrupt("column count exceeds footer size");
  }

  info_.nrows = nrows;
  info_.num_chunks = nchunks;
  impl_->cols.resize(ncols);
  impl_->dict_once = std::make_unique<std::once_flag[]>(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    ColumnEntry& col = impl_->cols[c];
    if (!footer.Str(&col.name)) return corrupt("truncated column name");
    uint8_t type_raw = 0, flags = 0;
    if (!footer.U8(&type_raw) || !footer.U8(&flags)) {
      return corrupt("truncated column meta");
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
          return corrupt("dictionary flag on numeric column");
        }
        break;
      case df::DataType::kString:
      case df::DataType::kCategory:
        if (!col.dict_encoded) {
          return corrupt("string column without dictionary");
        }
        break;
      default:
        return corrupt("bad column type");
    }
    if (col.dict_encoded) {
      if (!footer.U64(&col.dict_offset) || !footer.U64(&col.dict_bytes) ||
          !footer.U32(&col.dict_count)) {
        return corrupt("truncated dictionary meta");
      }
      if (col.dict_offset > footer_start ||
          col.dict_bytes > footer_start - col.dict_offset) {
        return corrupt("dictionary extends past data section");
      }
      if (col.dict_count > col.dict_bytes / 4 + 1) {
        return corrupt("dictionary count exceeds its byte length");
      }
      // Check every entry in place; the strings are built on the
      // column's first use (Impl::DecodeDict). Entry lengths are clamped
      // against the remaining dictionary bytes ("over-long offsets"
      // corpus).
      WireReader entries(bytes.substr(col.dict_offset, col.dict_bytes));
      std::string_view entry;
      for (uint32_t i = 0; i < col.dict_count; ++i) {
        if (!entries.Str(&entry)) return corrupt("truncated dictionary entry");
      }
      if (!entries.Done()) return corrupt("trailing bytes in dictionary");
    }
    const uint64_t width = PayloadWidth(col);
    col.chunks.resize(nchunks);
    for (uint32_t i = 0; i < nchunks; ++i) {
      ChunkMeta& cm = col.chunks[i];
      uint8_t has_bounds = 0;
      if (!footer.U64(&cm.offset) || !footer.U64(&cm.validity_bytes) ||
          !footer.U64(&cm.payload_bytes) || !footer.U64(&cm.zone.null_count) ||
          !footer.U8(&has_bounds) || !footer.I64(&cm.zone.min_i) ||
          !footer.I64(&cm.zone.max_i) || !footer.F64(&cm.zone.min_d) ||
          !footer.F64(&cm.zone.max_d)) {
        return corrupt("truncated chunk meta");
      }
      cm.zone.has_bounds = has_bounds != 0;
      const uint64_t rows = chunk_rows_[i];
      // The chunk's bytes must lie entirely inside the data section
      // (between the head magic and the footer), checked without
      // overflow: each length is clamped against what is left.
      if (cm.offset < sizeof(kLfcMagic) || cm.offset > footer_start ||
          cm.validity_bytes > footer_start - cm.offset ||
          cm.payload_bytes >
              footer_start - cm.offset - cm.validity_bytes) {
        return corrupt("chunk extends past data section");
      }
      // Bound the row count in division form BEFORE any arithmetic on
      // it: a crafted `rows` near 2^64/width would wrap `rows * width`
      // (and `rows + 7`) and make a zero-byte chunk claim to hold 2^61
      // rows, sending the decoder far past the buffer. `width` is 1, 4,
      // or 8 for every column type accepted above.
      const uint64_t payload_room =
          footer_start - cm.offset - cm.validity_bytes;
      if (rows > payload_room / width) {
        return corrupt("chunk row count exceeds data section");
      }
      if (cm.validity_bytes != 0 && cm.validity_bytes != (rows + 7) / 8) {
        return corrupt("validity bitmap size mismatch");
      }
      if (cm.payload_bytes != rows * width) {
        return corrupt("payload size mismatch");
      }
      if (cm.zone.null_count > rows) {
        return corrupt("null count exceeds chunk rows");
      }
    }
    df::DataType type = col.physical;
    if (col.was_category) {
      type = df::DataType::kCategory;
    } else if (col.physical == df::DataType::kCategory) {
      type = df::DataType::kString;
    }
    info_.columns.push_back({col.name, type, col.dict_count});
  }
  if (!footer.Done()) return corrupt("trailing bytes in footer");
  return Status::OK();
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
    for (size_t c = 0; c < impl_->cols.size(); ++c) {
      const ColumnEntry& col = impl_->cols[c];
      if (col.name != p.column) continue;
      impl_->DecodeDict(c);
      if (ChunkNeverMatches(col, col.chunks[chunk], rows, p)) return false;
      break;
    }
    // Unknown columns fall through as indeterminate: the filter's own
    // column lookup reports the KeyError, exactly as without pruning.
  }
  return true;
}

namespace {

/// Decodes `slices` of one column into one column of `total` rows, each
/// buffer allocated once. Dictionary columns decode to range-checked
/// codes into `col.dict`: kept as a category column when `as_category`,
/// else resolved to one string per row.
Result<df::ColumnPtr> DecodeColumn(const std::string& source,
                                   const ColumnEntry& col, const uint8_t* base,
                                   const std::vector<LfcSlice>& slices,
                                   const std::vector<uint64_t>& chunk_rows,
                                   size_t total, bool as_category,
                                   MemoryTracker* tracker) {
  auto take_of = [&](const LfcSlice& s) {
    return std::min(s.rows, chunk_rows[s.chunk]);
  };
  // Validity: bits are LSB-first within each byte. An all-valid column
  // allocates none.
  std::vector<uint8_t> validity;
  bool saw_invalid = false;
  size_t at = 0;
  for (const LfcSlice& s : slices) {
    const ChunkMeta& cm = col.chunks[s.chunk];
    const uint64_t take = take_of(s);
    if (cm.validity_bytes != 0) {
      if (validity.empty()) validity.assign(total, 1);
      const uint8_t* bitmap = base + cm.offset;
      for (uint64_t i = 0; i < take; ++i) {
        const uint8_t bit = (bitmap[i / 8] >> (i % 8)) & 1;
        validity[at + i] = bit;
        saw_invalid |= bit == 0;
      }
    }
    at += take;
  }
  // Payloads are fixed-width: each slice's bytes copy into one buffer.
  auto payloads = [&](auto* values) {
    values->resize(total);
    size_t at = 0;
    for (const LfcSlice& s : slices) {
      const ChunkMeta& cm = col.chunks[s.chunk];
      const uint64_t take = take_of(s);
      std::memcpy(values->data() + at, base + cm.offset + cm.validity_bytes,
                  take * sizeof((*values)[0]));
      at += take;
    }
  };
  if (!saw_invalid) validity.clear();
  switch (col.physical) {
    case df::DataType::kInt64:
    case df::DataType::kTimestamp: {
      std::vector<int64_t> ints;
      payloads(&ints);
      return col.physical == df::DataType::kInt64
                 ? df::Column::MakeInt(std::move(ints), std::move(validity),
                                       tracker)
                 : df::Column::MakeTimestamp(std::move(ints),
                                             std::move(validity), tracker);
    }
    case df::DataType::kDouble: {
      std::vector<double> doubles;
      payloads(&doubles);
      return df::Column::MakeDouble(std::move(doubles), std::move(validity),
                                    tracker);
    }
    case df::DataType::kBool: {
      std::vector<uint8_t> bools;
      payloads(&bools);
      return df::Column::MakeBool(std::move(bools), std::move(validity),
                                  tracker);
    }
    case df::DataType::kString:
    case df::DataType::kCategory: {
      // The u32 codes copy as int32s; every code past the dictionary,
      // which includes each one above INT32_MAX, fails the check below.
      std::vector<int32_t> codes;
      payloads(&codes);
      for (size_t i = 0; i < total; ++i) {
        if (!validity.empty() && validity[i] == 0) {
          codes[i] = 0;  // never dereference a null row's code
        } else if (static_cast<uint32_t>(codes[i]) >= col.dict_count) {
          return Corrupt(source, "dictionary code out of range");
        }
      }
      if (as_category) {
        return df::Column::MakeCategory(std::move(codes), std::move(validity),
                                        col.dict, tracker);
      }
      const df::Dictionary& dict = *col.dict;
      std::vector<std::string> strings;
      strings.reserve(total);
      for (size_t i = 0; i < total; ++i) {
        if (!validity.empty() && validity[i] == 0) {
          strings.emplace_back();
        } else {
          strings.push_back(dict[codes[i]]);
        }
      }
      return df::Column::MakeString(std::move(strings), std::move(validity),
                                    tracker);
    }
    case df::DataType::kNull:
      break;
  }
  return Corrupt(source, "bad column type");
}

}  // namespace

Result<df::DataFrame> LfcReader::ReadSlices(
    const std::vector<size_t>& col_idxs, const std::vector<LfcSlice>& slices,
    const std::vector<std::string>& categories) const {
  size_t total = 0;
  for (const LfcSlice& s : slices) {
    total += std::min(s.rows, chunk_rows_[s.chunk]);
  }
  std::vector<std::string> names;
  std::vector<df::ColumnPtr> cols;
  for (size_t idx : col_idxs) {
    impl_->DecodeDict(idx);
    const ColumnEntry& col = impl_->cols[idx];
    const bool as_category =
        col.was_category ||
        (col.dict_encoded && std::find(categories.begin(), categories.end(),
                                       col.name) != categories.end());
    LAFP_ASSIGN_OR_RETURN(
        df::ColumnPtr built,
        DecodeColumn(source_, col, impl_->base(), slices, chunk_rows_, total,
                     as_category, tracker_));
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
  return reader->ReadSlices(sel, reader->Slices(options, stats),
                            options.categories);
}

Result<df::DataFrame> DecodeLfc(std::string_view bytes,
                                MemoryTracker* tracker,
                                std::string_view source) {
  LAFP_ASSIGN_OR_RETURN(auto reader,
                        LfcReader::OpenBytes(bytes, tracker, source));
  LAFP_ASSIGN_OR_RETURN(std::vector<size_t> all, reader->SelectColumns({}));
  std::vector<LfcSlice> slices;
  for (size_t c = 0; c < reader->num_chunks(); ++c) {
    slices.push_back({c, reader->chunk_rows(c)});
  }
  return reader->ReadSlices(all, slices);
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
