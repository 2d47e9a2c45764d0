#include "io/csv.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "common/fault.h"
#include "common/macros.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace lafp::io {

using df::Column;
using df::ColumnBuilder;
using df::ColumnPtr;
using df::DataFrame;
using df::DataType;

std::vector<std::string> SplitCsvLine(std::string_view line, char delimiter) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

namespace {

/// Rows per range when ReadRest parses a whole file: the grain of its
/// `csv.read` fault sites and `csv:parse` spans.
constexpr size_t kRangeRows = 1 << 16;

/// One record: its content [begin, end) without the line terminator (a
/// '\r' before the '\n' or the end of file is dropped), and where the
/// next record starts. Every '"' flips the quote state (SplitCsvLine's
/// rule, "" escapes included), so a '\n' ends the record only at even
/// quote parity.
struct Record {
  const char* begin;
  const char* end;
  const char* next;
  bool quoted;  // holds a '"', so its fields need unescaping
};

Record ScanRecord(const char* p, const char* limit) {
  const auto* nl = static_cast<const char*>(
      std::memchr(p, '\n', static_cast<size_t>(limit - p)));
  const char* stop = nl != nullptr ? nl : limit;
  const auto* quote = static_cast<const char*>(
      std::memchr(p, '"', static_cast<size_t>(stop - p)));
  if (quote != nullptr) {
    bool in_quotes = false;
    for (stop = quote; stop < limit; ++stop) {
      if (*stop == '"') {
        in_quotes = !in_quotes;
      } else if (*stop == '\n' && !in_quotes) {
        break;
      }
    }
  }
  const char* end = stop;
  if (end > p && end[-1] == '\r') --end;
  return {p, end, stop < limit ? stop + 1 : limit, quote != nullptr};
}

/// Infer the type of one value; kNull for blanks.
DataType InferValueType(std::string_view raw) {
  std::string_view v = Trim(raw);
  if (v.empty()) return DataType::kNull;
  if (v == "True" || v == "False" || v == "true" || v == "false") {
    return DataType::kBool;
  }
  if (ParseInt64(v).has_value()) return DataType::kInt64;
  if (ParseDouble(v).has_value()) return DataType::kDouble;
  if (df::ParseTimestamp(std::string(v)).ok()) return DataType::kTimestamp;
  return DataType::kString;
}

/// Widening lattice for inference across rows.
DataType UnifyTypes(DataType a, DataType b) {
  if (a == DataType::kNull) return b;
  if (b == DataType::kNull) return a;
  if (a == b) return a;
  auto numeric_rank = [](DataType t) {
    switch (t) {
      case DataType::kBool:
        return 0;
      case DataType::kInt64:
        return 1;
      case DataType::kDouble:
        return 2;
      default:
        return -1;
    }
  };
  int ra = numeric_rank(a), rb = numeric_rank(b);
  if (ra >= 0 && rb >= 0) return ra > rb ? a : b;
  return DataType::kString;  // any other mix degrades to string
}

bool IsDigit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

/// `-?digits(.digits)?`, at most ParseDouble's 63 characters: on this
/// shape from_chars and strtod both round correctly, so the bits agree.
/// With at most 15 digits the value is also m / 10^k for m and 10^k exact
/// doubles, which one IEEE division rounds correctly (Clinger's fast
/// path, cheaper than from_chars).
bool ParsePlainDouble(std::string_view v, double* out) {
  static constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                      1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                      1e12, 1e13, 1e14, 1e15};
  if (v.size() > 63) return false;
  const bool negative = v[0] == '-';
  size_t i = negative ? 1 : 0;
  uint64_t mantissa = 0;  // wraps past 19 digits, used only up to 15
  auto take_digits = [&] {
    const size_t begin = i;
    for (; i < v.size() && IsDigit(v[i]); ++i) {
      mantissa = mantissa * 10 + static_cast<uint64_t>(v[i] - '0');
    }
    return i - begin;
  };
  size_t digits = take_digits();
  if (digits == 0) return false;
  size_t frac = 0;
  if (i < v.size()) {
    if (v[i] != '.') return false;
    ++i;
    frac = take_digits();
    if (frac == 0 || i != v.size()) return false;
    digits += frac;
  }
  if (digits <= 15) {
    const double x = static_cast<double>(mantissa) / kPow10[frac];
    *out = negative ? -x : x;
    return true;
  }
  auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), *out);
  return ec == std::errc() && end == v.data() + v.size();
}

/// `YYYY-MM-DD HH:MM:SS` or `YYYY-MM-DD`, every field in range: the value
/// df::ParseTimestamp gives for the same text.
bool ParseFixedTimestamp(std::string_view v, int64_t* out) {
  if (v.size() != 19 && v.size() != 10) return false;
  auto digits = [&v](size_t at, size_t n, int* value) {
    int x = 0;
    for (size_t i = at; i < at + n; ++i) {
      if (!IsDigit(v[i])) return false;
      x = x * 10 + (v[i] - '0');
    }
    *value = x;
    return true;
  };
  int y = 0, mo = 0, d = 0, h = 0, mi = 0, s = 0;
  if (!digits(0, 4, &y) || v[4] != '-' || !digits(5, 2, &mo) ||
      v[7] != '-' || !digits(8, 2, &d)) {
    return false;
  }
  if (v.size() == 19 &&
      (v[10] != ' ' || !digits(11, 2, &h) || v[13] != ':' ||
       !digits(14, 2, &mi) || v[16] != ':' || !digits(17, 2, &s))) {
    return false;
  }
  if (mo < 1 || mo > 12 || d < 1 || d > 31 || h > 23 || mi > 59 || s > 60) {
    return false;
  }
  *out = df::DaysFromCivil(y, mo, d) * 86400 + h * 3600 + mi * 60 + s;
  return true;
}

/// Category codes built straight from the field bytes: the dictionary
/// lists distinct values in first-appearance order and a null row holds
/// code 0, as df::CategorizeStrings lays them out.
class CategoryBuilder {
 public:
  void AppendNull() {
    if (validity_.size() < codes_.size()) validity_.resize(codes_.size(), 1);
    validity_.push_back(0);
    codes_.push_back(0);
  }

  void Append(std::string_view value) {
    key_.assign(value);
    auto [it, inserted] =
        index_.try_emplace(key_, static_cast<int32_t>(dict_->size()));
    if (inserted) dict_->push_back(key_);
    if (!validity_.empty()) validity_.push_back(1);
    codes_.push_back(it->second);
  }

  void Reserve(size_t n) { codes_.reserve(n); }

  Result<ColumnPtr> Finish(MemoryTracker* tracker) {
    return Column::MakeCategory(std::move(codes_), std::move(validity_),
                                std::move(dict_), tracker);
  }

 private:
  std::vector<int32_t> codes_;
  std::vector<uint8_t> validity_;  // empty until the first null
  std::shared_ptr<df::Dictionary> dict_ = std::make_shared<df::Dictionary>();
  std::unordered_map<std::string, int32_t> index_;
  std::string key_;  // reused lookup buffer
};

}  // namespace

/// Where one output column's values go while ranges are parsed.
struct CsvChunkReader::Sink {
  Sink(DataType type, bool category, MemoryTracker* tracker)
      : type(type), category(category), values(type, tracker) {}

  void AppendNull() {
    if (category) {
      codes.AppendNull();
    } else {
      values.AppendNull();
    }
  }

  /// A blank field is null; a value its type cannot hold is null, except
  /// that an int column truncates a double. Strings keep their spaces.
  void Append(std::string_view raw) {
    std::string_view v = Trim(raw);
    if (v.empty()) {
      AppendNull();
      return;
    }
    switch (type) {
      case DataType::kInt64: {
        int64_t x = 0;
        auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
        if (ec == std::errc() && end == v.data() + v.size()) {
          values.AppendInt(x);
        } else if (auto p = ParseInt64(v)) {
          values.AppendInt(*p);
        } else if (auto d = ParseDouble(v)) {
          // Tolerate "3.0" in an int column (replication artifacts).
          values.AppendInt(static_cast<int64_t>(*d));
        } else {
          values.AppendNull();
        }
        return;
      }
      case DataType::kDouble: {
        double x = 0.0;
        if (ParsePlainDouble(v, &x)) {
          values.AppendDouble(x);
        } else if (auto p = ParseDouble(v)) {
          values.AppendDouble(*p);
        } else {
          values.AppendNull();
        }
        return;
      }
      case DataType::kBool:
        if (v == "True" || v == "true" || v == "1") {
          values.AppendBool(true);
        } else if (v == "False" || v == "false" || v == "0") {
          values.AppendBool(false);
        } else {
          values.AppendNull();
        }
        return;
      case DataType::kTimestamp: {
        int64_t ts = 0;
        if (ParseFixedTimestamp(v, &ts)) {
          values.AppendInt(ts);
        } else if (auto p = df::ParseTimestamp(std::string(raw)); p.ok()) {
          values.AppendInt(*p);
        } else {
          values.AppendNull();
        }
        return;
      }
      default:  // kString
        if (category) {
          codes.Append(raw);
        } else {
          values.AppendString(std::string(raw));
        }
        return;
    }
  }

  DataType type;  // parse type: kString for a category column
  bool category;
  ColumnBuilder values;   // every column but category
  CategoryBuilder codes;  // category columns
};

CsvChunkReader::~CsvChunkReader() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

Result<std::unique_ptr<CsvChunkReader>> CsvChunkReader::Open(
    const std::string& path, const CsvReadOptions& options,
    MemoryTracker* tracker) {
  auto reader = std::unique_ptr<CsvChunkReader>(new CsvChunkReader());
  LAFP_RETURN_NOT_OK(reader->Init(path, options, tracker));
  return reader;
}

Status CsvChunkReader::Init(const std::string& path,
                            const CsvReadOptions& options,
                            MemoryTracker* tracker) {
  options_ = options;
  tracker_ = tracker != nullptr ? tracker : MemoryTracker::Default();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open '" + path + "'");
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("cannot open '" + path + "'");
  }
  size_ = static_cast<size_t>(st.st_size);
  if (size_ == 0) {
    // mmap rejects a zero-length mapping; there is no header to read.
    ::close(fd);
    return Status::IOError("empty CSV file '" + path + "'");
  }
  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("cannot mmap '" + path + "' (" +
                           std::strerror(errno) + ")");
  }
  data_ = static_cast<const char*>(map);
  const char* limit = data_ + size_;

  Record head = ScanRecord(data_, limit);
  header_ = SplitCsvLine(std::string_view(head.begin, head.end - head.begin),
                         options_.delimiter);
  data_begin_ = pos_ = static_cast<size_t>(head.next - data_);

  // Resolve usecols -> field indexes, preserving file order like pandas.
  if (options_.usecols.empty()) {
    for (size_t i = 0; i < header_.size(); ++i) out_field_index_.push_back(i);
  } else {
    for (const auto& want : options_.usecols) {
      auto it = std::find(header_.begin(), header_.end(), want);
      if (it == header_.end()) {
        return Status::KeyError("usecols: no column '" + want + "' in '" +
                                path + "'");
      }
      out_field_index_.push_back(static_cast<size_t>(it - header_.begin()));
    }
    std::sort(out_field_index_.begin(), out_field_index_.end());
  }
  for (size_t idx : out_field_index_) out_names_.push_back(header_[idx]);

  // Types: an override, else the widest type over the first infer_rows
  // records.
  std::vector<std::vector<std::string>> sample;
  for (const char* p = data_ + data_begin_;
       p < limit && sample.size() < options_.infer_rows;) {
    Record rec = ScanRecord(p, limit);
    p = rec.next;
    if (rec.begin == rec.end) continue;
    sample.push_back(SplitCsvLine(
        std::string_view(rec.begin, rec.end - rec.begin), options_.delimiter));
  }
  out_types_.assign(out_names_.size(), DataType::kNull);
  wants_category_.assign(out_names_.size(), false);
  for (size_t c = 0; c < out_names_.size(); ++c) {
    auto it = options_.dtypes.find(out_names_[c]);
    if (it != options_.dtypes.end()) {
      if (it->second == DataType::kNull) {
        return Status::Invalid("dtype override for '" + out_names_[c] +
                               "' names no type");
      }
      wants_category_[c] = it->second == DataType::kCategory;
      out_types_[c] = wants_category_[c] ? DataType::kString : it->second;
      continue;
    }
    DataType t = DataType::kNull;
    for (const auto& fields : sample) {
      if (out_field_index_[c] >= fields.size()) continue;
      t = UnifyTypes(t, InferValueType(fields[out_field_index_[c]]));
      if (t == DataType::kString) break;
    }
    if (t == DataType::kNull) t = DataType::kString;  // all blank
    out_types_[c] = t;
  }
  return Status::OK();
}

Result<std::optional<CsvRange>> CsvChunkReader::NextRange(size_t rows) {
  if (rows == 0) return Status::Invalid("chunk size must be positive");
  static auto* range_counter =
      metrics::Registry::Global()->GetCounter("csv.chunks");
  range_counter->Increment();
  LAFP_RETURN_NOT_OK(FaultPoint("csv.read"));
  if (options_.nrows > 0) {
    if (rows_emitted_ >= options_.nrows) return std::optional<CsvRange>();
    rows = std::min(rows, options_.nrows - rows_emitted_);
  }
  const char* limit = data_ + size_;
  const char* p = data_ + pos_;
  CsvRange range;
  while (range.rows < rows && p < limit) {
    Record rec = ScanRecord(p, limit);
    if (rec.begin != rec.end) {
      if (range.rows == 0) range.begin = static_cast<size_t>(p - data_);
      range.end = static_cast<size_t>(rec.next - data_);
      ++range.rows;
    }
    p = rec.next;
  }
  if (range.rows == 0) {
    pos_ = size_;
    return std::optional<CsvRange>();
  }
  pos_ = range.end;
  rows_emitted_ += range.rows;
  return std::optional<CsvRange>(range);
}

std::vector<CsvChunkReader::Sink> CsvChunkReader::MakeSinks(
    size_t rows) const {
  std::vector<Sink> sinks;
  sinks.reserve(out_types_.size());
  for (size_t c = 0; c < out_types_.size(); ++c) {
    sinks.emplace_back(out_types_[c], wants_category_[c], tracker_);
    if (wants_category_[c]) {
      sinks.back().codes.Reserve(rows);
    } else {
      sinks.back().values.Reserve(rows);
    }
  }
  return sinks;
}

void CsvChunkReader::ParseInto(const CsvRange& range,
                               std::vector<Sink>* sinks) const {
  trace::Span span("csv:parse", "io");
  if (span.active()) {
    span.AddArg("rows", static_cast<int64_t>(range.rows));
    span.AddArg("bytes", static_cast<int64_t>(range.end - range.begin));
  }
  const char delimiter = options_.delimiter;
  const size_t ncols = sinks->size();
  const char* limit = data_ + range.end;
  const char* p = data_ + range.begin;
  while (p < limit) {
    Record rec = ScanRecord(p, limit);
    p = rec.next;
    if (rec.begin == rec.end) continue;
    size_t c = 0;
    if (!rec.quoted) {
      // Fields are slices of the mapping; those usecols drops are only
      // stepped over, and the scan stops after the last selected one.
      const char* f = rec.begin;
      for (size_t field = 0; c < ncols; ++field) {
        const char* f_end = f;
        while (f_end < rec.end && *f_end != delimiter) ++f_end;
        if (field == out_field_index_[c]) {
          (*sinks)[c++].Append(std::string_view(f, f_end - f));
        }
        if (f_end == rec.end) break;
        f = f_end + 1;
      }
    } else {
      std::vector<std::string> fields = SplitCsvLine(
          std::string_view(rec.begin, rec.end - rec.begin), delimiter);
      for (; c < ncols && out_field_index_[c] < fields.size(); ++c) {
        (*sinks)[c].Append(fields[out_field_index_[c]]);
      }
    }
    for (; c < ncols; ++c) (*sinks)[c].AppendNull();  // short record
  }
}

Result<DataFrame> CsvChunkReader::Finish(std::vector<Sink>* sinks) const {
  std::vector<ColumnPtr> cols;
  cols.reserve(sinks->size());
  for (Sink& sink : *sinks) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr col, sink.category
                                             ? sink.codes.Finish(tracker_)
                                             : sink.values.Finish());
    cols.push_back(std::move(col));
  }
  return DataFrame::Make(out_names_, std::move(cols));
}

Result<DataFrame> CsvChunkReader::ParseRange(const CsvRange& range) const {
  std::vector<Sink> sinks = MakeSinks(range.rows);
  ParseInto(range, &sinks);
  return Finish(&sinks);
}

Result<std::optional<DataFrame>> CsvChunkReader::NextChunk(size_t rows) {
  LAFP_ASSIGN_OR_RETURN(std::optional<CsvRange> range, NextRange(rows));
  if (!range.has_value()) return std::optional<DataFrame>();
  LAFP_ASSIGN_OR_RETURN(DataFrame chunk, ParseRange(*range));
  return std::optional<DataFrame>(std::move(chunk));
}

Result<DataFrame> CsvChunkReader::ReadRest() {
  // Scan first, so each column is allocated once at its final size.
  std::vector<CsvRange> ranges;
  size_t rows = 0;
  while (true) {
    LAFP_ASSIGN_OR_RETURN(std::optional<CsvRange> range,
                          NextRange(kRangeRows));
    if (!range.has_value()) break;
    ranges.push_back(*range);
    rows += range->rows;
  }
  if (ranges.empty()) return EmptyFrame();
  std::vector<Sink> sinks = MakeSinks(rows);
  for (const CsvRange& range : ranges) ParseInto(range, &sinks);
  return Finish(&sinks);
}

Result<DataFrame> CsvChunkReader::EmptyFrame() const {
  std::vector<ColumnPtr> cols;
  cols.reserve(out_types_.size());
  for (DataType t : out_types_) {
    LAFP_ASSIGN_OR_RETURN(ColumnPtr col, ColumnBuilder(t, tracker_).Finish());
    cols.push_back(std::move(col));
  }
  return DataFrame::Make(out_names_, std::move(cols));
}

Result<DataFrame> ReadCsv(const std::string& path,
                          const CsvReadOptions& options,
                          MemoryTracker* tracker) {
  trace::Span span("csv:read", "io");
  if (span.active()) span.AddArg("path", path);
  LAFP_ASSIGN_OR_RETURN(auto reader,
                        CsvChunkReader::Open(path, options, tracker));
  return reader->ReadRest();
}

namespace {

bool NeedsQuoting(const std::string& s, char delimiter) {
  return s.find(delimiter) != std::string::npos ||
         s.find('"') != std::string::npos ||
         s.find('\n') != std::string::npos;
}

std::string QuoteField(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

Status CsvWriteError(const std::string& path) {
  std::string detail = "write failed for '" + path + "'";
  if (errno != 0) {
    detail += ": ";
    detail += std::strerror(errno);
  }
  return Status::IOError(detail);
}

}  // namespace

Status WriteCsv(const DataFrame& frame, const std::string& path) {
  trace::Span span("csv:write", "io");
  if (span.active()) {
    span.AddArg("path", path);
    span.AddArg("rows", static_cast<int64_t>(frame.num_rows()));
  }
  errno = 0;
  LAFP_RETURN_NOT_OK(FaultPoint("csv.write"));
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  for (size_t i = 0; i < frame.names().size(); ++i) {
    if (i > 0) out << ',';
    out << frame.names()[i];
  }
  out << '\n';
  for (size_t r = 0; r < frame.num_rows(); ++r) {
    for (size_t c = 0; c < frame.num_columns(); ++c) {
      if (c > 0) out << ',';
      const df::Column& col = *frame.column(c);
      if (!col.IsValid(r)) continue;  // empty field == null
      std::string v = col.ValueString(r);
      out << (NeedsQuoting(v, ',') ? QuoteField(v) : v);
    }
    out << '\n';
    // A full disk fails the stream mid-file; formatting the remaining
    // rows into a dead stream would only hide how far the write got.
    if (!out.good()) return CsvWriteError(path);
  }
  out.flush();
  if (!out.good()) return CsvWriteError(path);
  return Status::OK();
}

}  // namespace lafp::io
