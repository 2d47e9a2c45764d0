#include "meta/metadata.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "io/csv.h"

namespace lafp::meta {

namespace fs = std::filesystem;

int64_t FileModifiedTime(const std::string& path) {
  std::error_code ec;
  auto t = fs::last_write_time(path, ec);
  if (ec) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

int64_t FileSizeBytes(const std::string& path) {
  std::error_code ec;
  auto size = fs::file_size(path, ec);
  if (ec) return 0;
  return static_cast<int64_t>(size);
}

const ColumnMeta* FileMetadata::FindColumn(const std::string& name) const {
  for (const auto& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

int64_t FileMetadata::EstimateMemoryBytes(
    const std::vector<std::string>& usecols) const {
  double per_row = 0.0;
  for (const auto& c : columns) {
    if (!usecols.empty() &&
        std::find(usecols.begin(), usecols.end(), c.name) == usecols.end()) {
      continue;
    }
    per_row += c.avg_value_bytes;
  }
  return static_cast<int64_t>(per_row * static_cast<double>(approx_rows));
}

std::vector<std::string> FileMetadata::CategoryCandidates(
    int64_t max_distinct) const {
  std::vector<std::string> out;
  for (const auto& c : columns) {
    if (c.type == df::DataType::kString && c.sample_distinct > 0 &&
        c.sample_distinct <= max_distinct) {
      out.push_back(c.name);
    }
  }
  return out;
}

std::map<std::string, df::DataType> FileMetadata::DtypeHints(
    const std::vector<std::string>& read_only_columns,
    int64_t max_distinct) const {
  std::map<std::string, df::DataType> hints;
  auto is_read_only = [&](const std::string& n) {
    return std::find(read_only_columns.begin(), read_only_columns.end(),
                     n) != read_only_columns.end();
  };
  for (const auto& c : columns) {
    df::DataType t = c.type;
    if (t == df::DataType::kString && c.sample_distinct > 0 &&
        c.sample_distinct <= max_distinct && is_read_only(c.name)) {
      t = df::DataType::kCategory;
    }
    hints[c.name] = t;
  }
  return hints;
}

std::string FileMetadata::Serialize() const {
  std::ostringstream os;
  os << "path=" << path << "\n";
  os << "mtime=" << modified_time << "\n";
  os << "file_bytes=" << file_bytes << "\n";
  os << "approx_rows=" << approx_rows << "\n";
  os << "avg_row_bytes=" << avg_row_bytes << "\n";
  os << "sample_rows=" << sample_rows << "\n";
  os << "ncols=" << columns.size() << "\n";
  for (size_t i = 0; i < columns.size(); ++i) {
    const auto& c = columns[i];
    os << "col." << i << ".name=" << c.name << "\n";
    os << "col." << i << ".type=" << df::DataTypeName(c.type) << "\n";
    os << "col." << i << ".distinct=" << c.sample_distinct << "\n";
    os << "col." << i << ".min=" << c.min_value << "\n";
    os << "col." << i << ".max=" << c.max_value << "\n";
    os << "col." << i << ".avg_bytes=" << c.avg_value_bytes << "\n";
  }
  return os.str();
}

Result<FileMetadata> FileMetadata::Deserialize(const std::string& text) {
  FileMetadata md;
  std::map<std::string, std::string> kv;
  for (const auto& line : Split(text, '\n')) {
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError("bad metadata line: " + line);
    }
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  auto get = [&](const std::string& key) -> Result<std::string> {
    auto it = kv.find(key);
    if (it == kv.end()) {
      return Status::ParseError("metadata missing key: " + key);
    }
    return it->second;
  };
  LAFP_ASSIGN_OR_RETURN(md.path, get("path"));
  LAFP_ASSIGN_OR_RETURN(std::string mtime, get("mtime"));
  md.modified_time = ParseInt64(mtime).value_or(0);
  LAFP_ASSIGN_OR_RETURN(std::string fb, get("file_bytes"));
  md.file_bytes = ParseInt64(fb).value_or(0);
  LAFP_ASSIGN_OR_RETURN(std::string rows, get("approx_rows"));
  md.approx_rows = ParseInt64(rows).value_or(0);
  LAFP_ASSIGN_OR_RETURN(std::string rb, get("avg_row_bytes"));
  md.avg_row_bytes = ParseDouble(rb).value_or(0.0);
  LAFP_ASSIGN_OR_RETURN(std::string sr, get("sample_rows"));
  md.sample_rows = ParseInt64(sr).value_or(0);
  LAFP_ASSIGN_OR_RETURN(std::string ncols_s, get("ncols"));
  int64_t ncols = ParseInt64(ncols_s).value_or(0);
  for (int64_t i = 0; i < ncols; ++i) {
    std::string prefix = "col." + std::to_string(i) + ".";
    ColumnMeta c;
    LAFP_ASSIGN_OR_RETURN(c.name, get(prefix + "name"));
    LAFP_ASSIGN_OR_RETURN(std::string type_name, get(prefix + "type"));
    LAFP_ASSIGN_OR_RETURN(c.type, df::DataTypeFromName(type_name));
    LAFP_ASSIGN_OR_RETURN(std::string d, get(prefix + "distinct"));
    c.sample_distinct = ParseInt64(d).value_or(0);
    LAFP_ASSIGN_OR_RETURN(c.min_value, get(prefix + "min"));
    LAFP_ASSIGN_OR_RETURN(c.max_value, get(prefix + "max"));
    LAFP_ASSIGN_OR_RETURN(std::string ab, get(prefix + "avg_bytes"));
    c.avg_value_bytes = ParseDouble(ab).value_or(8.0);
    md.columns.push_back(std::move(c));
  }
  return md;
}

Result<FileMetadata> ComputeFileMetadata(const std::string& csv_path,
                                         const ComputeOptions& options) {
  FileMetadata md;
  md.path = csv_path;
  md.modified_time = FileModifiedTime(csv_path);
  md.file_bytes = FileSizeBytes(csv_path);

  MemoryTracker scratch(0);
  io::CsvReadOptions read_opts;
  read_opts.nrows = static_cast<size_t>(options.sample_rows);
  read_opts.infer_rows =
      static_cast<size_t>(std::min<int64_t>(options.sample_rows, 256));
  LAFP_ASSIGN_OR_RETURN(
      auto reader, io::CsvChunkReader::Open(csv_path, read_opts, &scratch));
  LAFP_ASSIGN_OR_RETURN(df::DataFrame sample, reader->ReadRest());
  md.sample_rows = static_cast<int64_t>(sample.num_rows());

  // On-disk average row width from the sampled prefix, measured with the
  // reader's own record boundaries (a quoted newline stays in its row).
  const auto header_bytes = static_cast<double>(reader->data_begin());
  const auto sampled_bytes =
      static_cast<double>(reader->position()) - header_bytes;
  md.avg_row_bytes = md.sample_rows > 0 ? sampled_bytes / md.sample_rows : 0;
  md.approx_rows =
      md.avg_row_bytes > 0
          ? static_cast<int64_t>((md.file_bytes - header_bytes) /
                                 md.avg_row_bytes)
          : 0;

  for (size_t ci = 0; ci < sample.num_columns(); ++ci) {
    const df::Column& col = *sample.column(ci);
    ColumnMeta cm;
    cm.name = sample.names()[ci];
    cm.type = col.type();
    std::set<std::string> distinct;
    int64_t value_bytes = 0;
    std::string minv, maxv;
    bool have_range = false;
    for (size_t r = 0; r < col.size(); ++r) {
      if (!col.IsValid(r)) continue;
      std::string v = col.ValueString(r);
      if (distinct.size() < 4096) distinct.insert(v);
      switch (col.type()) {
        case df::DataType::kInt64:
        case df::DataType::kDouble:
        case df::DataType::kTimestamp:
          value_bytes += 8;
          break;
        case df::DataType::kBool:
          value_bytes += 1;
          break;
        default:
          value_bytes += static_cast<int64_t>(v.size()) + 16;
          break;
      }
      // Range tracking uses the engine's sort semantics: numeric by value,
      // strings lexicographic.
      if (!have_range) {
        minv = maxv = v;
        have_range = true;
      } else if (df::IsNumeric(col.type())) {
        auto cur = ParseDouble(v);
        auto lo = ParseDouble(minv);
        auto hi = ParseDouble(maxv);
        if (cur && lo && *cur < *lo) minv = v;
        if (cur && hi && *cur > *hi) maxv = v;
      } else {
        if (v < minv) minv = v;
        if (v > maxv) maxv = v;
      }
    }
    cm.sample_distinct = static_cast<int64_t>(distinct.size());
    cm.min_value = minv;
    cm.max_value = maxv;
    cm.avg_value_bytes =
        col.size() > 0
            ? static_cast<double>(value_bytes) / static_cast<double>(
                                                     col.size())
            : 8.0;
    md.columns.push_back(std::move(cm));
  }
  return md;
}

MetaStore::MetaStore(std::string store_dir)
    : store_dir_(std::move(store_dir)) {
  std::error_code ec;
  fs::create_directories(store_dir_, ec);
}

std::string MetaStore::SidecarPath(const std::string& csv_path) const {
  // Hash the absolute path so unrelated files with the same basename do
  // not collide in the store.
  std::string base = fs::path(csv_path).filename().string();
  return store_dir_ + "/" + base + "." +
         std::to_string(Fnv1a64(csv_path)) + ".meta";
}

Result<std::optional<FileMetadata>> MetaStore::Lookup(
    const std::string& csv_path) {
  std::ifstream in(SidecarPath(csv_path));
  if (!in.is_open()) return std::optional<FileMetadata>();
  std::stringstream buffer;
  buffer << in.rdbuf();
  LAFP_ASSIGN_OR_RETURN(FileMetadata md,
                        FileMetadata::Deserialize(buffer.str()));
  // A rewrite within the same second changes the full-resolution mtime,
  // and almost always the size.
  if (md.modified_time != FileModifiedTime(csv_path) ||
      md.file_bytes != FileSizeBytes(csv_path)) {
    return std::optional<FileMetadata>();  // stale
  }
  return std::optional<FileMetadata>(std::move(md));
}

Result<FileMetadata> MetaStore::ComputeAndStore(
    const std::string& csv_path, const ComputeOptions& options) {
  LAFP_ASSIGN_OR_RETURN(FileMetadata md,
                        ComputeFileMetadata(csv_path, options));
  std::ofstream out(SidecarPath(csv_path));
  if (!out.is_open()) {
    return Status::IOError("cannot write metadata sidecar for " + csv_path);
  }
  out << md.Serialize();
  out.flush();
  if (!out.good()) {
    return Status::IOError("metadata write failed for " + csv_path);
  }
  return md;
}

Result<FileMetadata> MetaStore::GetOrCompute(const std::string& csv_path,
                                             const ComputeOptions& options) {
  LAFP_ASSIGN_OR_RETURN(auto cached, Lookup(csv_path));
  if (cached.has_value()) return std::move(*cached);
  return ComputeAndStore(csv_path, options);
}

}  // namespace lafp::meta
