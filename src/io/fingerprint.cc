#include "io/fingerprint.h"

#include <chrono>
#include <filesystem>
#include <fstream>

#include "common/hash.h"
#include "common/macros.h"
#include "io/columnar.h"
#include "io/csv.h"

namespace lafp::io {

Result<FileFingerprint> FingerprintFile(const std::string& path,
                                        size_t sample_bytes) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot stat " + path + ": " + ec.message());
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return Status::IOError("cannot stat " + path + ": " + ec.message());

  FileFingerprint fp;
  fp.size_bytes = static_cast<int64_t>(size);
  fp.mtime_ns = static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          mtime.time_since_epoch())
          .count());

  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  uint64_t sample_hash = Fnv1a64(path);
  std::vector<char> buf(sample_bytes);
  // Head sample.
  in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
  sample_hash = Fnv1a64(buf.data(), static_cast<size_t>(in.gcount()),
                        sample_hash);
  // Tail sample (distinct from the head when the file is large enough).
  if (size > sample_bytes) {
    in.clear();
    const auto tail = std::min<uint64_t>(sample_bytes, size - sample_bytes);
    in.seekg(-static_cast<std::streamoff>(tail), std::ios::end);
    in.read(buf.data(), static_cast<std::streamsize>(tail));
    sample_hash = Fnv1a64(buf.data(), static_cast<size_t>(in.gcount()),
                          sample_hash);
  }

  uint64_t h = sample_hash;
  h = HashCombine(h, static_cast<uint64_t>(fp.size_bytes));
  h = HashCombine(h, static_cast<uint64_t>(fp.mtime_ns));
  fp.hash = h;
  return fp;
}

Result<FileFingerprint> FingerprintLfcFile(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot stat " + path + ": " + ec.message());
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return Status::IOError("cannot stat " + path + ": " + ec.message());
  constexpr uint64_t kTrailer = 24;  // footer_len | footer_checksum | magic
  if (size < sizeof(kLfcMagic) + kTrailer) {
    return Status::IOError("not an lfc file (too small): " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  in.seekg(-static_cast<std::streamoff>(16), std::ios::end);
  uint64_t footer_checksum = 0, tail_magic = 0;
  in.read(reinterpret_cast<char*>(&footer_checksum), 8);
  in.read(reinterpret_cast<char*>(&tail_magic), 8);
  if (!in.good() || tail_magic != kLfcMagic) {
    return Status::IOError("not an lfc file (bad trailer): " + path);
  }

  FileFingerprint fp;
  fp.size_bytes = static_cast<int64_t>(size);
  fp.mtime_ns = static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          mtime.time_since_epoch())
          .count());
  uint64_t h = Fnv1a64(path);
  h = HashCombine(h, footer_checksum);
  h = HashCombine(h, static_cast<uint64_t>(fp.size_bytes));
  h = HashCombine(h, static_cast<uint64_t>(fp.mtime_ns));
  fp.hash = h;
  return fp;
}

Result<FileFingerprint> FingerprintInputFile(const std::string& path) {
  if (IsLfcFile(path)) return FingerprintLfcFile(path);
  return FingerprintFile(path);
}

Result<std::vector<std::string>> ReadCsvHeaderNames(const std::string& path,
                                                    char delimiter) {
  CsvReadOptions options;
  options.delimiter = delimiter;
  options.infer_rows = 0;  // the header record only
  LAFP_ASSIGN_OR_RETURN(auto reader,
                        CsvChunkReader::Open(path, options, nullptr));
  return reader->header();
}

}  // namespace lafp::io
