#ifndef LAFP_IO_COLUMNAR_H_
#define LAFP_IO_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "dataframe/dataframe.h"
#include "io/csv.h"

namespace lafp::io {

/// LFC ("Lazy Fat Columnar") — the engine's one frame encoding
/// (DESIGN.md "Native columnar storage"): LFC files, Dask spill files
/// (exec/partition.h) and every shard exchange payload (shard/wire.h)
/// are the same bytes. One encoding per frame:
///
///   [magic u64]
///   [chunk data: per chunk, per column: validity bitmap + payload]
///   [dictionary section: per string/category column]
///   [footer: versioned metadata + per-chunk zone maps]
///   [trailer: footer_len u64 | footer_checksum u64 | magic u64]
///
/// The footer lives at the end so the writer streams chunk payloads
/// without back-patching; readers locate it through the fixed-size
/// trailer. Files are read through an mmap, byte payloads in place; both
/// go through one validation path that checks every offset/length
/// against the buffer size before touching bytes (tests/lfc_corpus).
///
/// Fault points (files only): `lfc.write` fires once per column-chunk
/// while writing (partial tmp files are unlinked; the final rename is
/// atomic) and `lfc.read` fires at open.

inline constexpr uint64_t kLfcMagic = 0x4c41465043465331ULL;  // "LAFPCFS1"
inline constexpr uint32_t kLfcVersion = 1;

struct LfcWriteOptions {
  /// Rows per chunk; each chunk carries its own zone maps, so smaller
  /// chunks prune harder but cost more metadata.
  size_t chunk_rows = 65536;
};

/// One conjunctive scan predicate (`column <op> scalar`) consulted
/// against zone maps at scan time. Pruning only ever *skips* chunks that
/// cannot contain a matching row — the actual filter kernel still runs
/// above the scan, so an over-conservative zone test is never wrong.
struct LfcPredicate {
  std::string column;
  df::CompareOp op = df::CompareOp::kEq;
  df::Scalar scalar;
};

struct LfcReadOptions {
  std::vector<std::string> usecols;  // empty = all; selected in file order
  size_t nrows = 0;                  // 0 = all rows
  /// String columns to read as categories (§3.6 hints, sorted): their
  /// chunks decode to codes into the file's dictionary. A name that is
  /// not a selected string column is ignored, as LFC stores every other
  /// type exactly.
  std::vector<std::string> categories;
  /// Conjunctive zone-map predicates attached by the optimizer's
  /// zone-prune pass (or tests). Skipped chunks still consume their
  /// `nrows` quota so pruned output == Filter(unpruned output).
  std::vector<LfcPredicate> prune;
  bool prune_enabled = true;
};

struct LfcReadStats {
  size_t chunks_total = 0;    // chunks inside the nrows window
  size_t chunks_skipped = 0;  // zone-map pruned
};

/// One chunk a scan decodes: its first `rows` rows.
struct LfcSlice {
  size_t chunk = 0;
  uint64_t rows = 0;
};

/// Per-chunk zone map. `has_bounds` is false when the chunk holds no
/// valid, non-NaN value (then no comparison against a non-null scalar
/// can match) and always for dictionary-encoded columns (their pruning
/// uses dictionary membership, not ordering).
struct LfcZoneMap {
  uint64_t null_count = 0;
  bool has_bounds = false;
  int64_t min_i = 0, max_i = 0;  // int64 / timestamp / bool space
  double min_d = 0.0, max_d = 0.0;  // double space
};

struct LfcColumnInfo {
  std::string name;
  df::DataType type = df::DataType::kNull;  // logical (kCategory kept)
  uint32_t dict_size = 0;  // dictionary entries of a string/category column
};

struct LfcFileInfo {
  uint64_t nrows = 0;
  size_t num_chunks = 0;
  std::vector<LfcColumnInfo> columns;
  uint64_t footer_checksum = 0;
};

/// True when `path` starts with the LFC magic (false on any IO error).
/// Cheap enough for per-read dispatch sniffing.
bool IsLfcFile(const std::string& path);

/// Write `frame` as an LFC file. Streams into `path + ".tmp"` and
/// renames atomically; a failed or faulted write never leaves a partial
/// file at either path. kNull-typed columns are rejected.
Status WriteLfcFile(const df::DataFrame& frame, const std::string& path,
                    const LfcWriteOptions& options = {});

/// The bytes WriteLfcFile would write, in memory (the shard exchange's
/// frame payload).
Result<std::string> EncodeLfc(const df::DataFrame& frame,
                              const LfcWriteOptions& options = {});

/// Decode a whole frame from LFC bytes, validated as a file is. Fires no
/// fault site; errors name "lfc bytes (<source>)" instead of a path.
Result<df::DataFrame> DecodeLfc(std::string_view bytes,
                                MemoryTracker* tracker,
                                std::string_view source = "in memory");

/// Eager whole-file read with projection, row limit, and zone-map
/// pruning. `stats`, when non-null, reports chunk-skip counts.
Result<df::DataFrame> ReadLfcFile(const std::string& path,
                                  const LfcReadOptions& options,
                                  MemoryTracker* tracker,
                                  LfcReadStats* stats = nullptr);

/// Footer-only metadata: schema, row/chunk counts, footer checksum.
/// Used by plan fingerprinting, the rewriter, and the result cache.
Result<LfcFileInfo> ReadLfcInfo(const std::string& path);

/// Convert a CSV file (with full read options) into an LFC file.
Status ConvertCsvToLfc(const std::string& csv_path,
                       const std::string& lfc_path,
                       const CsvReadOptions& csv_options,
                       const LfcWriteOptions& options,
                       MemoryTracker* tracker);

/// Chunk reader over an mmap'd file or a caller's bytes — the
/// streaming/partitioned scan surface (Dask partitions, Modin
/// chunk-per-partition reads) and the exchange decoder. Thread-safe for
/// concurrent ReadSlices calls: the bytes are immutable and decoded
/// columns charge the (thread-safe) MemoryTracker.
class LfcReader {
 public:
  static Result<std::unique_ptr<LfcReader>> Open(const std::string& path,
                                                 MemoryTracker* tracker);
  /// Reads `bytes` in place (they must outlive the reader); errors name
  /// "lfc bytes (<source>)".
  static Result<std::unique_ptr<LfcReader>> OpenBytes(
      std::string_view bytes, MemoryTracker* tracker, std::string_view source);
  ~LfcReader();

  LfcReader(const LfcReader&) = delete;
  LfcReader& operator=(const LfcReader&) = delete;

  const LfcFileInfo& info() const { return info_; }
  size_t num_chunks() const { return chunk_rows_.size(); }
  uint64_t chunk_rows(size_t chunk) const { return chunk_rows_[chunk]; }
  const LfcZoneMap& zone_map(size_t col, size_t chunk) const;

  /// Resolve `usecols` to column indexes in file order (the pandas
  /// usecols contract, matching the CSV reader). KeyError on a missing
  /// name; empty input selects every column.
  Result<std::vector<size_t>> SelectColumns(
      const std::vector<std::string>& usecols) const;

  /// Zone-map test: can `chunk` contain a row satisfying every
  /// predicate? Indeterminate predicates (unknown column, type mismatch
  /// the compare kernel would reject) conservatively return true.
  bool ChunkMayMatch(size_t chunk,
                     const std::vector<LfcPredicate>& prune) const;

  /// The slice rule of every LFC scan, eager or partitioned: the chunks
  /// inside the `nrows` window that may match `options.prune`, in file
  /// order, each cut to its share of the quota. A pruned chunk still
  /// consumes its share, so a pruned scan is exactly Filter of the
  /// unpruned scan's first `nrows` rows. Adds the pruned chunks to the
  /// `lfc.chunks_skipped` counter and records the counts on an
  /// `lfc:slices` span; `stats`, when non-null, receives them too.
  std::vector<LfcSlice> Slices(const LfcReadOptions& options,
                               LfcReadStats* stats = nullptr) const;

  /// Decode `slices`, in order, into one frame projected to `col_idxs`
  /// (file-order indexes from SelectColumns), one allocation per column
  /// buffer. A string column named in `categories`, and a column written
  /// as a category, decodes to codes that share this reader's one
  /// dictionary; other string columns resolve their codes to strings. No
  /// slices gives an empty frame carrying the projected schema.
  Result<df::DataFrame> ReadSlices(
      const std::vector<size_t>& col_idxs, const std::vector<LfcSlice>& slices,
      const std::vector<std::string>& categories = {}) const;

 private:
  struct Impl;
  LfcReader();
  /// The one validation path: parse and check the footer of the bytes
  /// in impl_.
  Status Parse();

  std::unique_ptr<Impl> impl_;
  std::string path_;    // empty for bytes
  std::string source_;  // names the bytes in errors
  LfcFileInfo info_;
  std::vector<uint64_t> chunk_rows_;
  MemoryTracker* tracker_ = nullptr;
};

}  // namespace lafp::io

#endif  // LAFP_IO_COLUMNAR_H_
