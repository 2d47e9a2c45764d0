#ifndef LAFP_IO_CSV_H_
#define LAFP_IO_CSV_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "dataframe/dataframe.h"

namespace lafp::io {

/// Options mirroring the pandas read_csv arguments the paper's rewrites
/// manipulate: `usecols` (column-selection optimization, §3.1) and `dtype`
/// overrides (metadata optimization, §3.6 — including "category").
struct CsvReadOptions {
  std::vector<std::string> usecols;  // empty = all columns
  std::map<std::string, df::DataType> dtypes;  // per-column overrides
  char delimiter = ',';
  size_t nrows = 0;        // 0 = read all rows
  size_t infer_rows = 64;  // data rows sampled for type inference
};

/// Data rows [begin, end) of the file: `rows` non-blank records, the
/// last one's line terminator included.
struct CsvRange {
  size_t begin = 0;
  size_t end = 0;
  size_t rows = 0;
};

/// CSV reader over a read-only mmap of the file, in two stages. The row
/// scan (NextRange) finds where records end: memchr for '\n', switching
/// to a quote-parity scan on records that contain '"', so a quoted
/// newline stays in its field. The typed parse (ParseRange) turns any
/// scanned range into columns. Ranges come out in file order; parsing is
/// const, so ranges may be parsed concurrently (Modin's partitioned read)
/// or skipped (shard workers parse only the partitions they own).
class CsvChunkReader {
 public:
  /// Maps the file and reads the header. Column types come from
  /// options.dtypes or are inferred from the first `infer_rows` records.
  static Result<std::unique_ptr<CsvChunkReader>> Open(
      const std::string& path, const CsvReadOptions& options,
      MemoryTracker* tracker);
  ~CsvChunkReader();

  CsvChunkReader(const CsvChunkReader&) = delete;
  CsvChunkReader& operator=(const CsvChunkReader&) = delete;

  /// Row scan: the next range of at most `rows` records (fewer at end of
  /// file or at the nrows limit), or nullopt when none is left. Every
  /// call is one `csv.read` fault site.
  Result<std::optional<CsvRange>> NextRange(size_t rows);

  /// Typed parse of a range from NextRange. Thread-safe.
  Result<df::DataFrame> ParseRange(const CsvRange& range) const;

  /// NextRange, then ParseRange: the next chunk of at most `rows` rows,
  /// or nullopt at end of file. Columns follow the selected-column order.
  Result<std::optional<df::DataFrame>> NextChunk(size_t rows);

  /// Every remaining row as one frame: the rest of the file is scanned
  /// into ranges of a fixed size, which parse into one set of column
  /// buffers allocated at the final row count (no chunk concatenation).
  Result<df::DataFrame> ReadRest();

  /// A frame with no rows and this reader's columns (header-only files).
  Result<df::DataFrame> EmptyFrame() const;

  /// All header names in file order (before usecols).
  const std::vector<std::string>& header() const { return header_; }

  /// Byte offset of the first data row, and of the byte after the last
  /// range handed out.
  size_t data_begin() const { return data_begin_; }
  size_t position() const { return pos_; }

 private:
  struct Sink;
  CsvChunkReader() = default;

  Status Init(const std::string& path, const CsvReadOptions& options,
              MemoryTracker* tracker);
  std::vector<Sink> MakeSinks(size_t rows) const;
  void ParseInto(const CsvRange& range, std::vector<Sink>* sinks) const;
  Result<df::DataFrame> Finish(std::vector<Sink>* sinks) const;

  CsvReadOptions options_;
  MemoryTracker* tracker_ = nullptr;
  const char* data_ = nullptr;  // the mapping; null until Init maps it
  size_t size_ = 0;
  std::vector<std::string> header_;
  std::vector<std::string> out_names_;
  std::vector<df::DataType> out_types_;  // category columns parse as kString
  std::vector<size_t> out_field_index_;  // ascending positions in a record
  std::vector<bool> wants_category_;
  size_t data_begin_ = 0;
  size_t pos_ = 0;
  size_t rows_emitted_ = 0;
};

/// Eager whole-file read (the Pandas path).
Result<df::DataFrame> ReadCsv(const std::string& path,
                              const CsvReadOptions& options,
                              MemoryTracker* tracker);

/// Write a dataframe as CSV (used by the data generators and tests).
Status WriteCsv(const df::DataFrame& frame, const std::string& path);

/// Split one CSV record honoring double-quoted fields with "" escapes.
/// The parse's path for records that hold a quote; exposed for tests.
std::vector<std::string> SplitCsvLine(std::string_view line, char delimiter);

}  // namespace lafp::io

#endif  // LAFP_IO_CSV_H_
