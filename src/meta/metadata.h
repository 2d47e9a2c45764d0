#ifndef LAFP_META_METADATA_H_
#define LAFP_META_METADATA_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataframe/types.h"

namespace lafp::meta {

/// Per-column statistics gathered by sampling a source file (paper §3.6).
/// min/max are stored as value strings; distinct counts are exact within
/// the sample and therefore lower bounds for the file.
struct ColumnMeta {
  std::string name;
  df::DataType type = df::DataType::kString;
  int64_t sample_distinct = 0;
  std::string min_value;
  std::string max_value;
  double avg_value_bytes = 8.0;  // in-memory width estimate per value
};

/// Metadata for one CSV dataset: modification time and size (the
/// staleness check), approximate cardinality and row width, plus
/// per-column stats.
struct FileMetadata {
  std::string path;
  int64_t modified_time = 0;  // ns since the file clock's epoch
  int64_t file_bytes = 0;
  int64_t approx_rows = 0;
  double avg_row_bytes = 0.0;  // on-disk
  int64_t sample_rows = 0;
  std::vector<ColumnMeta> columns;

  const ColumnMeta* FindColumn(const std::string& name) const;

  /// Estimated in-memory bytes to load `usecols` (all columns if empty)
  /// eagerly — the signal the paper uses for backend choice.
  int64_t EstimateMemoryBytes(const std::vector<std::string>& usecols) const;

  /// Columns that are category candidates: string-typed with at most
  /// `max_distinct` distinct values in the sample.
  std::vector<std::string> CategoryCandidates(int64_t max_distinct) const;

  /// dtype map for read_csv: each column's inferred type, with category
  /// substituted for candidates that are also in `read_only_columns`
  /// (the safety condition from §3.6: never categorize a column the
  /// program may assign novel values into).
  std::map<std::string, df::DataType> DtypeHints(
      const std::vector<std::string>& read_only_columns,
      int64_t max_distinct) const;

  std::string Serialize() const;
  static Result<FileMetadata> Deserialize(const std::string& text);
};

/// Options for the sampling pass.
struct ComputeOptions {
  int64_t sample_rows = 1000;
};

/// Scan (a sample of) `csv_path` and compute its metadata.
Result<FileMetadata> ComputeFileMetadata(const std::string& csv_path,
                                         const ComputeOptions& options = {});

/// On-disk store of FileMetadata, one sidecar file per dataset, in
/// `store_dir`. Lookup compares the dataset's current mtime, at full
/// resolution, and size with the stored ones and refuses a stale entry
/// (paper: "metadata computed before the last update is not used").
class MetaStore {
 public:
  explicit MetaStore(std::string store_dir);

  /// Stored metadata if present and fresh; nullopt otherwise.
  Result<std::optional<FileMetadata>> Lookup(const std::string& csv_path);

  /// Compute, persist and return metadata for the dataset.
  Result<FileMetadata> ComputeAndStore(const std::string& csv_path,
                                       const ComputeOptions& options = {});

  /// Lookup; on miss (or staleness) compute and store.
  Result<FileMetadata> GetOrCompute(const std::string& csv_path,
                                    const ComputeOptions& options = {});

  const std::string& store_dir() const { return store_dir_; }

 private:
  std::string SidecarPath(const std::string& csv_path) const;

  std::string store_dir_;
};

/// Current mtime of a file in ns since the file clock's epoch (0 if
/// missing).
int64_t FileModifiedTime(const std::string& path);
int64_t FileSizeBytes(const std::string& path);

}  // namespace lafp::meta

#endif  // LAFP_META_METADATA_H_
