#ifndef LAFP_TESTING_TABLEGEN_H_
#define LAFP_TESTING_TABLEGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataframe/dataframe.h"

namespace lafp::testing {

/// One column of a randomly drawn fuzz table.
struct FuzzColumn {
  std::string name;
  /// 'i' int64, 'f' double, 's' string, 't' timestamp.
  char kind = 'i';
  /// Probability of an empty (null) cell.
  double null_prob = 0.0;
  /// Distinct-value domain size; small domains produce the duplicate and
  /// skewed-key distributions the differential oracle needs.
  int domain = 8;
};

/// A reproducible table: everything (schema and cells) derives from
/// `seed`, so a corpus file only has to record this struct. `rows`
/// truncates and `keep` drops columns without changing any other cell —
/// the shrinker's two data-minimization axes.
struct TableSpec {
  std::string name;  // placeholder name, e.g. "t0" for "{t0}"
  uint64_t seed = 0;
  int64_t rows = 0;
  std::vector<std::string> keep;  // empty = keep every column
  /// Decorate some string cells with a delimiter, a newline or a '"',
  /// so the writer quotes them ("" escapes). The decorations come from
  /// their own RNG stream: a table without `quoted` is byte-identical to
  /// one written before the option existed, and `rows`/`keep` shrinking
  /// still never perturbs surviving cells.
  bool quoted = false;

  /// Corpus-file directive ("#! table t0 seed=7 rows=40 keep=key,f0_t0",
  /// plus " quoted=1" when set).
  std::string ToDirective() const;
  static Result<TableSpec> FromDirective(const std::string& line);
};

/// The full drawn schema for `seed` (before `keep` filtering). The first
/// column is always an int "key" with a small skewed domain and the
/// second a low-cardinality string "cat_<name>"; both make generated
/// merges and groupbys meaningful.
std::vector<FuzzColumn> SchemaForSeed(uint64_t seed, const std::string& name);

/// Schema after applying `spec.keep`.
std::vector<FuzzColumn> SchemaForSpec(const TableSpec& spec);

/// Write the table as CSV into `dir`; returns the file path. Cells are
/// drawn row-major over the *full* schema so `rows`/`keep` shrinking
/// never perturbs surviving cells.
Result<std::string> WriteTable(const TableSpec& spec, const std::string& dir);

/// An in-memory table for the hash-key differential tests. One column per
/// key dtype, over small domains so keys repeat, each with nulls: "i"
/// int64, "g" int64 without nulls, "f" double (NaNs of two payloads, -0.0
/// and 0.0, Kahan-hostile magnitudes), "s" and "s2" strings holding the
/// bytes "\x1f" and "\x02N\x03", "c" a category, "t" timestamp, "b"
/// bool. Deterministic in `seed`; `all_null` nulls every cell.
Result<df::DataFrame> KeyTable(uint64_t seed, int64_t rows, bool all_null,
                               MemoryTracker* tracker);

}  // namespace lafp::testing

#endif  // LAFP_TESTING_TABLEGEN_H_
