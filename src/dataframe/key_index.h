#ifndef LAFP_DATAFRAME_KEY_INDEX_H_
#define LAFP_DATAFRAME_KEY_INDEX_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "dataframe/column.h"

namespace lafp::df {

/// Id of a probed row whose key is not in the index.
inline constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();

/// Maps the rows of one or more key columns to dense group ids in
/// first-appearance order — the factorize step behind groupby,
/// drop_duplicates, unique, value_counts, nunique and merge.
///
/// Keys compare by pandas' khash rule. int64 and timestamp keys compare
/// as int64 values; double keys by value, with every NaN one key and
/// -0.0 == 0.0; an int64 or timestamp key probed against a double key
/// compares as double. String and category keys compare by text. A bool
/// key matches only a bool key. A null is one key of its own and matches
/// other nulls.
///
/// Each key column keeps its own typed table: category codes index a
/// code -> id array, 64-bit values (int64, timestamp, bool, canonical
/// double bits) go through a flat open-addressing table, and strings
/// through a table of pointers to them with cached hashes. A composite key
/// folds the per-column ids left to right through a table over
/// (id so far, next column's id) pairs, so ids are exact tuples: no
/// separator or null marker can make two different keys collide.
///
/// The index views the columns' storage; they must outlive it.
class KeyIndex {
 public:
  /// Index over `cols` (non-empty, equal lengths).
  explicit KeyIndex(const std::vector<const Column*>& cols);

  /// Merge build side: index `cols` so rows of `probe` (same arity) can
  /// be looked up with Find. Each column pair compares in the class both
  /// sides share; a pair with none (text vs number, bool vs int) matches
  /// only null against null.
  KeyIndex(const std::vector<const Column*>& cols,
           const std::vector<const Column*>& probe);

  ~KeyIndex();
  KeyIndex(KeyIndex&&) noexcept;
  KeyIndex& operator=(KeyIndex&&) noexcept;

  /// Assign ids to rows [begin, end) in row order; a key not seen before
  /// gets the next dense id. Writes end - begin ids.
  void Insert(size_t begin, size_t end, uint32_t* ids);

  /// Assign ids to `rows` in list order (the morsel merge).
  void InsertRows(const std::vector<int64_t>& rows, uint32_t* ids);

  /// Ids of rows [begin, end) of `probe` (the columns given at
  /// construction); kNoGroup where the key is absent.
  void Find(const std::vector<const Column*>& probe, size_t begin,
            size_t end, uint32_t* ids) const;

  size_t num_groups() const { return first_rows_.size(); }

  /// First row of each group, indexed by id.
  const std::vector<int64_t>& first_rows() const { return first_rows_; }

 private:
  class ColumnKeys;
  class PairTable;

  template <typename Rows>
  void InsertImpl(Rows rows, size_t n, uint32_t* ids);

  std::vector<std::unique_ptr<ColumnKeys>> columns_;
  // One fold per key column after the first.
  std::vector<std::unique_ptr<PairTable>> folds_;
  std::vector<int64_t> first_rows_;
};

}  // namespace lafp::df

#endif  // LAFP_DATAFRAME_KEY_INDEX_H_
