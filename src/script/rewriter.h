#ifndef LAFP_SCRIPT_REWRITER_H_
#define LAFP_SCRIPT_REWRITER_H_

#include <string>
#include <vector>

#include "meta/metadata.h"
#include "script/analysis.h"
#include "script/ir.h"

namespace lafp::script {

/// Which static rewrites to apply (paper §3).
struct RewriteOptions {
  /// §3.1: add usecols=[live columns] to read_csv based on LAA.
  bool column_selection = true;
  /// §3.4: insert .compute(live_df=[...]) before external-module calls.
  bool forced_compute = true;
  /// §3.3: append pd.flush() so deferred lazy prints are emitted.
  bool insert_flush = true;
  /// §3.6: add dtype= hints: category for read-only string columns with
  /// at most `category_max_distinct` values. On read_csv of a CSV file
  /// the hints (plus exact types) come from the metadata store's sample;
  /// on an LFC file (read_csv or read_lfc) from its footer's dictionaries.
  bool metadata_dtypes = true;
  meta::MetaStore* metastore = nullptr;  // required for CSV hints
  int64_t category_max_distinct = 64;
};

struct RewriteStats {
  int reads_pruned = 0;        // read_csv calls that gained usecols
  int computes_inserted = 0;   // forced-compute wrappers
  int dtype_hints_added = 0;   // file reads that gained dtype=
  int category_columns = 0;    // columns hinted as category
  bool flush_inserted = false;
};

/// Run the static analyses and produce the rewritten program. The input
/// IR is not modified.
Result<IRProgram> Rewrite(const IRProgram& program,
                          const RewriteOptions& options,
                          RewriteStats* stats);

}  // namespace lafp::script

#endif  // LAFP_SCRIPT_REWRITER_H_
