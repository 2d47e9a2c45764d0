#ifndef LAFP_TESTING_PROGEN_H_
#define LAFP_TESTING_PROGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/tablegen.h"

namespace lafp::testing {

struct ProgramGenOptions {
  /// Random statements between the reads and the checksum epilogue.
  int max_statements = 12;
  /// Emit if / for / while statements.
  bool control_flow = true;
  /// Upper bound on generated table rows (kept small: the oracle runs
  /// every program many times).
  int64_t max_rows = 120;
};

/// A generated differential-test case: PdScript source with "{tN}" path
/// placeholders plus the table specs that satisfy them.
struct GeneratedProgram {
  std::string source;
  std::vector<TableSpec> tables;
};

/// Draw a random well-typed PdScript program over the full supported
/// surface (read_csv, filter chains, isin, column assigns, dt accessors,
/// groupby/agg, merge, sort_values, head (n >= 0), concat, dropna/fillna,
/// drop_duplicates, value_counts, unique, describe, len / series
/// reductions, if/for/while, print) ending
/// with a checksum() of every live frame. Deterministic in `seed`.
GeneratedProgram GenerateProgram(uint64_t seed,
                                 const ProgramGenOptions& options = {});

/// Substitute each "{tN}" placeholder with its table's CSV path.
std::string SubstitutePaths(
    std::string source,
    const std::vector<std::pair<std::string, std::string>>& paths);

}  // namespace lafp::testing

#endif  // LAFP_TESTING_PROGEN_H_
