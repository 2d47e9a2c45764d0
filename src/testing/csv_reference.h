#ifndef LAFP_TESTING_CSV_REFERENCE_H_
#define LAFP_TESTING_CSV_REFERENCE_H_

#include <string>

#include "common/memory_tracker.h"
#include "common/result.h"
#include "dataframe/dataframe.h"
#include "io/csv.h"

namespace lafp::testing {

/// A deliberately simple CSV reader, the oracle for io::ReadCsv. It walks
/// the file one character at a time and shares no parsing code with the
/// mmap reader, only its specification:
///   - a record ends at a '\n' outside quotes, or at the end of the file;
///     one '\r' right before that end is dropped; blank records are
///     skipped, except the header, which is always the first record;
///   - every '"' toggles quoting; inside quotes "" is a literal quote;
///   - usecols keeps file order; a dtype override wins, otherwise a
///     column's type is the widest over the first `infer_rows` records
///     (bool < int64 < double, any other mix is string);
///   - a blank cell is null, a cell its type cannot hold is null, and an
///     int column truncates a double; values parse with ParseInt64,
///     ParseDouble and df::ParseTimestamp; a category column is a string
///     column run through df::CategorizeStrings.
Result<df::DataFrame> ReferenceReadCsv(const std::string& path,
                                       const io::CsvReadOptions& options,
                                       MemoryTracker* tracker);

}  // namespace lafp::testing

#endif  // LAFP_TESTING_CSV_REFERENCE_H_
