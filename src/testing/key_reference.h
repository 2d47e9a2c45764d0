#ifndef LAFP_TESTING_KEY_REFERENCE_H_
#define LAFP_TESTING_KEY_REFERENCE_H_

#include <string>
#include <vector>

#include "dataframe/ops.h"

namespace lafp::testing {

/// A deliberately simple model of the hash-keyed kernels: a std::map over
/// tuples of typed key cells, filled one row at a time. Like
/// ReferenceReadCsv, it shares no key code with what it checks
/// (df::KeyIndex), so the differential test compares the index with an
/// independent reading of pandas' khash rule: int64, timestamp and double
/// cells compare by value (±0.0 one key, every NaN one key), string and
/// category cells by text, a bool only with a bool, and a null only with a
/// null. Outputs follow the df:: kernels' schemas and row orders, so the
/// two can be compared bit for bit.
Result<df::DataFrame> ReferenceGroupByAgg(
    const df::DataFrame& frame, const std::vector<std::string>& keys,
    const std::vector<df::AggSpec>& aggs);

Result<df::DataFrame> ReferenceDropDuplicates(
    const df::DataFrame& frame, const std::vector<std::string>& subset);

Result<df::ColumnPtr> ReferenceUnique(const df::Column& col);

Result<df::DataFrame> ReferenceValueCounts(const df::Column& col,
                                           const std::string& value_name);

/// Distinct non-null values.
int64_t ReferenceNunique(const df::Column& col);

Result<df::DataFrame> ReferenceMerge(const df::DataFrame& left,
                                     const df::DataFrame& right,
                                     const std::vector<std::string>& on,
                                     df::JoinType how);

}  // namespace lafp::testing

#endif  // LAFP_TESTING_KEY_REFERENCE_H_
