#include "testing/csv_reference.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"

namespace lafp::testing {

namespace {

using df::DataType;

using Record = std::vector<std::string>;

/// Every record of `text`, split into unescaped fields.
std::vector<Record> Records(const std::string& text, char delimiter) {
  std::vector<Record> records;
  std::string raw;  // the record as written, quotes included
  bool in_quotes = false;
  auto end_record = [&] {
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    Record fields(1);
    bool quoted = false;
    for (size_t i = 0; i < raw.size(); ++i) {
      const char c = raw[i];
      if (c == '"' && quoted && i + 1 < raw.size() && raw[i + 1] == '"') {
        fields.back() += '"';
        ++i;
      } else if (c == '"') {
        quoted = !quoted;
      } else if (c == delimiter && !quoted) {
        fields.emplace_back();
      } else {
        fields.back() += c;
      }
    }
    // A blank record has one empty field and no characters at all.
    if (records.empty() || !raw.empty()) records.push_back(std::move(fields));
    raw.clear();
  };
  for (char c : text) {
    if (c == '\n' && !in_quotes) {
      end_record();
      continue;
    }
    if (c == '"') in_quotes = !in_quotes;
    raw += c;
  }
  if (!raw.empty()) end_record();
  return records;
}

DataType ValueType(const std::string& cell) {
  std::string_view v = Trim(cell);
  if (v.empty()) return DataType::kNull;
  if (v == "True" || v == "False" || v == "true" || v == "false") {
    return DataType::kBool;
  }
  if (ParseInt64(v)) return DataType::kInt64;
  if (ParseDouble(v)) return DataType::kDouble;
  if (df::ParseTimestamp(std::string(v)).ok()) return DataType::kTimestamp;
  return DataType::kString;
}

DataType Widen(DataType a, DataType b) {
  if (a == DataType::kNull || a == b) return b;
  if (b == DataType::kNull) return a;
  const std::vector<DataType> numeric = {DataType::kBool, DataType::kInt64,
                                         DataType::kDouble};
  auto ra = std::find(numeric.begin(), numeric.end(), a);
  auto rb = std::find(numeric.begin(), numeric.end(), b);
  if (ra == numeric.end() || rb == numeric.end()) return DataType::kString;
  return std::max(ra, rb) == ra ? a : b;
}

void AppendCell(df::ColumnBuilder* b, DataType type, const std::string& cell) {
  std::string_view v = Trim(cell);
  if (v.empty()) {
    b->AppendNull();
    return;
  }
  if (type == DataType::kInt64) {
    if (auto i = ParseInt64(v)) {
      b->AppendInt(*i);
    } else if (auto d = ParseDouble(v)) {
      b->AppendInt(static_cast<int64_t>(*d));
    } else {
      b->AppendNull();
    }
  } else if (type == DataType::kDouble) {
    if (auto d = ParseDouble(v)) {
      b->AppendDouble(*d);
    } else {
      b->AppendNull();
    }
  } else if (type == DataType::kBool) {
    if (v == "True" || v == "true" || v == "1") {
      b->AppendBool(true);
    } else if (v == "False" || v == "false" || v == "0") {
      b->AppendBool(false);
    } else {
      b->AppendNull();
    }
  } else if (type == DataType::kTimestamp) {
    auto ts = df::ParseTimestamp(cell);
    if (ts.ok()) {
      b->AppendInt(*ts);
    } else {
      b->AppendNull();
    }
  } else {
    b->AppendString(cell);
  }
}

}  // namespace

Result<df::DataFrame> ReferenceReadCsv(const std::string& path,
                                       const io::CsvReadOptions& options,
                                       MemoryTracker* tracker) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return Status::IOError("cannot open '" + path + "'");
  std::stringstream text;
  text << in.rdbuf();
  std::vector<Record> records = Records(text.str(), options.delimiter);
  if (records.empty()) return Status::IOError("empty CSV file '" + path + "'");
  const Record& header = records[0];
  std::vector<Record> rows(records.begin() + 1, records.end());

  std::vector<size_t> fields;
  for (size_t i = 0; i < header.size(); ++i) {
    if (options.usecols.empty() ||
        std::count(options.usecols.begin(), options.usecols.end(),
                   header[i]) > 0) {
      fields.push_back(i);
    }
  }
  for (const auto& want : options.usecols) {
    if (std::count(header.begin(), header.end(), want) == 0) {
      return Status::KeyError("usecols: no column '" + want + "'");
    }
  }

  const size_t inferred = std::min(options.infer_rows, rows.size());
  if (options.nrows > 0 && rows.size() > options.nrows) {
    rows.resize(options.nrows);
  }
  std::vector<std::string> names;
  std::vector<df::ColumnPtr> cols;
  for (size_t f : fields) {
    DataType type = DataType::kNull;
    bool category = false;
    auto hint = options.dtypes.find(header[f]);
    if (hint != options.dtypes.end()) {
      category = hint->second == DataType::kCategory;
      type = category ? DataType::kString : hint->second;
    } else {
      for (size_t r = 0; r < inferred; ++r) {
        const Record& record = records[r + 1];
        if (f < record.size()) type = Widen(type, ValueType(record[f]));
      }
      if (type == DataType::kNull) type = DataType::kString;
    }
    df::ColumnBuilder builder(type, tracker);
    for (const Record& row : rows) {
      if (f < row.size()) {
        AppendCell(&builder, type, row[f]);
      } else {
        builder.AppendNull();
      }
    }
    LAFP_ASSIGN_OR_RETURN(df::ColumnPtr col, builder.Finish());
    if (category && !rows.empty()) {
      LAFP_ASSIGN_OR_RETURN(col, df::CategorizeStrings(*col, tracker));
    }
    names.push_back(header[f]);
    cols.push_back(std::move(col));
  }
  return df::DataFrame::Make(std::move(names), std::move(cols));
}

}  // namespace lafp::testing
