#include "testing/tablegen.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "testing/rng.h"

namespace lafp::testing {

namespace {

std::string TimestampForIndex(uint64_t idx) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "2024-%02d-%02d %02d:00:00",
                static_cast<int>(idx % 12 + 1), static_cast<int>(idx % 28 + 1),
                static_cast<int>(idx % 24));
  return buf;
}

/// One cell; always consumes exactly two draws (null decision + value) so
/// the stream stays aligned across rows/keep shrinking.
std::string Cell(const FuzzColumn& col, SplitMix* rng, bool skewed) {
  bool null = rng->Chance(col.null_prob);
  uint64_t raw = rng->Next();
  if (null) return "";
  uint64_t domain = static_cast<uint64_t>(col.domain);
  uint64_t idx = raw % domain;
  if (skewed) {
    // Quadratic skew toward 0: duplicates + hot keys for joins/groupbys.
    double u = static_cast<double>(raw >> 11) * 0x1p-53;
    idx = static_cast<uint64_t>(static_cast<double>(domain) * u * u);
    if (idx >= domain) idx = domain - 1;
  }
  switch (col.kind) {
    case 'i':
      return std::to_string(static_cast<int64_t>(idx) - 1);  // a few -1s
    case 'f':
      // Quarter steps are exact in binary: CSV round-trips bit-identically.
      return FormatDouble(static_cast<double>(idx) * 0.25);
    case 's':
      return "v" + std::to_string(idx);
    case 't':
      return TimestampForIndex(idx);
  }
  return "";
}

/// A `quoted` table's string cell: `draw` decorates three cells in eight
/// with a delimiter, a newline or surrounding quotes, written quoted.
std::string Decorate(std::string cell, uint64_t draw) {
  if (cell.empty()) return cell;  // null stays an empty field
  switch (draw % 8) {
    case 0:
      cell += ",x";
      break;
    case 1:
      cell += "\nx";
      break;
    case 2:
      cell = "\"" + cell + "\"";
      break;
    default:
      return cell;
  }
  std::string out = "\"";
  for (char c : cell) {
    out += c;
    if (c == '"') out += c;  // "" escape
  }
  return out + "\"";
}

}  // namespace

std::vector<FuzzColumn> SchemaForSeed(uint64_t seed,
                                      const std::string& name) {
  SplitMix rng(seed ^ Fnv1a64("schema"));
  std::vector<FuzzColumn> cols;
  static const int kKeyDomains[] = {2, 3, 5, 8};
  static const int kCatDomains[] = {2, 3, 4, 6};
  cols.push_back({"key", 'i', 0.0, kKeyDomains[rng.Below(4)]});
  cols.push_back({"cat_" + name, 's', rng.Chance(0.3) ? 0.1 : 0.0,
                  kCatDomains[rng.Below(4)]});
  static const char kKinds[] = {'i', 'f', 'f', 's', 't'};
  static const double kNullProbs[] = {0.0, 0.0, 0.05, 0.2};
  static const int kDomains[] = {4, 8, 16, 40};
  size_t extras = 2 + rng.Below(3);
  int counter_by_kind[128] = {};
  for (size_t j = 0; j < extras; ++j) {
    FuzzColumn col;
    col.kind = kKinds[rng.Below(5)];
    col.name = std::string(1, col.kind) +
               std::to_string(counter_by_kind[static_cast<int>(col.kind)]++) +
               "_" + name;
    col.null_prob = kNullProbs[rng.Below(4)];
    col.domain = kDomains[rng.Below(4)];
    cols.push_back(col);
  }
  return cols;
}

std::vector<FuzzColumn> SchemaForSpec(const TableSpec& spec) {
  std::vector<FuzzColumn> full = SchemaForSeed(spec.seed, spec.name);
  if (spec.keep.empty()) return full;
  std::vector<FuzzColumn> out;
  for (const auto& col : full) {
    for (const auto& k : spec.keep) {
      if (col.name == k) {
        out.push_back(col);
        break;
      }
    }
  }
  return out;
}

Result<std::string> WriteTable(const TableSpec& spec,
                               const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::vector<FuzzColumn> full = SchemaForSeed(spec.seed, spec.name);
  std::vector<bool> kept(full.size(), spec.keep.empty());
  if (!spec.keep.empty()) {
    for (size_t c = 0; c < full.size(); ++c) {
      for (const auto& k : spec.keep) {
        if (full[c].name == k) kept[c] = true;
      }
    }
  }
  std::string path = dir + "/" + spec.name + ".csv";
  std::ofstream out(path);
  if (!out.is_open()) return Status::IOError("cannot create " + path);
  bool first = true;
  for (size_t c = 0; c < full.size(); ++c) {
    if (!kept[c]) continue;
    if (!first) out << ',';
    first = false;
    out << full[c].name;
  }
  out << '\n';
  SplitMix rng(spec.seed ^ Fnv1a64("cells"));
  // One draw per string cell of the full schema, so shrinking never
  // shifts the stream.
  SplitMix quote_rng(spec.seed ^ Fnv1a64("quoted"));
  for (int64_t r = 0; r < spec.rows; ++r) {
    first = true;
    for (size_t c = 0; c < full.size(); ++c) {
      std::string cell = Cell(full[c], &rng, /*skewed=*/c == 0);
      if (spec.quoted && full[c].kind == 's') {
        cell = Decorate(std::move(cell), quote_rng.Next());
      }
      if (!kept[c]) continue;
      if (!first) out << ',';
      first = false;
      out << cell;
    }
    out << '\n';
  }
  out.flush();
  if (!out.good()) return Status::IOError("write failed: " + path);
  return path;
}

std::string TableSpec::ToDirective() const {
  std::string line = "#! table " + name + " seed=" + std::to_string(seed) +
                     " rows=" + std::to_string(rows);
  if (!keep.empty()) {
    line += " keep=";
    for (size_t i = 0; i < keep.size(); ++i) {
      if (i > 0) line += ",";
      line += keep[i];
    }
  }
  if (quoted) line += " quoted=1";
  return line;
}

Result<TableSpec> TableSpec::FromDirective(const std::string& line) {
  std::vector<std::string> tokens = Split(Trim(line), ' ');
  if (tokens.size() < 3 || tokens[0] != "#!" || tokens[1] != "table") {
    return Status::Invalid("not a table directive: " + line);
  }
  TableSpec spec;
  spec.name = std::string(tokens[2]);
  for (size_t i = 3; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    auto eq = tok.find('=');
    if (eq == std::string::npos) {
      return Status::Invalid("bad table directive field: " + line);
    }
    std::string key = tok.substr(0, eq);
    std::string value = tok.substr(eq + 1);
    if (key == "seed") {
      spec.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "rows") {
      spec.rows = std::strtoll(value.c_str(), nullptr, 10);
    } else if (key == "quoted") {
      spec.quoted = value == "1";
    } else if (key == "keep") {
      for (const std::string& col : Split(value, ',')) {
        if (!col.empty()) spec.keep.push_back(col);
      }
    } else {
      return Status::Invalid("unknown table directive field: " + line);
    }
  }
  return spec;
}

Result<df::DataFrame> KeyTable(uint64_t seed, int64_t rows, bool all_null,
                               MemoryTracker* tracker) {
  SplitMix rng(seed ^ Fnv1a64("keys"));
  const size_t n = static_cast<size_t>(rows);
  // A nullable cell is null with chance 1/8; "g" has no validity vector.
  auto validity = [&](bool nullable) {
    std::vector<uint8_t> v;
    if (!nullable && !all_null) return v;
    v.assign(n, 1);
    for (auto& bit : v) {
      bit = all_null || rng.Below(8) == 0 ? 0 : 1;
    }
    return v;
  };
  std::vector<int64_t> ints(n), groups(n), stamps(n);
  std::vector<double> doubles(n);
  std::vector<std::string> strs(n), strs2(n), cats(n);
  std::vector<uint8_t> bools(n);
  static const double kDoubles[] = {0.0, -0.0, 1.5, -2.25, 1e16, 1.0, -1e16};
  static const char* const kStrings[] = {"a", "a\x1f", "\x1f" "a", "",
                                         "\x02N\x03", "b"};
  static const char* const kStrings2[] = {"b", "\x1f" "b", "\x1f", "a"};
  static const char* const kCats[] = {"x", "y\x1f", "\x02N\x03"};
  for (size_t r = 0; r < n; ++r) {
    ints[r] = static_cast<int64_t>(rng.Below(4)) - 1;
    groups[r] = static_cast<int64_t>(rng.Below(3));
    const uint64_t d = rng.Below(9);
    doubles[r] = d < 7 ? kDoubles[d] : std::nan(d == 7 ? "" : "7");
    strs[r] = kStrings[rng.Below(6)];
    strs2[r] = kStrings2[rng.Below(4)];
    cats[r] = kCats[rng.Below(3)];
    stamps[r] = 1700000000 + 3600 * static_cast<int64_t>(rng.Below(3));
    bools[r] = static_cast<uint8_t>(rng.Below(2));
  }
  using df::Column;
  LAFP_ASSIGN_OR_RETURN(auto i, Column::MakeInt(ints, validity(true), tracker));
  LAFP_ASSIGN_OR_RETURN(auto g,
                        Column::MakeInt(groups, validity(false), tracker));
  LAFP_ASSIGN_OR_RETURN(auto f,
                        Column::MakeDouble(doubles, validity(true), tracker));
  LAFP_ASSIGN_OR_RETURN(auto s,
                        Column::MakeString(strs, validity(true), tracker));
  LAFP_ASSIGN_OR_RETURN(auto s2,
                        Column::MakeString(strs2, validity(true), tracker));
  LAFP_ASSIGN_OR_RETURN(auto plain,
                        Column::MakeString(cats, validity(true), tracker));
  LAFP_ASSIGN_OR_RETURN(auto c, df::CategorizeStrings(*plain, tracker));
  LAFP_ASSIGN_OR_RETURN(auto t,
                        Column::MakeTimestamp(stamps, validity(true), tracker));
  LAFP_ASSIGN_OR_RETURN(auto b,
                        Column::MakeBool(bools, validity(true), tracker));
  return df::DataFrame::Make({"i", "g", "f", "s", "s2", "c", "t", "b"},
                             {i, g, f, s, s2, c, t, b});
}

}  // namespace lafp::testing
