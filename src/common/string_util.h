#ifndef LAFP_COMMON_STRING_UTIL_H_
#define LAFP_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lafp {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Strip ASCII whitespace (" \t\n\v\f\r") from both ends. Inline: the
/// CSV parse trims every field.
inline std::string_view Trim(std::string_view s) {
  auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  while (!s.empty() && space(s.front())) s.remove_prefix(1);
  while (!s.empty() && space(s.back())) s.remove_suffix(1);
  return s;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

std::string ToLower(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strict integer parse: the whole (trimmed) string must be consumed.
std::optional<int64_t> ParseInt64(std::string_view s);

/// Strict floating-point parse; accepts the usual decimal/exponent forms.
std::optional<double> ParseDouble(std::string_view s);

/// True if `s` trims to "" (CSV null).
bool IsBlank(std::string_view s);

/// Format a double the way the dataframe printer does: integers without a
/// trailing ".0" are preserved as "x.0"; up to 6 significant decimals
/// otherwise, trailing zeros stripped.
std::string FormatDouble(double v);

}  // namespace lafp

#endif  // LAFP_COMMON_STRING_UTIL_H_
