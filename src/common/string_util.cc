#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lafp {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(
                          static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::optional<int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty() || s.size() > 31) return std::nullopt;
  char buf[32];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  int64_t v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return std::nullopt;
  return v;
}

std::optional<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty() || s.size() > 63) return std::nullopt;
  char buf[64];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return std::nullopt;
  if (std::isinf(v) && s.find("inf") == std::string_view::npos &&
      s.find("INF") == std::string_view::npos) {
    return std::nullopt;  // overflow
  }
  return v;
}

bool IsBlank(std::string_view s) { return Trim(s).empty(); }

std::string FormatDouble(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  if (std::fabs(v) < 1e15 &&
      v == static_cast<double>(static_cast<int64_t>(v))) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld.0",
                  static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  std::string out(buf);
  // Strip trailing zeros but keep one digit after the point.
  size_t dot = out.find('.');
  if (dot != std::string::npos) {
    size_t last = out.find_last_not_of('0');
    if (last == dot) last = dot + 1;
    out.erase(last + 1);
  }
  return out;
}

}  // namespace lafp
