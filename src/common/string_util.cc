#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace mlcs {

std::vector<std::string> SplitString(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      break;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = TrimView(s);
  int64_t v = 0;
  if (!FromCharsWhole(s, &v)) {
    return Status::ParseError("invalid integer: '" + std::string(s) + "'");
  }
  return v;
}

Result<double> ParseDouble(std::string_view s) {
  s = TrimView(s);
  double v = 0;
  if (!FromCharsWhole(s, &v)) {
    return Status::ParseError("invalid double: '" + std::string(s) + "'");
  }
  return v;
}

std::string FormatDouble(double v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  return std::string(buf, ptr);
}

}  // namespace mlcs
