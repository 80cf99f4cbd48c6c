#ifndef MLCS_COMMON_STRING_UTIL_H_
#define MLCS_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace mlcs {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> SplitString(std::string_view input, char delim);

/// Removes ASCII whitespace (space, \t, \n, \v, \f, \r: std::isspace in
/// the "C" locale the engine runs in) from both ends. Inline, with no call
/// per char: the text-cell parser (storage/text_cell.h) trims every
/// numeric cell.
inline std::string_view TrimView(std::string_view s) {
  auto space = [](char c) {
    return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
  };
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && space(s[begin])) ++begin;
  while (end > begin && space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}
std::string Trim(std::string_view s);

std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Joins with a separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Case-insensitive ASCII equality (SQL keywords, type names).
[[nodiscard]] bool EqualsIgnoreCase(std::string_view a, std::string_view b);

[[nodiscard]] bool StartsWith(std::string_view s, std::string_view prefix);
[[nodiscard]] bool EndsWith(std::string_view s, std::string_view suffix);

/// std::from_chars over the whole of `s`, untrimmed: false when it stops
/// short of the end or the value is out of T's range.
template <typename T>
[[nodiscard]] bool FromCharsWhole(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Strict numeric parsing built on std::from_chars: the whole (trimmed)
/// string must be consumed, otherwise kParseError.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Formats a double the way a text protocol would (shortest round-trip).
std::string FormatDouble(double v);

}  // namespace mlcs

#endif  // MLCS_COMMON_STRING_UTIL_H_
