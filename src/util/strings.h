#ifndef FEATSEP_UTIL_STRINGS_H_
#define FEATSEP_UTIL_STRINGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace featsep {

/// Splits `text` on `separator`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Joins the elements of `pieces` with `separator` between them.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses all of `text` as one decimal number into `*value`: no leading
/// whitespace or '+', no trailing characters, no overflow, and no sign at
/// all for an unsigned T. The command-line tools use it for every numeric
/// flag, so `x`, `1x` and `-1` are rejected instead of read as something
/// else.
template <typename T>
bool ParseWhole(std::string_view text, T* value) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end;
}

}  // namespace featsep

#endif  // FEATSEP_UTIL_STRINGS_H_
