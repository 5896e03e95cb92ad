#ifndef FMTK_BASE_STRING_UTIL_H_
#define FMTK_BASE_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fmtk {

/// Joins `parts` with `sep` ("a", "b" -> "a,b" for sep ",").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

/// True when `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses `text` as a decimal numeral with value at most `max`: one or more
/// ASCII digits and nothing else (no sign, space or suffix). nullopt on any
/// other text, including values past `max` however many digits they have.
std::optional<std::uint64_t> ParseDecimal(std::string_view text,
                                          std::uint64_t max);

}  // namespace fmtk

#endif  // FMTK_BASE_STRING_UTIL_H_
