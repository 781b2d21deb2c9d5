// Small string helpers used by the PerfScript front-end and table printers.
#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace perfiface {

// Splits on a single character; keeps empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Strict decimal numbers: the one number syntax of the NDJSON wire reader,
// the tools' flags and attributes and the .pnet loader's constants. All of
// `text` must be one number: an optional sign, digits with at most one '.'
// (".5" and "1." count), and an optional exponent ("1e-7", "2E+3"); no
// whitespace, hex, inf or nan. Returns std::errc() and sets *out,
// std::errc::invalid_argument for any other text, and
// std::errc::result_out_of_range for a magnitude past the double range. A
// magnitude below the smallest subnormal reads as a zero of the text's sign,
// as strtod reads it.
std::errc ParseDecimal(std::string_view text, double* out);

// The same syntax for an integer: an optional sign and decimal digits only,
// within Int's range; an unsigned Int refuses any '-', "-0" included.
template <typename Int>
std::errc ParseDecimal(std::string_view text, Int* out) {
  static_assert(std::is_integral_v<Int>);
  const char* first = text.data();
  const char* const last = first + text.size();
  if (last - first > 1 && *first == '+' && first[1] != '-') {
    ++first;  // from_chars reads no '+'
  }
  Int value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc()) {
    return ec;
  }
  if (ptr != last) {
    return std::errc::invalid_argument;
  }
  *out = value;
  return std::errc();
}

// Appends `s` as a JSON string literal (quotes included) to `out`. Every
// byte below 0x20 is escaped, so arbitrary bytes (tenant and interface
// names, error text) always yield valid JSON.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace perfiface

#endif  // SRC_COMMON_STRINGS_H_
