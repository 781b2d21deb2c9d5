// Small string helpers used by the PerfScript front-end and table printers.
#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace perfiface {

// Splits on a single character; keeps empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Appends `s` as a JSON string literal (quotes included) to `out`. Every
// byte below 0x20 is escaped, so arbitrary bytes (tenant and interface
// names, error text) always yield valid JSON.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace perfiface

#endif  // SRC_COMMON_STRINGS_H_
