#include "src/common/strings.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace perfiface {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' || s[e - 1] == '\n')) {
    --e;
  }
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Whether a number from_chars found past the double range lies below it
// (strtod reads such a number as zero) rather than above it. `text` is the
// unsigned number; the decimal exponent of its leading nonzero digit plus
// its exponent part says which, as the range ends near 1e-324 and 1e308.
bool BelowTheRange(std::string_view text) {
  std::size_t i = 0;
  long long lead = 0;  // decimal exponent of the leading nonzero digit
  bool seen = false;
  for (; i < text.size() && IsDigit(text[i]); ++i) {
    lead += seen ? 1 : 0;
    seen = seen || text[i] != '0';
  }
  if (i < text.size() && text[i] == '.') {
    for (++i; i < text.size() && IsDigit(text[i]); ++i) {
      if (!seen) {
        --lead;
        seen = text[i] != '0';
      }
    }
  }
  long long exponent = 0;
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    const bool negative = i < text.size() && text[i] == '-';
    if (i < text.size() && (text[i] == '-' || text[i] == '+')) {
      ++i;
    }
    for (; i < text.size() && IsDigit(text[i]); ++i) {
      exponent = std::min(exponent * 10 + (text[i] - '0'), 1'000'000'000LL);
    }
    exponent = negative ? -exponent : exponent;
  }
  return lead + exponent < 0;
}

}  // namespace

std::errc ParseDecimal(std::string_view text, double* out) {
  const bool negative = !text.empty() && text[0] == '-';
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) {
    text.remove_prefix(1);
  }
  // A digit or '.' must lead: from_chars would also read "inf" and "nan".
  if (text.empty() || !(IsDigit(text[0]) || text[0] == '.')) {
    return std::errc::invalid_argument;
  }
  double value = 0;
  const char* const last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value, std::chars_format::general);
  if (ptr != last || ec == std::errc::invalid_argument) {
    return std::errc::invalid_argument;
  }
  if (ec == std::errc::result_out_of_range) {
    if (!BelowTheRange(text)) {
      return ec;
    }
    value = 0;
  }
  *out = negative ? -value : value;
  return std::errc();
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          *out += "\\u00";
          *out += kHex[(c >> 4) & 0xF];
          *out += kHex[c & 0xF];
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace perfiface
