// A deliberately strict parser for the Prometheus text exposition format
// (v0.0.4), shared by the tests that read a scrape. Real scrapers are
// lenient in places; this one is not — it exists to prove that hostile
// interface names and help strings cannot corrupt a scrape, so any
// unescaped quote, backslash, or newline must fail the parse.
#ifndef TESTS_EXPOSITION_PARSER_H_
#define TESTS_EXPOSITION_PARSER_H_

#include <cctype>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace perfiface::testing {

struct ExpositionSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
};

namespace exposition_internal {

inline bool ValidMetricName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || c == ':' || (digit && i > 0))) {
      return false;
    }
  }
  return true;
}

inline bool ValidLabelName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || (digit && i > 0))) {
      return false;
    }
  }
  return true;
}

// HELP text: only \\ and \n escapes are defined; a raw backslash followed
// by anything else is an emitter bug.
inline bool ValidHelpText(const std::string& text) {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\') {
      if (i + 1 >= text.size() || (text[i + 1] != '\\' && text[i + 1] != 'n')) {
        return false;
      }
      ++i;
    }
  }
  return true;
}

}  // namespace exposition_internal

// Parses a whole scrape. Returns false (with a diagnostic naming the
// offending line) on any syntax violation. Samples (not comments) are
// appended to *samples when it is non-null.
inline bool ParseExposition(const std::string& text, std::vector<ExpositionSample>* samples,
                            std::string* error) {
  using exposition_internal::ValidHelpText;
  using exposition_internal::ValidLabelName;
  using exposition_internal::ValidMetricName;
  const auto fail = [&](std::size_t line_no, const std::string& line, const char* why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why + ": " + line;
    }
    return false;
  };
  if (!text.empty() && text.back() != '\n') {
    if (error != nullptr) {
      *error = "scrape does not end with a newline";
    }
    return false;
  }

  std::size_t start = 0;
  std::size_t line_no = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string line = text.substr(start, nl - start);
    start = nl + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }

    if (line[0] == '#') {
      // "# HELP <name> <text>" / "# TYPE <name> <type>" / free comment.
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        const bool is_help = line[2] == 'H';
        const std::size_t name_start = 7;
        const std::size_t name_end = line.find(' ', name_start);
        if (name_end == std::string::npos) {
          return fail(line_no, line, "HELP/TYPE without a payload");
        }
        if (!ValidMetricName(line.substr(name_start, name_end - name_start))) {
          return fail(line_no, line, "bad metric name in HELP/TYPE");
        }
        const std::string payload = line.substr(name_end + 1);
        if (is_help) {
          if (!ValidHelpText(payload)) {
            return fail(line_no, line, "bad escape in HELP text");
          }
        } else if (payload != "counter" && payload != "gauge" && payload != "histogram" &&
                   payload != "summary" && payload != "untyped") {
          return fail(line_no, line, "unknown TYPE");
        }
      }
      continue;
    }

    // Sample line: name[{labels}] value [timestamp]
    ExpositionSample sample;
    std::size_t pos = 0;
    while (pos < line.size() && line[pos] != '{' && line[pos] != ' ') {
      ++pos;
    }
    sample.name = line.substr(0, pos);
    if (!ValidMetricName(sample.name)) {
      return fail(line_no, line, "bad metric name");
    }
    if (pos < line.size() && line[pos] == '{') {
      ++pos;
      while (pos < line.size() && line[pos] != '}') {
        std::size_t eq = pos;
        while (eq < line.size() && line[eq] != '=') {
          ++eq;
        }
        if (eq >= line.size() || eq + 1 >= line.size() || line[eq + 1] != '"') {
          return fail(line_no, line, "label without a quoted value");
        }
        const std::string label = line.substr(pos, eq - pos);
        if (!ValidLabelName(label)) {
          return fail(line_no, line, "bad label name");
        }
        std::string value;
        std::size_t v = eq + 2;
        bool closed = false;
        while (v < line.size()) {
          const char c = line[v];
          if (c == '"') {
            closed = true;
            ++v;
            break;
          }
          if (c == '\\') {
            if (v + 1 >= line.size()) {
              return fail(line_no, line, "truncated escape in label value");
            }
            const char esc = line[v + 1];
            if (esc == '\\') {
              value += '\\';
            } else if (esc == '"') {
              value += '"';
            } else if (esc == 'n') {
              value += '\n';
            } else {
              return fail(line_no, line, "bad escape in label value");
            }
            v += 2;
            continue;
          }
          value += c;
          ++v;
        }
        if (!closed) {
          return fail(line_no, line, "unterminated label value");
        }
        sample.labels[label] = value;
        pos = v;
        if (pos < line.size() && line[pos] == ',') {
          ++pos;
        } else if (pos >= line.size() || line[pos] != '}') {
          return fail(line_no, line, "expected ',' or '}' after label");
        }
      }
      if (pos >= line.size() || line[pos] != '}') {
        return fail(line_no, line, "unterminated label set");
      }
      ++pos;
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return fail(line_no, line, "expected space before sample value");
    }
    ++pos;
    const std::string rest = line.substr(pos);
    const std::size_t value_end = rest.find(' ');
    const std::string value_text = rest.substr(0, value_end);
    char* end = nullptr;
    sample.value = std::strtod(value_text.c_str(), &end);
    if (value_text.empty() || end != value_text.c_str() + value_text.size()) {
      return fail(line_no, line, "bad sample value");
    }
    if (value_end != std::string::npos) {
      // Optional timestamp: a bare integer.
      const std::string ts = rest.substr(value_end + 1);
      if (ts.empty()) {
        return fail(line_no, line, "trailing space without timestamp");
      }
      for (std::size_t i = 0; i < ts.size(); ++i) {
        if (std::isdigit(static_cast<unsigned char>(ts[i])) == 0 && !(i == 0 && ts[i] == '-')) {
          return fail(line_no, line, "bad timestamp");
        }
      }
    }
    if (samples != nullptr) {
      samples->push_back(std::move(sample));
    }
  }
  return true;
}

// The value of the sample `name{labels}` in `scrape`; -1 when absent. A
// scrape that does not parse fails the calling test.
inline double ScrapeValue(const std::string& scrape, const std::string& name,
                          const std::map<std::string, std::string>& labels = {}) {
  std::vector<ExpositionSample> samples;
  std::string error;
  EXPECT_TRUE(ParseExposition(scrape, &samples, &error)) << error;
  for (const ExpositionSample& sample : samples) {
    if (sample.name == name && sample.labels == labels) {
      return sample.value;
    }
  }
  return -1;
}

}  // namespace perfiface::testing

#endif  // TESTS_EXPOSITION_PARSER_H_
