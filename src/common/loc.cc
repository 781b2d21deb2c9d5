#include "src/common/loc.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace perfiface {
namespace {

bool LineIsCode(std::string_view line, LocSyntax syntax, bool* in_block_comment) {
  std::string_view s = StripWhitespace(line);
  if (s.empty()) {
    return false;
  }
  if (syntax == LocSyntax::kPnet || syntax == LocSyntax::kScript) {
    return s[0] != '#';
  }
  // C++: handle // line comments and a conservative /* */ block scan.
  if (*in_block_comment) {
    const auto end = s.find("*/");
    if (end == std::string_view::npos) {
      return false;
    }
    *in_block_comment = false;
    s = StripWhitespace(s.substr(end + 2));
    return !s.empty() && !StartsWith(s, "//");
  }
  if (StartsWith(s, "//")) {
    return false;
  }
  if (StartsWith(s, "/*")) {
    const auto end = s.find("*/", 2);
    if (end == std::string_view::npos) {
      *in_block_comment = true;
      return false;
    }
    s = StripWhitespace(s.substr(end + 2));
    return !s.empty() && !StartsWith(s, "//");
  }
  return true;
}

}  // namespace

std::size_t CountLoc(std::string_view text, LocSyntax syntax) {
  std::size_t loc = 0;
  bool in_block = false;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      if (LineIsCode(text.substr(start, i - start), syntax, &in_block)) {
        ++loc;
      }
      start = i + 1;
    }
  }
  return loc;
}

bool ReadFile(const std::string& path, std::string* contents, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  bool ok = file != nullptr;
  int reason = errno;
  if (ok) {
    contents->clear();
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
      contents->append(buffer, n);
    }
    ok = std::ferror(file) == 0;
    reason = errno;
    std::fclose(file);
  }
  if (!ok) {
    *error = StrFormat("cannot read %s: %s", path.c_str(), std::strerror(reason));
  }
  return ok;
}

std::string ReadFileOrDie(const std::string& path) {
  std::string contents;
  std::string error;
  PI_CHECK_MSG(ReadFile(path, &contents, &error), error.c_str());
  return contents;
}

std::size_t CountLocInFile(const std::string& path, LocSyntax syntax) {
  return CountLoc(ReadFileOrDie(path), syntax);
}

std::size_t CountLocInFiles(const std::vector<std::string>& paths, LocSyntax syntax) {
  std::size_t total = 0;
  for (const auto& p : paths) {
    total += CountLocInFile(p, syntax);
  }
  return total;
}

}  // namespace perfiface
