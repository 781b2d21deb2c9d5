// Lines-of-code counting for the Table 1 "complexity" metric.
//
// The paper measures interface complexity as the ratio of LoC in the Petri
// net to LoC in the accelerator implementation. We count non-blank,
// non-comment lines, with comment syntax selected per file kind.
#ifndef SRC_COMMON_LOC_H_
#define SRC_COMMON_LOC_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfiface {

enum class LocSyntax {
  kCpp,      // // and /* */ comments
  kPnet,     // '#' comments (Petri net spec files)
  kScript,   // '#' comments (PerfScript interface programs)
};

// Counts effective LoC in a text blob.
std::size_t CountLoc(std::string_view text, LocSyntax syntax);

// Reads a file and counts its LoC. Aborts if the file cannot be read (the
// complexity bench must not silently report a wrong ratio).
std::size_t CountLocInFile(const std::string& path, LocSyntax syntax);

// Sum of LoC over a list of files with the same syntax.
std::size_t CountLocInFiles(const std::vector<std::string>& paths, LocSyntax syntax);

// Reads a whole file into *contents. On failure (a missing file, a
// directory) returns false with *error = "cannot read <path>: <reason>".
bool ReadFile(const std::string& path, std::string* contents, std::string* error);

// Reads a whole file into a string; aborts on failure.
std::string ReadFileOrDie(const std::string& path);

}  // namespace perfiface

#endif  // SRC_COMMON_LOC_H_
