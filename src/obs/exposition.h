// The Prometheus text exposition every scrape is written with.
//
// There is no process-wide registry: each count is kept by the object that
// does the work and rendered into that object's own scrape — a service
// (PredictionService::StatsPrometheus), a network front end (GET /metrics)
// or a tool's --metrics for its one run — through the writers below
// (docs/observability.md "Prometheus exposition").
//
// The text format follows the Prometheus exposition format v0.0.4
// (`# HELP` / `# TYPE` comments, `name{labels} value` samples).
#ifndef SRC_OBS_EXPOSITION_H_
#define SRC_OBS_EXPOSITION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/obs/histogram.h"

namespace perfiface::obs {

// Exposition-format escaping (v0.0.4). HELP text escapes backslash and
// newline; label values additionally escape the double quote. Every emitter
// of free-form text into a scrape (HELP strings, interface-name labels)
// must route through these — an unescaped quote or newline corrupts the
// whole scrape for the parser.
std::string EscapeHelpText(std::string_view text);
std::string EscapeLabelValue(std::string_view value);

// Exposition writers. `labels` is a rendered label list without braces
// (`interface="jpeg"`), its values already escaped, or empty.
//
// The `# HELP` and `# TYPE` lines of a family whose samples follow.
void AppendHeader(std::string* out, std::string_view name, std::string_view type,
                  std::string_view help);
// One sample line, `name{labels} value`.
void AppendSample(std::string* out, std::string_view name, std::string_view labels,
                  std::uint64_t value);
void AppendSample(std::string* out, std::string_view name, std::string_view labels,
                  double value);
// An unlabelled counter or gauge family: its HELP and TYPE lines and sample.
void AppendCounter(std::string* out, std::string_view name, std::string_view help,
                   std::uint64_t value);
void AppendGauge(std::string* out, std::string_view name, std::string_view help, double value);
// One histogram series (the family's header is the caller's): cumulative
// `_bucket` lines at the power-of-two edges le = 2^k * unit, skipping edges
// whose octave is empty, then `+Inf`, `_sum` and `_count`. `unit` converts
// a recorded value to the exported one (1e-9 for ns -> seconds,
// kErrorUnit for relative errors).
void AppendHistogram(std::string* out, std::string_view name, std::string_view labels,
                     const Histogram& histogram, double unit);

}  // namespace perfiface::obs

#endif  // SRC_OBS_EXPOSITION_H_
