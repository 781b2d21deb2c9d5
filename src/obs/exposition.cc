#include "src/obs/exposition.h"

#include <array>
#include <cmath>
#include <cstdio>

namespace perfiface::obs {

namespace {

std::string EscapeExposition(std::string_view in, bool escape_quote) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '"':
        if (escape_quote) {
          out += "\\\"";
        } else {
          out += c;
        }
        break;
      default: out += c;
    }
  }
  return out;
}

// `name{labels} `, without braces when there is no label.
void AppendSeries(std::string* out, std::string_view name, std::string_view labels) {
  out->append(name);
  if (!labels.empty()) {
    out->append("{").append(labels).append("}");
  }
  out->push_back(' ');
}

}  // namespace

std::string EscapeHelpText(std::string_view text) {
  return EscapeExposition(text, /*escape_quote=*/false);
}

std::string EscapeLabelValue(std::string_view value) {
  return EscapeExposition(value, /*escape_quote=*/true);
}

void AppendHeader(std::string* out, std::string_view name, std::string_view type,
                  std::string_view help) {
  out->append("# HELP ").append(name).append(" ").append(EscapeHelpText(help));
  out->append("\n# TYPE ").append(name).append(" ").append(type).append("\n");
}

void AppendSample(std::string* out, std::string_view name, std::string_view labels,
                  std::uint64_t value) {
  AppendSeries(out, name, labels);
  out->append(std::to_string(value)).push_back('\n');
}

void AppendSample(std::string* out, std::string_view name, std::string_view labels,
                  double value) {
  AppendSeries(out, name, labels);
  char text[32];
  std::snprintf(text, sizeof(text), "%.9g\n", value);
  out->append(text);
}

void AppendCounter(std::string* out, std::string_view name, std::string_view help,
                   std::uint64_t value) {
  AppendHeader(out, name, "counter", help);
  AppendSample(out, name, "", value);
}

void AppendGauge(std::string* out, std::string_view name, std::string_view help, double value) {
  AppendHeader(out, name, "gauge", help);
  AppendSample(out, name, "", value);
}

void AppendHistogram(std::string* out, std::string_view name, std::string_view labels,
                     const Histogram& histogram, double unit) {
  const std::string series(name);
  const std::string le = labels.empty() ? "le=\"" : std::string(labels) + ",le=\"";
  const std::array<std::uint64_t, Histogram::kOctaves> octaves = histogram.Octaves();
  std::uint64_t cumulative = 0;
  char edge[32];
  // The last octave lies above the top edge: only +Inf counts it.
  for (std::size_t k = 0; k + 1 < octaves.size(); ++k) {
    if (octaves[k] != 0) {
      cumulative += octaves[k];
      std::snprintf(edge, sizeof(edge), "%.9g\"", std::ldexp(unit, static_cast<int>(k)));
      AppendSample(out, series + "_bucket", le + edge, cumulative);
    }
  }
  // _count and +Inf come from the same bucket snapshot as the edges, so
  // the series stays cumulative under concurrent Record.
  cumulative += octaves.back();
  AppendSample(out, series + "_bucket", le + "+Inf\"", cumulative);
  AppendSample(out, series + "_sum", labels, static_cast<double>(histogram.sum()) * unit);
  AppendSample(out, series + "_count", labels, cumulative);
}

}  // namespace perfiface::obs
