// Process-wide counters of the library layers, and the Prometheus text
// exposition every scrape is written with.
//
// The registry holds monotonic uint64 totals that the layers below any one
// service — the PerfScript interpreter, parser and compiler, the Petri-net
// simulator, the cycle-level engine, the conv simulator and the network
// front end — bump with relaxed atomics. Handles are looked up once
// (function-local static) so the hot path is a single fetch_add. State
// owned by a service (its request and VM counts, shadow validation and
// component tiers) is not here: the service renders it into its own scrape
// after these counters (PredictionService::StatsPrometheus,
// docs/observability.md).
//
// The text format follows the Prometheus exposition format v0.0.4
// (`# HELP` / `# TYPE` comments, `name{labels} value` samples).
#ifndef SRC_OBS_METRICS_REGISTRY_H_
#define SRC_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

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

class MetricsRegistry {
 public:
  // A monotonic counter; Add is wait-free.
  class Counter {
   public:
    void Add(std::uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
    void Increment() { Add(1); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

   private:
    friend class MetricsRegistry;
    Counter(std::string name, std::string help)
        : name_(std::move(name)), help_(std::move(help)) {}
    std::string name_;
    std::string help_;
    std::atomic<std::uint64_t> value_{0};
  };

  static MetricsRegistry& Global();

  // Returns the counter registered under `name`, creating it on first use
  // (subsequent calls ignore `help`). The reference stays valid for the
  // registry's lifetime. Thread-safe; cache the reference on hot paths.
  Counter& GetCounter(const std::string& name, const std::string& help);

  // The build-info gauges, then every registered counter.
  std::string RenderPrometheus() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Counter>> counters_;
};

}  // namespace perfiface::obs

#endif  // SRC_OBS_METRICS_REGISTRY_H_
