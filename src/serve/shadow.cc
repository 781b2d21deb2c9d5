#include "src/serve/shadow.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/strings.h"
#include "src/obs/exposition.h"
#include "src/obs/trace.h"

namespace perfiface::serve {

namespace {

std::uint64_t Fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ShadowBackendRegistry& ShadowBackendRegistry::Global() {
  static ShadowBackendRegistry* registry = new ShadowBackendRegistry();  // never destroyed
  return *registry;
}

void ShadowBackendRegistry::Register(const std::string& interface_name, ShadowBackendFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  backends_[interface_name] = std::move(fn);
}

ShadowBackendFn ShadowBackendRegistry::Find(const std::string& interface_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = backends_.find(interface_name);
  return it == backends_.end() ? ShadowBackendFn() : it->second;
}

ShadowValidator::ShadowValidator(const ShadowOptions& options,
                                 std::vector<std::string> interface_names)
    : options_(options), seed_mix_(Mix64(options.seed)), names_(std::move(interface_names)),
      rows_(names_.size()) {}

bool ShadowValidator::ShouldSample(std::string_view canonical_key) const {
  if (options_.sample_every == 0) {
    return false;
  }
  if (options_.sample_every == 1) {
    return true;
  }
  return Mix64(Fnv1a64(canonical_key) ^ seed_mix_) % options_.sample_every == 0;
}

ShadowValidator::Outcome ShadowValidator::Validate(std::size_t idx,
                                                   const std::string& interface_name,
                                                   const PredictRequest& request,
                                                   double predicted) {
  Outcome outcome;
  const ShadowBackendFn backend = ShadowBackendRegistry::Global().Find(interface_name);
  if (!backend) {
    outcome.error = "no shadow backend registered";
    std::lock_guard<std::mutex> lock(mu_);
    ++rows_[idx].errors;
    return outcome;
  }

  double truth = 0;
  std::string error;
  {
    obs::SpanGuard span("serve", "shadow");
    if (span.active()) {
      span.SetArg("interface", interface_name);
    }
    if (!backend(request, &truth, &error)) {
      outcome.error = error.empty() ? "shadow backend failed" : error;
      std::lock_guard<std::mutex> lock(mu_);
      ++rows_[idx].errors;
      return outcome;
    }
  }

  outcome.ran = true;
  outcome.truth = truth;
  // A zero-truth prediction can't be expressed as relative error; treat any
  // nonzero prediction against it as maximal drift.
  if (truth == 0) {
    outcome.rel_err = predicted == 0 ? 0 : std::numeric_limits<double>::infinity();
  } else {
    outcome.rel_err = (predicted - truth) / truth;
  }
  const double abs_err = std::abs(outcome.rel_err);
  outcome.violation = abs_err > options_.drift_threshold;
  if (outcome.violation) {
    obs::Tracer::Global().Instant("serve", "shadow_violation", "rel_err", outcome.rel_err,
                                  "interface", interface_name);
  }

  std::lock_guard<std::mutex> lock(mu_);
  Row& row = rows_[idx];
  if (outcome.violation) {
    ++row.violations;
  }
  row.signed_sum += outcome.rel_err;
  row.max_abs = std::max(row.max_abs, abs_err);
  row.abs_err.Record(obs::ErrorUnits(abs_err));
  return outcome;
}

std::uint64_t ShadowValidator::runs(std::size_t idx) const {
  return rows_[idx].abs_err.count();
}

std::uint64_t ShadowValidator::violations(std::size_t idx) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_[idx].violations;
}

std::uint64_t ShadowValidator::total_violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const Row& row : rows_) {
    n += row.violations;
  }
  return n;
}

void ShadowValidator::DumpPrometheus(std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> labels(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    labels[i] = "interface=\"" + obs::EscapeLabelValue(names_[i]) + "\"";
  }
  // Rows that never sampled stay out of the scrape; the error-shaped
  // families also skip rows whose backend never produced ground truth.
  const auto counter = [&](const char* name, const char* help,
                           std::uint64_t (*value)(const Row&)) {
    obs::AppendHeader(out, name, "counter", help);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i].abs_err.count() != 0 || rows_[i].errors != 0) {
        obs::AppendSample(out, name, labels[i], value(rows_[i]));
      }
    }
  };
  counter("perfiface_shadow_runs_total", "Shadow validations that produced ground truth.",
          [](const Row& row) { return row.abs_err.count(); });
  counter("perfiface_shadow_violations_total",
          "Shadow validations whose |relative error| exceeded the drift threshold.",
          [](const Row& row) { return row.violations; });
  counter("perfiface_shadow_errors_total",
          "Sampled requests whose shadow backend was missing or failed.",
          [](const Row& row) { return row.errors; });

  obs::AppendHeader(out, "perfiface_shadow_error_abs", "histogram",
                    "|relative error| of shadowed predictions vs the simulator.");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].abs_err.count() != 0) {
      obs::AppendHistogram(out, "perfiface_shadow_error_abs", labels[i], rows_[i].abs_err,
                           obs::kErrorUnit);
    }
  }
  obs::AppendHeader(out, "perfiface_shadow_error_signed_sum", "gauge",
                    "Sum of signed relative errors (bias direction; divide by runs for the "
                    "mean).");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].abs_err.count() != 0) {
      obs::AppendSample(out, "perfiface_shadow_error_signed_sum", labels[i],
                        rows_[i].signed_sum);
    }
  }
}

std::string ShadowValidator::SummaryJson(std::size_t idx) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Row& row = rows_[idx];
  return StrFormat(
      "{\"runs\":%llu,\"violations\":%llu,\"errors\":%llu,\"mean_abs_err\":%.9g,"
      "\"max_abs_err\":%.9g}",
      static_cast<unsigned long long>(row.abs_err.count()),
      static_cast<unsigned long long>(row.violations),
      static_cast<unsigned long long>(row.errors), row.abs_err.mean() * obs::kErrorUnit,
      row.max_abs);
}

}  // namespace perfiface::serve
