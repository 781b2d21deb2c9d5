// Shadow validation: continuously check the interface's claims.
//
// The paper's interfaces are only useful if they stay faithful to the
// hardware they summarize — conv's triple is calibrated once in
// tests/conv_test.cc (~0.2% pnet / ~1.4% program average error vs the
// cycle-level simulator) and then serves predictions forever. Shadow
// validation closes that loop at runtime: a seeded deterministic 1-in-N
// sampler picks evaluated predictions, re-runs the same workload through
// the registered ground-truth backend (the simulator), and records the
// |relative error| into per-interface histograms. Errors past a
// configurable drift threshold count as violations — the alert line a
// fleet controller watches before routing traffic by interface health.
//
// Backends are pluggable per interface family: conv registers one today
// (src/accel/conv/conv_shadow.h); future accelerator families register
// theirs the same way without touching the serve layer.
#ifndef SRC_SERVE_SHADOW_H_
#define SRC_SERVE_SHADOW_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/obs/histogram.h"
#include "src/serve/request.h"

namespace perfiface::serve {

// Ground truth for one interface family: reconstruct the workload from the
// request and produce the simulator's answer. Returns false (with *error
// set) when the request is outside the backend's vocabulary — such
// requests count as shadow errors, not violations.
using ShadowBackendFn =
    std::function<bool(const PredictRequest& request, double* truth, std::string* error)>;

// Process-wide name -> backend map. Registration typically happens once at
// startup (tools call RegisterConvShadowBackend()); re-registering a name
// replaces the previous backend, which tests use to install recorders.
class ShadowBackendRegistry {
 public:
  static ShadowBackendRegistry& Global();

  void Register(const std::string& interface_name, ShadowBackendFn fn);
  // The registered backend, or an empty function if none.
  ShadowBackendFn Find(const std::string& interface_name) const;

 private:
  ShadowBackendRegistry() = default;
  mutable std::mutex mu_;
  std::unordered_map<std::string, ShadowBackendFn> backends_;
};

struct ShadowOptions {
  // Validate 1 of every `sample_every` evaluated predictions (cache hits
  // are never re-validated — they were sampled when first evaluated).
  // 0 disables shadow validation entirely.
  std::uint64_t sample_every = 0;
  // Seeds the sampling hash: same seed + same query set -> same sampled
  // set, regardless of worker count or interleaving.
  std::uint64_t seed = 0;
  // |relative error| above this is a drift violation.
  double drift_threshold = 0.10;
};

// Per-interface shadow bookkeeping + the deterministic sampler. Owned by
// PredictionService; interface indices match the service's entry order.
// Thread-safe: workers record concurrently.
class ShadowValidator {
 public:
  ShadowValidator(const ShadowOptions& options, std::vector<std::string> interface_names);

  bool enabled() const { return options_.sample_every != 0; }
  const ShadowOptions& options() const { return options_; }

  // Deterministic sampling decision over the canonical cache key: the
  // sampled set depends only on (key set, seed, sample_every), never on
  // thread scheduling. Returns false when disabled.
  bool ShouldSample(std::string_view canonical_key) const;

  struct Outcome {
    bool ran = false;        // a backend existed and produced ground truth
    double truth = 0;
    double rel_err = 0;      // (predicted - truth) / truth, signed
    bool violation = false;  // |rel_err| > drift_threshold
    std::string error;       // backend failure text (ran == false)
  };

  // Re-runs `request` through the registered backend for `interface_name`
  // (if any) and folds the error into interface `idx`'s row.
  Outcome Validate(std::size_t idx, const std::string& interface_name,
                   const PredictRequest& request, double predicted);

  // Totals for tests and /statusz.
  std::uint64_t runs(std::size_t idx) const;
  std::uint64_t violations(std::size_t idx) const;
  std::uint64_t total_violations() const;

  // perfiface_shadow_* exposition: runs/violations/errors totals plus the
  // |relative error| histogram and signed error sum, all labeled by
  // interface. Part of the owning service's scrape.
  void DumpPrometheus(std::string* out) const;

  // {"runs":N,"violations":N,"mean_abs_err":...,"max_abs_err":...} for the
  // /statusz per-interface summary.
  std::string SummaryJson(std::size_t idx) const;

 private:
  struct Row {
    std::uint64_t violations = 0;  // |rel_err| > threshold
    std::uint64_t errors = 0;      // backend missing or failed
    double signed_sum = 0;
    double max_abs = 0;
    // |rel_err| in obs::kErrorUnit units; its count is the runs in which
    // the backend produced ground truth.
    obs::Histogram abs_err;
  };

  ShadowOptions options_;
  std::uint64_t seed_mix_;  // precomputed hash of the seed
  std::vector<std::string> names_;
  mutable std::mutex mu_;
  std::vector<Row> rows_;
};

}  // namespace perfiface::serve

#endif  // SRC_SERVE_SHADOW_H_
