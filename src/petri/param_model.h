// Parametric memoization: per-component delay curves fitted online.
//
// The exact memo table (src/petri/pnet_memo.h) only pays off when token
// attributes match a previous run bit-for-bit; the Zipf tail of near-miss
// queries re-simulates everything. But the paper's whole premise is that
// an accelerator's latency is a *simple function* of the workload — simple
// enough that a least-squares fit over the memo key's own feature vector
// (the schema-sorted token attributes) recovers it from the exact results
// the memo path computes anyway. This store is that fit: one ridge
// regression per (component structural hash, injection plan), over the
// attributes plus their pairwise products, updated incrementally from
// every exact result the simulation produces (normal equations under a
// shard lock, fixed memory), and consulted on exact-memo misses. It is the
// last tier of the component chain (src/petri/component_tier.h).
//
// Serving an interpolated value is gated three ways, and a refused gate
// falls back to simulation exactly as before (the strict path stays
// bit-identical):
//   1. the model has seen >= min_samples exact results,
//   2. the query lies inside the observed per-attribute hull (clamped
//      extrapolation is refused, never served), and
//   3. the model's running residual bound — the max prequential relative
//      error over a recent window of exact results — is below max_rel_err.
// The gate is fixed when the store is built.
//
// Budget accounting stays conservative: a parametric hit charges the
// maximum firing count ever observed for the model, and the gate refuses
// when that count would exhaust the caller's remaining budget (mirroring
// the exact table's firings < budget rule).
//
// Thread-safety: all methods safe from any thread (sharded mutexes).
#ifndef SRC_PETRI_PARAM_MODEL_H_
#define SRC_PETRI_PARAM_MODEL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/histogram.h"
#include "src/petri/component_tier.h"

namespace perfiface {

// Gate knobs, owned by the caller (ServiceOptions in the serving layer).
struct ParamGate {
  std::size_t min_samples = 32;
  double max_rel_err = 0.02;
};

class ParamModelStore : public ComponentTier {
 public:
  enum class Outcome {
    kHit,         // gate open: the interpolated result is filled in
    kNoModel,     // no model for this key (or attribute arity changed)
    kFewSamples,  // model exists but has < min_samples exact results
    kOutsideHull, // a query attribute lies outside the observed range
    kResidual,    // running residual bound above max_rel_err (or unsolvable)
    kBudget,      // conservative firing charge would exhaust the budget
  };

  explicit ParamModelStore(ParamGate gate = {}, std::size_t max_models = 4096,
                           std::size_t num_shards = 16);

  // Predict / Observe over the query's model key and schema-sorted
  // attributes; a hit's time is rounded to whole cycles.
  bool Lookup(const ComponentQuery& query, std::uint64_t budget, ComponentResult* out) override;
  void Observe(const ComponentQuery& query, const ComponentResult& exact) override;

  // {"models":N,"fits":N,"hits":N,"refused_hull":N,"refused_residual":N}.
  std::string SummaryJson() const override;
  // perfiface_param_memo_models, the perfiface_param_memo_{hits,
  // refused_hull,refused_residual,fits}_total counters and the
  // perfiface_param_memo_rel_err histogram.
  void AppendPrometheus(std::string* out) const override;

  // Feeds one exact component result into the fitter. `attrs` is the
  // schema-sorted attribute vector (the same ordering the memo key uses);
  // its size fixes the model's feature map at creation. Before the update,
  // the current fit is scored against the new ground truth (prequential
  // validation) and the relative error feeds the running residual bound
  // and the perfiface_param_memo_rel_err histogram. Fixed memory: when the
  // store is at max_models, unseen keys are ignored.
  void Observe(const std::string& key, const std::vector<double>& attrs,
               double quiesce_time, std::uint64_t firings);

  // Consults the fitted model. Returns kHit only when every gate opens,
  // and then fills the interpolated time and the conservative firing
  // charge (the max observed for this model, never an extrapolation); any
  // other outcome means the caller must simulate. `budget` is the caller's
  // remaining firing budget (the kBudget gate).
  Outcome Predict(const std::string& key, const std::vector<double>& attrs,
                  std::uint64_t budget, double* quiesce_time, std::uint64_t* firings);

  // The totals behind the perfiface_param_memo_* counters and the
  // /statusz summary.
  std::size_t size() const;
  std::uint64_t fits() const { return fits_.load(std::memory_order_relaxed); }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t refused_hull() const { return refused_hull_.load(std::memory_order_relaxed); }
  std::uint64_t refused_residual() const {
    return refused_residual_.load(std::memory_order_relaxed);
  }

 private:
  // Feature map: 1, x_i, then x_i*x_j (i <= j) when the quadratic
  // expansion fits kMaxFeatures; linear-only otherwise; nets with more
  // attributes than even that allows are not modeled.
  static constexpr std::size_t kMaxFeatures = 64;
  // Residual ring: the gate's "running residual bound" is the max
  // prequential |rel err| over this many most-recent exact results.
  static constexpr std::size_t kResidualWindow = 64;
  // The bound is meaningless until a few post-convergence residuals exist.
  static constexpr std::size_t kMinResiduals = 8;

  struct Model {
    std::size_t n = 0;              // attribute count (fixed at creation)
    std::size_t p = 0;              // feature count (0 = not modelable)
    std::uint64_t count = 0;        // exact results folded in
    std::vector<double> xtx;        // p*p normal matrix, row-major
    std::vector<double> xty;        // p
    std::vector<double> coef;       // p, valid iff solved && solvable
    bool dirty = true;              // xtx/xty changed since last solve
    bool solvable = false;
    std::vector<double> lo, hi;     // per-attribute observed hull
    std::uint64_t max_firings = 0;
    std::array<double, kResidualWindow> residuals{};
    std::uint64_t residual_count = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<Model>> models;
  };

  static std::size_t FeatureCount(std::size_t n);
  static void BuildFeatures(const std::vector<double>& attrs, std::size_t p,
                            std::vector<double>* phi);
  // Equilibrated Cholesky solve of the normal equations with iterative
  // refinement; escalates ridge damping only when the factorization fails,
  // so well-conditioned exact fits (affine nets) are recovered to near
  // machine precision. Updates coef/solvable/dirty.
  static void Solve(Model* m);
  static double ResidualBound(const Model& m);

  Shard& ShardFor(const std::string& key);

  const ParamGate gate_;
  std::size_t max_models_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> total_models_{0};

  std::atomic<std::uint64_t> fits_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> refused_hull_{0};
  std::atomic<std::uint64_t> refused_residual_{0};

  // Prequential |rel err| in obs::kErrorUnit units.
  obs::Histogram rel_err_;
};

}  // namespace perfiface

#endif  // SRC_PETRI_PARAM_MODEL_H_
