// Interface distillation: closed-form performance interfaces derived from
// the compiled expression IR of a Petri-net component.
//
// The paper argues that an accelerator's latency is usually a *simple
// function* of the workload — simple enough to print on one page (§2, the
// "performance interface" itself). The simulator already carries the
// ingredients: every .pnet transition's delay is a compiled expression
// over token attributes (src/perfscript/compile.h), and a component whose
// guards fold to compile-time constants routes tokens the same way for
// every workload. For such *deterministic-path* components the quiesced
// delay is a fixed linear combination of the per-transition delay
// expressions: quiesce(attrs) = c0 + sum_i c_i * delay_i(attrs), where
// the c_i are (integer) firing/critical-path multiplicities that do not
// depend on the attributes.
//
// The distiller recovers that combination empirically rather than by full
// symbolic path analysis: it probes the component with a handful of
// restricted simulations over scaled attribute vectors (the component
// partition makes each probe exact for the component, see
// src/petri/sim.h), solves the small least-squares system for the c_i,
// and accepts the model only when
//   - every guard in the component is a compile-time constant (an
//     attr-dependent guard means data-dependent routing: refuse),
//   - no transition carries an opaque C++ closure (unhashable nets are
//     never distilled, mirroring the memo layers),
//   - every probe quiesced with the *same* firing count (a drifting count
//     is data-dependent routing the guards did not reveal), and
//   - the fit reproduces every probe to within 0.49 cycles — since true
//     quiesce times are integers, that makes the rounded model *exact* at
//     every probe point.
//
// Serving is hull-gated like the parametric tier (src/petri/param_model.h):
// a query outside the probed per-attribute range is refused, and refusal
// always falls back to bit-identical simulation. Unlike the parametric
// tier the model is not a statistical fit over observed traffic: it is a
// closed form over the same compiled expressions the simulator would have
// evaluated, derived once per model key (component hash + injection plan,
// src/petri/component_tier.h) on the key's first lookup and also rendered
// as a PerfScript program (ProgramText) — the distilled human-readable
// interface.
//
// Thread-safety: all methods safe from any thread (sharded mutexes).
#ifndef SRC_PETRI_DISTILL_H_
#define SRC_PETRI_DISTILL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/petri/component_tier.h"

namespace perfiface {

class DerivedStore : public ComponentTier {
 public:
  enum class Outcome {
    kHit,          // *out is the closed-form result
    kNoModel,      // nothing distilled for this key yet
    kRefused,      // distillation was attempted and refused (cached)
    kOutsideHull,  // query attribute outside the probed range
    kEvalFailed,   // a feature expression failed on these attributes
    kBudget,       // firing charge would exhaust the caller's budget
  };

  explicit DerivedStore(std::size_t max_models = 1024, std::size_t num_shards = 16);

  // Serves the closed form for the query's model key, distilling it on the
  // key's first lookup. Every outcome short of kHit is a miss.
  bool Lookup(const ComponentQuery& query, std::uint64_t budget, ComponentResult* out) override;
  // Closed forms come from probing, not from traffic: nothing to learn.
  void Observe(const ComponentQuery&, const ComponentResult&) override {}

  // {"models":N,"distilled":N,"refusals":N,"hits":N}.
  std::string SummaryJson() const override;
  // perfiface_derived_{hits,refusals,distilled}_total.
  void AppendPrometheus(std::string* out) const override;

  // Attempts to distill the query's component into a closed form, probing
  // with restricted simulations seeded from the query token's attribute
  // vector. The outcome — model or refusal — is cached under the model
  // key, so at most one distillation runs per key (concurrent callers for
  // the same key may both probe; the first insert wins, both results are
  // equivalent). Returns true when a servable model exists afterwards.
  // Counts a distillation or a refusal.
  bool Distill(const ComponentQuery& query);

  // Serves the closed form under `model_key`. kHit fills *out and counts a
  // hit; every other outcome counts a refusal and means the caller must
  // fall back (simulate / lower tier), which is always bit-identical to
  // this tier being off.
  Outcome Predict(const std::string& model_key, const Token& token, std::uint64_t budget,
                  ComponentResult* out);

  // The derived interface rendered as a PerfScript program (the paper's
  // one-page closed form), or "" when the key has no model
  // (docs/serving.md "Unified expression IR & derived interfaces").
  std::string ProgramText(const std::string& key) const;

  // Why the key's distillation was refused ("" when it succeeded or never
  // ran). Debugging/tests; refusal text is not a stable API.
  std::string RefusalReason(const std::string& key) const;

  std::size_t size() const;  // cached entries (models + refusals)
  std::uint64_t distilled() const { return distilled_.load(std::memory_order_relaxed); }
  std::uint64_t refusals() const { return refusals_.load(std::memory_order_relaxed); }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  // One delay expression serving as a fit feature. The expression is
  // co-owned (TransitionSpec::delay_compiled is a shared_ptr) so a cached
  // model survives the net it was distilled from.
  struct Feature {
    std::shared_ptr<const CompiledExpr> expr;
    std::string text;  // infix rendering, for ProgramText
  };

  struct Model {
    bool ok = false;            // false: cached refusal
    std::string refusal;        // why, when !ok
    // False for a refusal caused by the seed token's values making an
    // expression fail (division by zero, delay out of range): the request
    // that triggered it fails the same way in simulation, and nothing from
    // a failed evaluation may stay in the store.
    bool cacheable = true;
    std::vector<Feature> features;
    std::vector<double> coef;   // 1 + features.size() entries (intercept first)
    // Probed per-attribute hull: (slot, lo, hi); queries outside refuse.
    std::vector<std::uint32_t> hull_slots;
    std::vector<double> hull_lo, hull_hi;
    std::uint64_t firings = 0;  // constant across probes
    std::string program;        // PerfScript rendering
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const Model>> models;
  };

  // Builds the model (or a refusal) by probing; pure of store state.
  static std::shared_ptr<const Model> BuildModel(const ComponentQuery& query);

  Shard& ShardFor(const std::string& key) const;
  std::shared_ptr<const Model> Find(const std::string& key) const;

  std::size_t max_models_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> total_models_{0};

  std::atomic<std::uint64_t> distilled_{0};
  std::atomic<std::uint64_t> refusals_{0};
  std::atomic<std::uint64_t> hits_{0};
};

}  // namespace perfiface

#endif  // SRC_PETRI_DISTILL_H_
