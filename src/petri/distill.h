// The exact derived tier: race-free Petri-net components compiled to
// max-plus programs.
//
// The paper argues that an accelerator's latency is a *simple function* of
// the workload — simple enough to print on one page (§2, the "performance
// interface" itself). For a large class of components the simulator
// already proves it: when no firing of a run depended on which of two
// concurrent events happened first, the run's firing DAG is the same for
// every attribute vector, and the time of every firing is a max-plus
// expression over the delays (timed event graphs are linear in max-plus
// algebra; Baccelli et al., "Synchronization and Linearity", 1992). A
// firing starts at the max of its enabling events — the completion of each
// consumed token's producer, its server's release, the start of the
// consumer that freed each bounded output slot — and ends its delay later.
//
// On a key's first lookup the store runs one recording simulation
// (PetriSim with a FiringLog) and accepts the component only when its
// firing DAG is race-free:
//   - every order the engine settled by comparing timestamps follows from
//     happens-before in the DAG (per-transition vector clocks): token order
//     within a place, and the order in which producers took a bounded
//     place's room;
//   - no place has two consumer transitions enabled under the key;
//   - no transition has more than one server;
//   - re-evaluating the DAG with the recorded delays reproduces every
//     recorded start time.
// Guards become per-request constants: the service injects copies of one
// token, so a guard over request tokens takes one value per request. The
// key is the component's model key (src/petri/component_tier.h) plus the
// outcome of every attribute-dependent guard on the request token; a
// guarded transition that can take an initial-marking token (all-zero
// attributes) as its primary input is refused.
//
// The accepted DAG lowers to a flat table — per firing a delay slot and up
// to three predecessor times — evaluated in one max/add pass after each
// distinct delay expression is evaluated once, with the engine's
// llround, [0, 1e15) and error contract. Serving refuses, and the caller
// falls back to bit-identical simulation, on an expression error, on
// firings at or above the remaining budget, on a completion past the run
// horizon, and on the per-model and per-store caps. ProgramText renders
// the recurrence as a PerfScript program: the derived interface a person
// can read.
//
// Thread-safety: all methods safe from any thread (sharded mutexes; models
// are immutable once stored and never evicted).
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
    kHit,         // *out is the component's exact result
    kRefused,     // the component is not compilable under this key (cached)
    kEvalFailed,  // a delay or guard failed on these attributes
    kBudget,      // firings at or above the caller's remaining budget
    kHorizon,     // a completion lies past the run horizon
    kFull,        // the store holds max_models models already
  };

  // Per-model cap on recorded firings. With every delay below 1e15, a
  // chain of this many firings cannot overflow Cycles.
  static constexpr std::uint64_t kMaxModelFirings = 1 << 14;

  explicit DerivedStore(std::size_t max_models = 1024, std::size_t num_shards = 16);
  ~DerivedStore() override;

  // Predict() == kHit.
  bool Lookup(const ComponentQuery& query, std::uint64_t budget, ComponentResult* out) override;
  // Models come from their own recording run, not from traffic.
  void Observe(const ComponentQuery&, const ComponentResult&) override {}

  // {"models":N,"distilled":N,"refusals":N,"hits":N}.
  std::string SummaryJson() const override;
  // perfiface_derived_{hits,refusals,distilled}_total.
  void AppendPrometheus(std::string* out) const override;

  // Serves the query's component from its compiled program, compiling it
  // on the key's first lookup. kHit fills *out and counts a hit; every
  // other outcome counts a refusal.
  Outcome Predict(const ComponentQuery& query, std::uint64_t budget, ComponentResult* out);

  // The query's compiled program rendered as PerfScript — `def latency`
  // over the net's attributes in name order — or "" when its key has no
  // accepted model.
  std::string ProgramText(const ComponentQuery& query) const;
  // Why the query's key was refused ("" when accepted or never compiled).
  // Debugging and tests; the text is not a stable API.
  std::string RefusalReason(const ComponentQuery& query) const;

  std::size_t size() const;  // stored models, refusals included
  std::uint64_t distilled() const { return distilled_.load(std::memory_order_relaxed); }
  std::uint64_t refusals() const { return refusals_.load(std::memory_order_relaxed); }
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  struct Model;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<const Model>> models;
  };

  // The store key of the query: its model key, followed by the outcome of
  // every attribute-dependent guard of the component on the request token.
  // Null when the model key is empty (unhashable net) or a guard fails on
  // the token. Points at the model key or at thread-local storage.
  static const std::string* KeyOf(const ComponentQuery& query);
  // Compiles the component or explains why not; pure of store state.
  static std::unique_ptr<Model> Compile(const ComponentQuery& query);
  // Evaluates an accepted model on the token's attributes.
  static Outcome Evaluate(const Model& model, const Token& token, std::uint64_t budget,
                          ComponentResult* out);
  // Fills every delay slot; false when an expression fails or leaves
  // [0, 1e15), as the engine would report.
  static bool EvalDelays(const Model& model, const Token& token, std::vector<Cycles>* delays);
  // The one max/add pass: fills every start and end, returns the last end.
  static Cycles RunTable(const Model& model, const Cycles* delays, std::vector<Cycles>* times);
  static std::string Render(const Model& model, const CompiledNet& net);

  Shard& ShardFor(const std::string& key) const;
  const Model* Find(const std::string& key) const;

  std::size_t max_models_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> total_models_{0};

  std::atomic<std::uint64_t> distilled_{0};
  std::atomic<std::uint64_t> refusals_{0};
  std::atomic<std::uint64_t> hits_{0};
};

}  // namespace perfiface

#endif  // SRC_PETRI_DISTILL_H_
