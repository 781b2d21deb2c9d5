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
// key is the component's model key (ComponentQuery below) plus the
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
// A pnet query is answered one weakly-connected component at a time
// (components share no places, src/petri/compiled_net.h): the service asks
// this store for each component and simulates the ones it refuses.
//
// Thread-safety: a ComponentQuery belongs to one request, a WorkerMemo to
// one thread; all DerivedStore methods are safe from any thread (sharded
// mutexes; models are immutable once stored and never evicted).
#ifndef SRC_PETRI_DISTILL_H_
#define SRC_PETRI_DISTILL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/petri/compiled_net.h"
#include "src/petri/token.h"

namespace perfiface {

// The event horizon of every component evaluation, far beyond any real
// prediction: the service simulates up to it, and the store must not
// answer a component whose run would pass it (that run does not quiesce).
constexpr Cycles kComponentRunHorizon = static_cast<Cycles>(1) << 40;

// A component's time of last completion and what its run cost in firings.
struct ComponentResult {
  Cycles quiesce_time = 0;
  std::uint64_t firings = 0;
};

// One component of one request and its model key: the component's
// structural hash + the injection plan restricted to the component, as
// sorted, duplicate-merged (component-local place, count) items. The key
// identifies a derived model; the attributes are its inputs and never
// enter the key. Select points the query at a component and rebuilds the
// key in place. Borrows the net, token and injections.
class ComponentQuery {
 public:
  ComponentQuery(const CompiledNet& net, const Token& token,
                 const std::vector<std::pair<PlaceId, int>>& injections)
      : net_(net), token_(token), injections_(injections) {}

  void Select(std::size_t component);

  const CompiledNet& net() const { return net_; }
  std::size_t component() const { return component_; }
  const Token& token() const { return token_; }
  const std::vector<std::pair<PlaceId, int>>& injections() const { return injections_; }
  const std::string& model_key() const { return model_key_; }

 private:
  const CompiledNet& net_;
  const Token& token_;
  const std::vector<std::pair<PlaceId, int>>& injections_;
  std::vector<std::pair<std::uint32_t, long long>> plan_;  // Select's scratch
  std::size_t component_ = 0;
  std::string model_key_;
};

class DerivedStore {
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
  ~DerivedStore();

  // One worker's lookup state: per component, the model its last lookup
  // resolved and that lookup's store key; scratch for the key and the
  // delay table; and the worker's hit and refusal counts, which the
  // store's readers sum. Only its worker uses it, so a repeated key is
  // served without the shard lock and without a write to a shared line
  // (models are never evicted while the store lives). The store owns it.
  struct WorkerMemo;
  WorkerMemo* NewWorkerMemo();

  // {"models":N,"distilled":N,"refusals":N,"hits":N}: the /statusz object.
  std::string SummaryJson() const;
  // perfiface_derived_{hits,refusals,distilled}_total, counting this
  // store's events only, in the scrape of the service that owns it.
  void AppendPrometheus(std::string* out) const;

  // Serves the query's component from its compiled program, compiling it
  // on the key's first lookup. kHit fills *out and counts a hit; every
  // other outcome counts a refusal. Three rules keep the answers equal to
  // simulation:
  //   - A hit's `firings` is strictly below the caller's remaining budget
  //     (PetriSim reports exhaustion at exactly the budget), so a hit
  //     never hides a budget exhaustion the simulation would have reported.
  //   - A refusal changes nothing the caller sees: the simulation answers,
  //     bit-identically to the store being off.
  //   - A model is only compiled from a recording run that quiesced.
  // `memo` is the calling worker's (NewWorkerMemo), or null for a caller
  // without one.
  Outcome Predict(const ComponentQuery& query, std::uint64_t budget, ComponentResult* out,
                  WorkerMemo* memo = nullptr);

  // The query's compiled program rendered as PerfScript — `def latency`
  // over the net's attributes in name order — or "" when its key has no
  // accepted model.
  std::string ProgramText(const ComponentQuery& query) const;
  // Why the query's key was refused ("" when accepted or never compiled).
  // Debugging and tests; the text is not a stable API.
  std::string RefusalReason(const ComponentQuery& query) const;

  std::size_t size() const;  // stored models, refusals included
  std::uint64_t distilled() const { return distilled_.load(std::memory_order_relaxed); }
  std::uint64_t refusals() const;
  std::uint64_t hits() const;

 private:
  struct Model;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::unique_ptr<const Model>> models;
  };

  // The store key of the query: its model key, followed by the outcome of
  // every attribute-dependent guard of the component on the request token.
  // Null when such a guard fails on the token. Points at the model key or
  // at *keyed, which it builds.
  static const std::string* KeyOf(const ComponentQuery& query, std::string* keyed);
  // Predict without the counting: resolves the key through `memo`.
  Outcome Lookup(const ComponentQuery& query, std::uint64_t budget, ComponentResult* out,
                 WorkerMemo* memo);
  // Compiles the component or explains why not; pure of store state.
  static std::unique_ptr<Model> Compile(const ComponentQuery& query);
  // Evaluates an accepted model on the token's attributes, in the memo's
  // scratch.
  static Outcome Evaluate(const Model& model, const Token& token, std::uint64_t budget,
                          ComponentResult* out, WorkerMemo* memo);
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
  // Counts of the lookups made without a memo.
  std::atomic<std::uint64_t> refusals_{0};
  std::atomic<std::uint64_t> hits_{0};
  mutable std::mutex memos_mu_;
  std::vector<std::unique_ptr<WorkerMemo>> memos_;
};

}  // namespace perfiface

#endif  // SRC_PETRI_DISTILL_H_
