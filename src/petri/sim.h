// Event-driven simulator for timed Petri nets.
//
// Cost is proportional to the number of firings (tokens processed), not to
// simulated cycles. This is why a Petri-net performance interface can be
// orders of magnitude faster than a cycle-accurate simulation of the same
// accelerator while predicting the same latency/throughput (paper §3).
//
// The firing loop runs over a CompiledNet (src/petri/compiled_net.h): flat
// arc arrays, CSR watchers, precomputed capacity-consumption weights. The
// PetriNet* constructor compiles on the spot for one-off use; services
// answering many queries over the same net should compile once and share
// the CompiledNet across sims (it is immutable).
#ifndef SRC_PETRI_SIM_H_
#define SRC_PETRI_SIM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/small_vec.h"
#include "src/common/types.h"
#include "src/petri/compiled_net.h"
#include "src/petri/net.h"

namespace perfiface {

// A token deposit observed at an instrumented place.
struct Arrival {
  Cycles time = 0;
  Token token;
};

// What enabled each firing of one run: the firing DAG the exact derived
// tier compiles (src/petri/distill.h). Attach it with
// PetriSim::set_firing_log before Run; a sim without a log pays one pointer
// test per firing. Firings are numbered in start order.
class FiringLog {
 public:
  // Producer of a token that no firing made: a request copy injected at
  // time 0, or an initial-marking token.
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  struct Firing {
    std::uint32_t transition = 0;
    Cycles start = 0;
    Cycles delay = 0;
    // The primary input token descends from the initial marking, so its
    // delay and guard read all-zero attributes, not the request's.
    bool primary_initial = false;
    // Producer firing of every consumed token, in input-arc order.
    SmallVec<std::uint32_t, 4> producers;
    // Per bounded output arc: the firing whose start popped the unit of
    // room this firing needed last (kNone when the room was free at t=0 or
    // freed by this firing's own pops).
    SmallVec<std::uint32_t, 2> room_from;
  };

  const std::vector<Firing>& firings() const { return firings_; }
  // Per place: the producer firing of every deposit, in deposit order
  // (initial and injected tokens precede them all).
  const std::vector<std::vector<std::uint32_t>>& deposits() const { return deposits_; }
  // Per bounded place: the firings that took room in it, in order.
  const std::vector<std::vector<std::uint32_t>>& room_takers() const { return room_takers_; }
  // Per place: how many tokens firings popped from it.
  std::size_t pops(PlaceId place) const { return popped_by_[place].size(); }

 private:
  friend class PetriSim;

  struct Shadow {
    std::uint32_t producer = kNone;
    bool initial = false;
  };

  void Reset(const CompiledNet& net);
  void Inject(PlaceId place);
  // Called with the firing's tokens still in their places.
  std::uint32_t Start(const CompiledNet& net, TransitionId t, Cycles now, Cycles delay);
  void Complete(const CompiledNet& net, std::uint32_t firing);

  std::vector<Firing> firings_;
  std::vector<std::vector<std::uint32_t>> deposits_;
  std::vector<std::vector<std::uint32_t>> room_takers_;
  // Shadow of each place's token FIFO: who made each token.
  std::vector<std::deque<Shadow>> shadow_;
  // Units of room ever taken in each place (marking, injections, firings)
  // and the firing behind each pop, in pop order.
  std::vector<std::uint64_t> taken_;
  std::vector<std::vector<std::uint32_t>> popped_by_;
};

class PetriSim {
 public:
  // Runs every component of the net (the default).
  static constexpr std::size_t kAllComponents = static_cast<std::size_t>(-1);

  // Compiles the net privately; convenient for one-off simulations.
  explicit PetriSim(const PetriNet* net);

  // Shares a pre-compiled net (must outlive the sim). When `component` is
  // given, only that weakly-connected component's transitions may fire:
  // disconnected components evolve independently, so a restricted run
  // predicts exactly what the full run predicts for that component (the
  // basis for the per-component derived tier, src/petri/distill.h).
  explicit PetriSim(const CompiledNet* compiled, std::size_t component = kAllComponents);

  // Deposits a token into a place at the current time. Typically used to
  // enqueue the workload (requests/stripes/instructions) before Run.
  void Inject(PlaceId place, Token token);
  // Injects `count` copies of `token` per (place, count) item of a plan,
  // skipping places outside the run's component: one request's whole plan
  // drives each of its component runs.
  void InjectPlan(const std::vector<std::pair<PlaceId, int>>& plan, const Token& token);

  // Marks a place as observed: every deposit into it is logged.
  void Observe(PlaceId place);

  // Runs until no transition can fire and no firing is in flight, or until
  // `max_time`. Returns true if the net quiesced; false if it ran out of
  // time or of the firing budget (see set_max_firings), or stopped on an
  // expression error (see error()).
  bool Run(Cycles max_time);

  // Resets all state (markings back to initial, logs cleared, time to 0).
  void Reset();

  Cycles now() const { return now_; }
  std::uint64_t total_firings() const { return total_firings_; }

  const std::vector<Arrival>& arrivals(PlaceId place) const;
  std::size_t tokens_at(PlaceId place) const;

  // Safety valve against pathological zero-delay loops in authored nets:
  // once the budget is hit the run stops cleanly (Run returns false) so
  // services evaluating untrusted nets can reject them without aborting.
  void set_max_firings(std::uint64_t m) { max_firings_ = m; }
  bool firing_budget_exhausted() const { return budget_exhausted_; }

  // Records every firing's enabling events into `log` (null: none); attach
  // it before injecting. The log must outlive the run.
  void set_firing_log(FiringLog* log);

  // A compiled delay or guard that divides or takes a modulo by zero, or a
  // delay outside [0, 1e15), stops the run the same clean way (Run returns
  // false). Empty unless that happened; otherwise names the transition,
  // e.g. "transition 'vld': delay: line 1: division by zero".
  const std::string& error() const { return error_; }

 private:
  struct Firing {
    TransitionId transition = 0;
    std::uint32_t logged = 0;  // index in log_, when one is attached
    Token primary;             // copied to every output arc on completion
  };

  // Heap entries reference slab slots so that sifting moves 24 bytes, not
  // whole token sets.
  struct EventRef {
    Cycles complete_at = 0;
    std::uint64_t seq = 0;  // tie-break for determinism
    std::uint32_t slot = 0;
  };

  // Min-heap order (std::push_heap builds a max-heap, so invert).
  struct FiringOrder {
    bool operator()(const EventRef& a, const EventRef& b) const {
      if (a.complete_at != b.complete_at) {
        return a.complete_at > b.complete_at;
      }
      return a.seq > b.seq;
    }
  };

  struct PlaceState {
    std::deque<Token> tokens;
    std::size_t reserved = 0;  // output reservations of in-flight firings
    bool observed = false;
    std::vector<Arrival> log;
  };

  // Attempts to start one firing of transition `t`; returns true on success.
  bool TryStart(TransitionId t);
  // Prefixes the expression error in error_ with the transition and the
  // failing annotation, and stops the run. Returns false (no firing).
  bool Fail(TransitionId t, const char* what);
  // Starts every enabled firing until fixpoint (worklist-driven: only
  // transitions whose neighbourhood changed are re-examined).
  void StartAll();
  void Complete(const Firing& f);
  void Deposit(PlaceId place, Token token);
  void MarkPlaceChanged(PlaceId place);
  void MarkTransition(TransitionId t);

  std::unique_ptr<CompiledNet> owned_;  // only the PetriNet* constructor
  const CompiledNet* cnet_;
  std::size_t component_ = kAllComponents;
  Cycles now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t total_firings_ = 0;
  std::uint64_t max_firings_ = 500'000'000;
  bool budget_exhausted_ = false;
  std::string error_;
  FiringLog* log_ = nullptr;
  // Allocates a slab slot for an in-flight firing and schedules it.
  Firing& ScheduleFiring(Cycles complete_at);

  std::vector<PlaceState> places_;
  std::vector<std::size_t> busy_servers_;
  // Manual binary heap of slab references (earliest completion first).
  std::vector<EventRef> events_;
  std::vector<Firing> slab_;
  std::vector<std::uint32_t> free_slots_;

  // Enablement worklist; the watcher table lives in the compiled net.
  std::vector<bool> pending_;
};

// The simulations one owner ran: a service's pnet requests, a tool's run.
// PetriSim counts nothing shared; its owner adds one run and the sim's
// total_firings() per Run.
struct PnetCounts {
  std::uint64_t runs = 0;
  std::uint64_t firings = 0;
};

// The perfiface_pnet_{runs,firings}_total families.
void AppendPnetPrometheus(std::string* out, const PnetCounts& counts);

}  // namespace perfiface

#endif  // SRC_PETRI_SIM_H_
