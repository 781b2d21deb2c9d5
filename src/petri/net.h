// Structure of a timed colored Petri net — the paper's "performance IR".
//
// Places are FIFO token queues (optionally bounded: a bounded place models a
// hardware FIFO and produces backpressure). Transitions model processing
// elements: they consume tokens from their input places, take a
// data-dependent delay, and deposit transformed tokens into their output
// places. Multiple transitions fire concurrently, which is how the IR
// captures the parallel, pipelined execution model of accelerators
// (paper §3, "Formal Petri net interfaces").
#ifndef SRC_PETRI_NET_H_
#define SRC_PETRI_NET_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/small_vec.h"
#include "src/common/types.h"
#include "src/petri/token.h"

namespace perfiface {

class CompiledExpr;  // src/perfscript/compile.h

using PlaceId = std::size_t;
using TransitionId = std::size_t;

struct Place {
  std::string name;
  // 0 means unbounded. A bounded place refuses new firings that would
  // overflow it (blocking-before-service), modeling a full hardware FIFO.
  std::size_t capacity = 0;
  // Initial marking: number of plain tokens present at t=0. Used for
  // credit/slot places (e.g. "N outstanding DMA credits").
  std::size_t initial_tokens = 0;
};

struct Arc {
  PlaceId place = 0;
  std::size_t weight = 1;
};

// Inputs to the delay/fire callbacks: one token per unit of input-arc weight,
// ordered by input-arc declaration order. Inline storage: building this on
// every firing attempt must not allocate.
using TokenRefs = SmallVec<const Token*, 8>;

// Computes the firing delay in cycles for a token set.
using DelayFn = std::function<Cycles(const TokenRefs&)>;

// Produces the output tokens: out[i] receives the tokens for output arc i
// (exactly arc.weight tokens must be appended to each). If no FireFn is
// given, the first input token is copied to every output arc.
using FireFn = std::function<void(const TokenRefs&, std::vector<std::vector<Token>>&)>;

// Enablement predicate over the front tokens; defaults to always-true.
using GuardFn = std::function<bool(const TokenRefs&)>;

// A transition's delay and guard come in one of two forms, never both:
//  - compiled expressions (.pnet files): delay_compiled is evaluated on the
//    front token's attributes, must land in [0, 1e15) and is rounded to
//    Cycles; guard_compiled enables the firing when non-zero. A division or
//    modulo by zero, or an out-of-range delay, stops the simulation with an
//    error naming the transition (PetriSim::error());
//  - C++ closures (hand-built nets): `delay` and `guard`.
struct TransitionSpec {
  std::string name;
  std::vector<Arc> inputs;
  std::vector<Arc> outputs;
  // Number of concurrent firings this transition supports (hardware
  // replication). 1 = a single-server pipeline stage.
  std::size_t servers = 1;
  DelayFn delay;  // required unless delay_compiled is set
  FireFn fire;    // optional
  GuardFn guard;  // optional
  // Source text pinning down the delay/guard behavior (the compiled
  // expressions' Canonical() form for .pnet files). Optional, but
  // load-bearing for the derived tier: CompiledNet only assigns a
  // structural hash — the key derived models are stored under — when
  // every transition's behavior is pinned down by text (an opaque C++
  // lambda cannot be compared across nets, so nets carrying one are
  // unhashable).
  std::string delay_expr;
  std::string guard_expr;
  std::shared_ptr<const CompiledExpr> delay_compiled;
  std::shared_ptr<const CompiledExpr> guard_compiled;

  bool has_guard() const { return guard != nullptr || guard_compiled != nullptr; }
};

class PetriNet {
 public:
  PlaceId AddPlace(std::string name, std::size_t capacity = 0, std::size_t initial_tokens = 0);
  TransitionId AddTransition(TransitionSpec spec);

  // Registers a named token-attribute slot; returns its index. Re-registering
  // an existing name returns the same index. The schema is shared by all
  // tokens in the net.
  std::size_t RegisterAttr(std::string_view name);
  // Returns the slot for `name`, or npos if unknown.
  std::size_t FindAttr(std::string_view name) const;
  static constexpr std::size_t kNoAttr = static_cast<std::size_t>(-1);

  const std::vector<Place>& places() const { return places_; }
  const std::vector<TransitionSpec>& transitions() const { return transitions_; }
  const std::vector<std::string>& attr_names() const { return attr_names_; }

  // Returns the place id with the given name; aborts if absent.
  PlaceId PlaceByName(std::string_view name) const;
  bool HasPlace(std::string_view name) const;

 private:
  std::vector<Place> places_;
  std::vector<TransitionSpec> transitions_;
  std::vector<std::string> attr_names_;
};

}  // namespace perfiface

#endif  // SRC_PETRI_NET_H_
