// Structure of a timed colored Petri net — the paper's "performance IR".
//
// Places are FIFO token queues (optionally bounded: a bounded place models a
// hardware FIFO and produces backpressure). Transitions model processing
// elements: they consume tokens from their input places, take a
// data-dependent delay, and deposit copies of their primary input token into
// their output places. Multiple transitions fire concurrently, which is how the IR
// captures the parallel, pipelined execution model of accelerators
// (paper §3, "Formal Petri net interfaces").
#ifndef SRC_PETRI_NET_H_
#define SRC_PETRI_NET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/petri/token.h"

namespace perfiface {

class CompiledExpr;  // src/perfscript/compile.h

using PlaceId = std::size_t;
using TransitionId = std::size_t;

// Most tokens a simulation is handed before its first firing, since
// PetriSim allocates each one up front: a net's initial marking (the .pnet
// loader refuses more) and a serve request's injection plan (the service
// answers RESOURCE_EXHAUSTED past it) are each held to it. The largest
// plan in the tree, hdr_in:1,vld_in:256, injects 257.
constexpr std::int64_t kMaxInjectedTokens = 1 << 16;

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

// A transition's behaviour is text compiled to expressions (the .pnet
// loader, or CompileNetExpr in src/core/pnet.h for nets built in code).
// Both read the attributes of the primary input token: the front token of
// the first input arc. delay_compiled must land in [0, 1e15) and is rounded
// to Cycles; guard_compiled, when present, enables the firing when
// non-zero. A division or modulo by zero, or an out-of-range delay, stops
// the simulation with an error naming the transition (PetriSim::error()).
// Every output arc receives copies of the primary input token.
struct TransitionSpec {
  std::string name;
  std::vector<Arc> inputs;
  std::vector<Arc> outputs;
  // Number of concurrent firings this transition supports (hardware
  // replication). 1 = a single-server pipeline stage.
  std::size_t servers = 1;
  std::shared_ptr<const CompiledExpr> delay_compiled;  // required
  std::shared_ptr<const CompiledExpr> guard_compiled;  // optional

  bool has_guard() const { return guard_compiled != nullptr; }
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
