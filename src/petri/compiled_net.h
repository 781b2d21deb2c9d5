// CompiledNet: a flat, index-based lowering of a PetriNet.
//
// The authored PetriNet is a builder-friendly graph of vectors-of-structs
// with per-transition arc vectors; the firing loop used to chase those
// nested vectors (and recompute same-place consumption for every capacity
// check) on every firing attempt. Compiling once produces:
//
//  - contiguous input/output arc arrays indexed by [begin, end) ranges per
//    transition, with the same-place consumed weight precomputed per
//    output arc (the blocking-before-service capacity check becomes one
//    subtraction instead of a nested scan);
//  - a CSR watcher table (place → transitions to re-examine when the place
//    changes) replacing the per-place watcher vectors;
//  - the weakly-connected component partition of the net. Disconnected
//    components (e.g. independent pipelines composed into one interface
//    file) evolve independently, so they can be simulated — and compiled
//    to derived programs — separately (src/petri/distill.h);
//  - a structural hash per component, covering capacities, initial
//    markings, arc shapes, server counts, and the canonical text of the
//    delay and guard expressions (CompiledExpr::Canonical()), which pins
//    down every transition's behaviour: the derived tier's model key;
//  - each compiled expression classified once, so constant guards and
//    delays skip evaluation in the firing loop.
//
// Thread-safety: a CompiledNet is immutable after construction and borrows
// the PetriNet it was compiled from (which must outlive it). One compiled
// net may back any number of concurrent PetriSims across threads.
#ifndef SRC_PETRI_COMPILED_NET_H_
#define SRC_PETRI_COMPILED_NET_H_

#include <cstdint>
#include <vector>

#include "src/petri/net.h"

namespace perfiface {

class CompiledNet {
 public:
  struct CompiledArc {
    std::uint32_t place = 0;
    std::uint32_t weight = 1;
    // Output arcs only: total input weight this transition consumes from
    // the same place (places on both sides of a transition release room
    // for their own refill).
    std::uint32_t consumed_from_place = 0;
  };

  struct Transition {
    std::uint32_t in_begin = 0, in_end = 0;    // range into inputs()
    std::uint32_t out_begin = 0, out_end = 0;  // range into outputs()
    std::uint32_t servers = 1;
    std::uint32_t total_input_weight = 0;
    std::uint32_t component = 0;
    bool has_bounded_output = false;  // skip the capacity loop entirely
    // The source transition's expressions (guard_code null when it has no
    // guard); stable for the source net's lifetime.
    const CompiledExpr* delay_code = nullptr;
    const CompiledExpr* guard_code = nullptr;
    bool guard_const = false;  // guard folds to a constant at compile time
    bool guard_value = true;   // that constant (as a bool), if guard_const
    bool delay_const = false;  // delay folds to a constant valid Cycles
    Cycles const_delay = 0;    // that constant, if delay_const
  };

  struct PlaceInfo {
    std::uint32_t capacity = 0;  // 0 = unbounded
    std::uint32_t initial_tokens = 0;
    std::uint32_t component = 0;
    // Index of this place within its component (declaration order), used
    // to key per-component derived models independently of where the
    // component sits inside the full net.
    std::uint32_t local_index = 0;
    std::uint32_t watch_begin = 0, watch_end = 0;  // range into watchers()
  };

  explicit CompiledNet(const PetriNet* net);

  const PetriNet& source() const { return *net_; }
  std::size_t num_places() const { return places_.size(); }
  std::size_t num_transitions() const { return transitions_.size(); }

  const std::vector<Transition>& transitions() const { return transitions_; }
  const std::vector<PlaceInfo>& places() const { return places_; }
  const std::vector<CompiledArc>& inputs() const { return inputs_; }
  const std::vector<CompiledArc>& outputs() const { return outputs_; }
  // Transition ids watching a place, sorted, addressed by the place's
  // [watch_begin, watch_end) range.
  const std::vector<std::uint32_t>& watchers() const { return watchers_; }

  // Weakly-connected components, numbered in order of first appearance
  // (transition declaration order, then orphan places).
  std::size_t num_components() const { return component_hashes_.size(); }

  // Hash of one component's structure + expression text.
  std::uint64_t component_hash(std::size_t component) const {
    return component_hashes_[component];
  }
  // Hash of the whole net (all components combined).
  std::uint64_t structural_hash() const { return structural_hash_; }

  // Token-schema slots sorted by attribute name: the parameter order of
  // derived programs (DerivedStore::ProgramText, src/petri/distill.h).
  const std::vector<std::uint32_t>& attr_order() const { return attr_order_; }

 private:
  const PetriNet* net_;
  std::vector<Transition> transitions_;
  std::vector<PlaceInfo> places_;
  std::vector<CompiledArc> inputs_;
  std::vector<CompiledArc> outputs_;
  std::vector<std::uint32_t> watchers_;
  std::vector<std::uint64_t> component_hashes_;
  std::vector<std::uint32_t> attr_order_;
  std::uint64_t structural_hash_ = 0;
};

}  // namespace perfiface

#endif  // SRC_PETRI_COMPILED_NET_H_
