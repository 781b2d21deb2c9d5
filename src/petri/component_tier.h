// One contract for the per-component evaluation tiers.
//
// A pnet query is answered one weakly-connected component at a time
// (components share no places, src/petri/compiled_net.h). Before a
// component is simulated, the serving layer asks an ordered chain of
// cheaper, exact interfaces for it: the component's max-plus program
// (distill.h) and the memo of earlier results (pnet_memo.h). The first
// tier that answers replaces the simulation; when none does, the component
// is simulated and every tier observes the exact result — the paper's §2
// case in miniature.
//
// Every tier keeps three rules:
//   - A hit's `firings` is strictly below the caller's remaining budget
//     (PetriSim reports exhaustion at exactly the budget), so a hit never
//     hides a budget exhaustion the simulation would have reported.
//   - A miss changes nothing the caller sees: the next tier or the
//     simulation answers, bit-identically to this tier being off.
//   - Observe only ever sees runs that quiesced.
//
// Thread-safety: a ComponentQuery belongs to one request; every
// ComponentTier is safe to call from any thread.
#ifndef SRC_PETRI_COMPONENT_TIER_H_
#define SRC_PETRI_COMPONENT_TIER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"
#include "src/petri/compiled_net.h"
#include "src/petri/token.h"

namespace perfiface {

// The event horizon of every component evaluation, far beyond any real
// prediction: the serving layer simulates up to it, and a tier must not
// answer a component whose run would pass it (that run does not quiesce).
constexpr Cycles kComponentRunHorizon = static_cast<Cycles>(1) << 40;

// A component's time of last completion and what its run cost in firings.
struct ComponentResult {
  Cycles quiesce_time = 0;
  std::uint64_t firings = 0;
};

// One component of one request and the two keys every tier shares:
//
//   model_key  component structural hash + the injection plan restricted
//              to the component, as sorted, duplicate-merged
//              (component-local place, count) items. Identifies a derived
//              model: the attributes are its inputs.
//   exact_key  model_key + the token's attributes labelled by schema name,
//              in name order (%.17g round-trips doubles, so workloads never
//              alias, and nets declaring the same attributes in another
//              order share entries). Identifies one exact result.
//
// Both are empty when the net is unhashable (opaque C++ closures): such
// nets are never memoized or derived. The attribute section is
// formatted once per request; Select points the query at a component and
// rebuilds both keys in place. Borrows the net, token and injections.
class ComponentQuery {
 public:
  ComponentQuery(const CompiledNet& net, const Token& token,
                 const std::vector<std::pair<PlaceId, int>>& injections);

  void Select(std::size_t component);

  const CompiledNet& net() const { return net_; }
  std::size_t component() const { return component_; }
  const Token& token() const { return token_; }
  const std::vector<std::pair<PlaceId, int>>& injections() const { return injections_; }
  const std::string& model_key() const { return model_key_; }
  const std::string& exact_key() const { return exact_key_; }

 private:
  const CompiledNet& net_;
  const Token& token_;
  const std::vector<std::pair<PlaceId, int>>& injections_;
  std::string labelled_attrs_;
  std::vector<std::pair<std::uint32_t, long long>> plan_;  // Select's scratch
  std::size_t component_ = 0;
  std::string model_key_;
  std::string exact_key_;
};

class ComponentTier {
 public:
  ComponentTier() = default;
  ComponentTier(const ComponentTier&) = delete;
  ComponentTier& operator=(const ComponentTier&) = delete;
  virtual ~ComponentTier() = default;

  // Fills *out and returns true when this tier answers the query's
  // component within `budget` firings.
  virtual bool Lookup(const ComponentQuery& query, std::uint64_t budget,
                      ComponentResult* out) = 0;
  // Learns from the simulated, quiesced result of the query's component.
  virtual void Observe(const ComponentQuery& query, const ComponentResult& exact) = 0;

  // The tier's /statusz object.
  virtual std::string SummaryJson() const = 0;
  // Appends the tier's Prometheus families, counters included: they count
  // this tier's events only, in the scrape of the service that owns it.
  virtual void AppendPrometheus(std::string* out) const = 0;
};

}  // namespace perfiface

#endif  // SRC_PETRI_COMPONENT_TIER_H_
