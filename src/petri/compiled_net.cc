#include "src/petri/compiled_net.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "src/common/check.h"
#include "src/obs/trace.h"
#include "src/perfscript/compile.h"

namespace perfiface {

namespace {

// FNV-1a 64-bit over the canonical per-component description strings.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void HashBytes(std::uint64_t* h, std::string_view s) {
  for (const char c : s) {
    *h ^= static_cast<unsigned char>(c);
    *h *= kFnvPrime;
  }
}

void HashU64(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= kFnvPrime;
  }
}

// Union-find over place ids; transitions union all places they touch.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = i;
    }
  }

  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(std::size_t a, std::size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

CompiledNet::CompiledNet(const PetriNet* net) : net_(net) {
  PI_CHECK(net_ != nullptr);
  obs::SpanGuard span("pnet", "compile");

  const std::vector<Place>& places = net_->places();
  const std::vector<TransitionSpec>& specs = net_->transitions();

  // --- Weakly-connected components over the place set -------------------
  UnionFind uf(places.size());
  for (const TransitionSpec& spec : specs) {
    const PlaceId anchor =
        !spec.inputs.empty() ? spec.inputs.front().place
                             : (!spec.outputs.empty() ? spec.outputs.front().place : 0);
    for (const Arc& a : spec.inputs) {
      uf.Union(anchor, a.place);
    }
    for (const Arc& a : spec.outputs) {
      uf.Union(anchor, a.place);
    }
  }

  // Number components in order of first appearance: transition declaration
  // order first (so firing-relevant components come first and keep stable
  // ids across runs), then orphan places.
  constexpr std::uint32_t kUnassigned = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> root_component(places.size(), kUnassigned);
  std::uint32_t num_components = 0;
  auto component_of = [&](PlaceId p) {
    const std::size_t root = uf.Find(p);
    if (root_component[root] == kUnassigned) {
      root_component[root] = num_components++;
    }
    return root_component[root];
  };
  transitions_.reserve(specs.size());
  for (const TransitionSpec& spec : specs) {
    Transition t;
    t.component = component_of(spec.inputs.front().place);
    transitions_.push_back(t);
  }
  places_.resize(places.size());
  std::vector<std::uint32_t> component_place_count;
  for (std::size_t p = 0; p < places.size(); ++p) {
    PlaceInfo& info = places_[p];
    info.capacity = static_cast<std::uint32_t>(places[p].capacity);
    info.initial_tokens = static_cast<std::uint32_t>(places[p].initial_tokens);
    info.component = component_of(p);
    if (info.component >= component_place_count.size()) {
      component_place_count.resize(info.component + 1, 0);
    }
    info.local_index = component_place_count[info.component]++;
  }
  component_place_count.resize(num_components, 0);

  // --- Flat adjacency + per-output consumed weights ---------------------
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const TransitionSpec& spec = specs[t];
    Transition& info = transitions_[t];
    info.servers = static_cast<std::uint32_t>(spec.servers);

    // Classify the expressions for the firing loop. A constant delay must
    // already be a valid Cycles to qualify; an out-of-range constant stays
    // general so the range check reports it at the first firing.
    info.delay_code = spec.delay_compiled.get();
    const std::optional<double> delay = info.delay_code->ConstantValue();
    if (delay.has_value() && *delay >= 0 && *delay < 1e15) {
      info.delay_const = true;
      info.const_delay = static_cast<Cycles>(std::llround(*delay));
    }
    info.guard_code = spec.guard_compiled.get();
    const std::optional<double> guard =
        info.guard_code == nullptr ? std::nullopt : info.guard_code->ConstantValue();
    if (guard.has_value()) {
      info.guard_const = true;
      info.guard_value = *guard != 0.0;
    }

    info.in_begin = static_cast<std::uint32_t>(inputs_.size());
    for (const Arc& a : spec.inputs) {
      inputs_.push_back(CompiledArc{static_cast<std::uint32_t>(a.place),
                                    static_cast<std::uint32_t>(a.weight), 0});
      info.total_input_weight += static_cast<std::uint32_t>(a.weight);
    }
    info.in_end = static_cast<std::uint32_t>(inputs_.size());

    info.out_begin = static_cast<std::uint32_t>(outputs_.size());
    for (const Arc& out : spec.outputs) {
      std::uint32_t consumed_here = 0;
      for (const Arc& in : spec.inputs) {
        if (in.place == out.place) {
          consumed_here += static_cast<std::uint32_t>(in.weight);
        }
      }
      outputs_.push_back(CompiledArc{static_cast<std::uint32_t>(out.place),
                                     static_cast<std::uint32_t>(out.weight), consumed_here});
      if (places[out.place].capacity != 0) {
        info.has_bounded_output = true;
      }
    }
    info.out_end = static_cast<std::uint32_t>(outputs_.size());
  }

  // --- CSR watcher table ------------------------------------------------
  std::vector<std::vector<std::uint32_t>> watcher_lists(places.size());
  for (std::size_t t = 0; t < specs.size(); ++t) {
    for (const Arc& a : specs[t].inputs) {
      watcher_lists[a.place].push_back(static_cast<std::uint32_t>(t));
    }
    for (const Arc& a : specs[t].outputs) {
      watcher_lists[a.place].push_back(static_cast<std::uint32_t>(t));
    }
  }
  for (std::size_t p = 0; p < places.size(); ++p) {
    std::vector<std::uint32_t>& list = watcher_lists[p];
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    places_[p].watch_begin = static_cast<std::uint32_t>(watchers_.size());
    watchers_.insert(watchers_.end(), list.begin(), list.end());
    places_[p].watch_end = static_cast<std::uint32_t>(watchers_.size());
  }

  // --- Structural hashes ------------------------------------------------
  // Names are deliberately excluded: renamed copies of the same structure
  // share hashes.
  component_hashes_.assign(num_components, kFnvOffset);
  for (std::size_t p = 0; p < places.size(); ++p) {
    std::uint64_t* h = &component_hashes_[places_[p].component];
    HashBytes(h, "P");
    HashU64(h, places_[p].local_index);
    HashU64(h, places_[p].capacity);
    HashU64(h, places_[p].initial_tokens);
  }
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const TransitionSpec& spec = specs[t];
    std::uint64_t* h = &component_hashes_[transitions_[t].component];
    HashBytes(h, "T");
    HashU64(h, spec.servers);
    for (const Arc& a : spec.inputs) {
      HashBytes(h, "i");
      HashU64(h, places_[a.place].local_index);
      HashU64(h, a.weight);
    }
    for (const Arc& a : spec.outputs) {
      HashBytes(h, "o");
      HashU64(h, places_[a.place].local_index);
      HashU64(h, a.weight);
    }
    HashBytes(h, "D");
    HashBytes(h, spec.delay_compiled->Canonical());
    if (spec.has_guard()) {
      HashBytes(h, "G");
      HashBytes(h, spec.guard_compiled->Canonical());
    }
  }
  structural_hash_ = kFnvOffset;
  for (const std::uint64_t ch : component_hashes_) {
    HashU64(&structural_hash_, ch);
  }

  const std::vector<std::string>& attr_names = net_->attr_names();
  attr_order_.resize(attr_names.size());
  std::iota(attr_order_.begin(), attr_order_.end(), 0u);
  std::sort(attr_order_.begin(), attr_order_.end(),
            [&attr_names](std::uint32_t a, std::uint32_t b) {
              return attr_names[a] < attr_names[b];
            });

  if (span.active()) {
    span.SetArg("transitions", static_cast<double>(transitions_.size()));
  }
}

}  // namespace perfiface
