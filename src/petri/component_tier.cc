#include "src/petri/component_tier.h"

#include <algorithm>
#include <cstdio>

namespace perfiface {

ComponentQuery::ComponentQuery(const CompiledNet& net, const Token& token,
                               const std::vector<std::pair<PlaceId, int>>& injections)
    : net_(net), token_(token), injections_(injections) {
  const std::vector<std::string>& names = net.source().attr_names();
  char value[32];
  for (const std::uint32_t slot : net.attr_order()) {
    std::snprintf(value, sizeof(value), "=%.17g", token.Attr(slot));
    labelled_attrs_ += '\x1f';
    labelled_attrs_ += names[slot];
    labelled_attrs_ += value;
  }
}

void ComponentQuery::Select(std::size_t component) {
  component_ = component;
  model_key_.clear();
  exact_key_.clear();
  if (!net_.hashable()) {
    return;
  }
  char item[48];
  std::snprintf(item, sizeof(item), "%016llx",
                static_cast<unsigned long long>(net_.component_hash(component)));
  model_key_ += item;

  // The plan restricted to this component, as (local place index, count)
  // pairs: the same sub-net keys identically wherever it sits inside the
  // enclosing net. All injected tokens carry the same attributes, so
  // per-place counts describe the plan fully.
  plan_.clear();
  for (const auto& [place, count] : injections_) {
    const CompiledNet::PlaceInfo& info = net_.places()[place];
    if (info.component == component) {
      plan_.emplace_back(info.local_index, count);
    }
  }
  std::sort(plan_.begin(), plan_.end());
  // A place listed twice injects the sum.
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    long long count = plan_[i].second;
    while (i + 1 < plan_.size() && plan_[i + 1].first == plan_[i].first) {
      count += plan_[++i].second;
    }
    std::snprintf(item, sizeof(item), "\x1f@%u:%lld", plan_[i].first, count);
    model_key_ += item;
  }

  exact_key_ = model_key_;
  exact_key_ += labelled_attrs_;
}

}  // namespace perfiface
