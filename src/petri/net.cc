#include "src/petri/net.h"

#include "src/common/check.h"

namespace perfiface {

PlaceId PetriNet::AddPlace(std::string name, std::size_t capacity, std::size_t initial_tokens) {
  Place p;
  p.name = std::move(name);
  p.capacity = capacity;
  p.initial_tokens = initial_tokens;
  if (capacity != 0) {
    PI_CHECK(initial_tokens <= capacity);
  }
  places_.push_back(std::move(p));
  return places_.size() - 1;
}

TransitionId PetriNet::AddTransition(TransitionSpec spec) {
  PI_CHECK_MSG(spec.delay_compiled != nullptr, spec.name.c_str());
  PI_CHECK_MSG(!spec.inputs.empty(), spec.name.c_str());
  PI_CHECK(spec.servers >= 1);
  for (const Arc& a : spec.inputs) {
    PI_CHECK(a.place < places_.size());
    PI_CHECK(a.weight >= 1);
  }
  for (const Arc& a : spec.outputs) {
    PI_CHECK(a.place < places_.size());
    PI_CHECK(a.weight >= 1);
  }
  transitions_.push_back(std::move(spec));
  return transitions_.size() - 1;
}

std::size_t PetriNet::RegisterAttr(std::string_view name) {
  const std::size_t existing = FindAttr(name);
  if (existing != kNoAttr) {
    return existing;
  }
  attr_names_.emplace_back(name);
  return attr_names_.size() - 1;
}

std::size_t PetriNet::FindAttr(std::string_view name) const {
  for (std::size_t i = 0; i < attr_names_.size(); ++i) {
    if (attr_names_[i] == name) {
      return i;
    }
  }
  return kNoAttr;
}

PlaceId PetriNet::PlaceByName(std::string_view name) const {
  for (std::size_t i = 0; i < places_.size(); ++i) {
    if (places_[i].name == name) {
      return i;
    }
  }
  PI_CHECK_MSG(false, "no such place");
  return 0;
}

bool PetriNet::HasPlace(std::string_view name) const {
  for (const Place& p : places_) {
    if (p.name == name) {
      return true;
    }
  }
  return false;
}

}  // namespace perfiface
