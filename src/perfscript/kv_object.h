// A generic key/value workload object for PerfScript programs.
//
// Interface programs read workload descriptors through the ScriptObject
// protocol (value.h). Production callers wrap their real domain objects
// (images, messages); callers that only have a bag of numeric attributes —
// the psc_tool CLI, the prediction service's wire-level queries — use this
// adapter: flat numeric attributes plus an optional uniform child list
// (enough to exercise recursive interfaces like Fig 3's read_cost).
//
// Thread-safety: a fully built KvObject is immutable through the
// ScriptObject interface (GetAttr/Child are const) and may be read from any
// number of threads concurrently. Set/AddChild must happen-before any
// concurrent read.
#ifndef SRC_PERFSCRIPT_KV_OBJECT_H_
#define SRC_PERFSCRIPT_KV_OBJECT_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/perfscript/value.h"

namespace perfiface {

class KvObject : public ScriptObject {
 public:
  std::optional<double> GetAttr(std::string_view name) const override {
    for (const auto& kv : attrs_) {
      if (kv.first == name) {
        return kv.second;
      }
    }
    return std::nullopt;
  }
  std::optional<double> GetAttrHinted(std::string_view name,
                                      std::uint32_t* hint) const override {
    if (*hint < attrs_.size() && attrs_[*hint].first == name) {
      return attrs_[*hint].second;
    }
    for (std::size_t i = 0; i < attrs_.size(); ++i) {
      if (attrs_[i].first == name) {
        *hint = static_cast<std::uint32_t>(i);
        return attrs_[i].second;
      }
    }
    return std::nullopt;
  }
  std::size_t NumChildren() const override {
    std::size_t n = children_.size();
    for (const auto& run : uniform_runs_) {
      n += run.count;
    }
    return n;
  }
  const ScriptObject* Child(std::size_t i) const override {
    if (i < children_.size()) {
      return children_[i].get();
    }
    i -= children_.size();
    for (const auto& run : uniform_runs_) {
      if (i < run.count) {
        return run.child.get();
      }
      i -= run.count;
    }
    return nullptr;
  }

  void Set(const std::string& key, double value) {
    for (auto& kv : attrs_) {
      if (kv.first == key) {
        kv.second = value;
        return;
      }
    }
    attrs_.emplace_back(key, value);
  }
  void AddChild(std::unique_ptr<KvObject> child) { children_.push_back(std::move(child)); }
  const std::vector<std::pair<std::string, double>>& attrs() const { return attrs_; }

  // Forgets every attribute and child but keeps the storage, so an object
  // rebuilt for each request (a service worker's workload) stops
  // allocating once it has held its largest workload.
  void Clear() {
    attrs_.clear();
    children_.clear();
    if (!uniform_runs_.empty()) {
      spare_child_ = std::move(uniform_runs_.back().child);
    }
    uniform_runs_.clear();
  }

  // Attaches `n` children, each carrying this object's current attributes
  // (the psc_tool / serve "children=N" shorthand for recursive interfaces).
  // The children are identical and immutable once built, so one object
  // aliased `n` times is observationally equivalent through ScriptObject —
  // this keeps children=400 workload builds O(attrs) instead of O(n*attrs)
  // on the service's uncached path. Uniform children enumerate after any
  // explicitly added ones.
  void AddUniformChildren(int n) {
    if (n <= 0) {
      return;
    }
    std::unique_ptr<KvObject> child =
        spare_child_ != nullptr ? std::move(spare_child_) : std::make_unique<KvObject>();
    child->attrs_ = attrs_;
    uniform_runs_.push_back(UniformRun{static_cast<std::size_t>(n), std::move(child)});
  }

 private:
  struct UniformRun {
    std::size_t count;
    std::unique_ptr<KvObject> child;
  };

  std::vector<std::pair<std::string, double>> attrs_;
  std::vector<std::unique_ptr<KvObject>> children_;
  std::vector<UniformRun> uniform_runs_;
  // A uniform child Clear() kept for the next AddUniformChildren.
  std::unique_ptr<KvObject> spare_child_;
};

}  // namespace perfiface

#endif  // SRC_PERFSCRIPT_KV_OBJECT_H_
