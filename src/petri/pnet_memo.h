// Cross-request memo table for Petri-net sub-net results: the first and
// exact tier of the component chain (src/petri/component_tier.h).
//
// The paper's point is that querying a performance interface must be far
// cheaper than simulating the hardware; yet the per-stripe / per-stage
// component nets repeat across workloads, so the same structural sub-net
// gets re-simulated for every request. This table caches steady-state
// sub-net results across requests — and across *nets*: entries live under
// the query's exact key, which starts with the component's structural hash
// (src/petri/compiled_net.h), not the net or interface name, so a
// component reused by two interfaces shares entries.
//
// Values only ever come from runs that quiesced, and a stored result also
// remembers how many firings the run took: a lookup only hits when the
// stored firing count fits the caller's remaining budget, so memoized and
// unmemoized evaluation report identical statuses (a run that would have
// exhausted the budget still exhausts it).
//
// Invalidation: keys depend purely on structure + expression text +
// workload, so a reloaded net with identical text maps to the same entries
// (still valid by construction) and an edited net hashes elsewhere (stale
// entries age out of the LRU).
//
// Thread-safety: all methods safe from any thread (sharded LRU inside).
#ifndef SRC_PETRI_PNET_MEMO_H_
#define SRC_PETRI_PNET_MEMO_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/common/sharded_lru.h"
#include "src/petri/component_tier.h"

namespace perfiface {

class PnetMemoTable : public ComponentTier {
 public:
  explicit PnetMemoTable(std::size_t capacity = 1 << 16, std::size_t num_shards = 16);

  // Hit iff the exact key is present AND its stored firing count is
  // strictly below `budget`.
  bool Lookup(const ComponentQuery& query, std::uint64_t budget, ComponentResult* out) override;
  // Stores the quiesced result under the query's exact key.
  void Observe(const ComponentQuery& query, const ComponentResult& exact) override;

  // {"entries":N,"capacity":N,"hits":N,"misses":N,"evictions":N}.
  std::string SummaryJson() const override;
  // perfiface_pnet_memo_{hits_total,misses_total,entries,capacity,
  // evictions_total}.
  void AppendPrometheus(std::string* out) const override;

  // Budget-aware outcomes: an entry found but rejected because its firing
  // count exceeds the caller's budget counts as a miss (the caller must
  // simulate), unlike the raw LRU counters underneath.
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  // Occupancy: without these, hit-rate drops caused by capacity churn are
  // indistinguishable from cold traffic.
  std::size_t size() const { return table_.size(); }
  std::size_t capacity() const { return table_.capacity(); }
  std::uint64_t evictions() const { return table_.evictions(); }

 private:
  ShardedLru<ComponentResult> table_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace perfiface

#endif  // SRC_PETRI_PNET_MEMO_H_
