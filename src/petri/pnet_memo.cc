#include "src/petri/pnet_memo.h"

#include "src/common/strings.h"
#include "src/obs/metrics_registry.h"

namespace perfiface {

PnetMemoTable::PnetMemoTable(std::size_t capacity, std::size_t num_shards)
    : table_(capacity, num_shards) {}

bool PnetMemoTable::Lookup(const ComponentQuery& query, std::uint64_t budget,
                           ComponentResult* out) {
  ComponentResult found;
  // Strict: PetriSim reports exhaustion when firings reach the budget
  // exactly, so a stored count equal to `budget` must miss — the
  // simulation the hit replaces would not have quiesced.
  if (table_.Get(query.exact_key(), &found) && found.firings < budget) {
    *out = found;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void PnetMemoTable::Observe(const ComponentQuery& query, const ComponentResult& exact) {
  if (!query.exact_key().empty()) {
    table_.Put(query.exact_key(), exact);
  }
}

std::string PnetMemoTable::SummaryJson() const {
  return StrFormat(
      "{\"entries\":%zu,\"capacity\":%zu,\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu}",
      size(), capacity(), static_cast<unsigned long long>(hits()),
      static_cast<unsigned long long>(misses()),
      static_cast<unsigned long long>(evictions()));
}

void PnetMemoTable::AppendPrometheus(std::string* out) const {
  obs::AppendCounter(out, "perfiface_pnet_memo_hits_total", "Sub-net memo table hits", hits());
  obs::AppendCounter(out, "perfiface_pnet_memo_misses_total", "Sub-net memo table misses",
                     misses());
  obs::AppendGauge(out, "perfiface_pnet_memo_entries",
                   "Sub-net memo table entries currently resident.", static_cast<double>(size()));
  obs::AppendGauge(out, "perfiface_pnet_memo_capacity", "Sub-net memo table entry capacity.",
                   static_cast<double>(capacity()));
  obs::AppendCounter(out, "perfiface_pnet_memo_evictions_total",
                     "Sub-net memo entries evicted by LRU capacity pressure.", evictions());
}

}  // namespace perfiface
