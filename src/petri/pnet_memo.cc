#include "src/petri/pnet_memo.h"

#include "src/common/strings.h"
#include "src/obs/metrics_registry.h"

namespace perfiface {

PnetMemoTable::PnetMemoTable(std::size_t capacity, std::size_t num_shards)
    : table_(capacity, num_shards) {}

bool PnetMemoTable::Lookup(const ComponentQuery& query, std::uint64_t budget,
                           ComponentResult* out) {
  static obs::MetricsRegistry::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "perfiface_pnet_memo_hits_total", "Sub-net memo table hits");
  static obs::MetricsRegistry::Counter& misses = obs::MetricsRegistry::Global().GetCounter(
      "perfiface_pnet_memo_misses_total", "Sub-net memo table misses");
  ComponentResult found;
  // Strict: PetriSim reports exhaustion when firings reach the budget
  // exactly, so a stored count equal to `budget` must miss — the
  // simulation the hit replaces would not have quiesced.
  if (table_.Get(query.exact_key(), &found) && found.firings < budget) {
    *out = found;
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits.Increment();
    return true;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  misses.Increment();
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
  *out += "# HELP perfiface_pnet_memo_entries Sub-net memo table entries currently resident.\n";
  *out += "# TYPE perfiface_pnet_memo_entries gauge\n";
  *out += StrFormat("perfiface_pnet_memo_entries %zu\n", size());
  *out += "# HELP perfiface_pnet_memo_capacity Sub-net memo table entry capacity.\n";
  *out += "# TYPE perfiface_pnet_memo_capacity gauge\n";
  *out += StrFormat("perfiface_pnet_memo_capacity %zu\n", capacity());
  *out += "# HELP perfiface_pnet_memo_evictions_total Sub-net memo entries evicted by LRU "
          "capacity pressure.\n";
  *out += "# TYPE perfiface_pnet_memo_evictions_total counter\n";
  *out += StrFormat("perfiface_pnet_memo_evictions_total %llu\n",
                    static_cast<unsigned long long>(evictions()));
}

}  // namespace perfiface
