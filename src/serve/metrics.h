// Service observability: per-interface latency histograms, cache, status,
// VM and Petri-sim counters, queue-depth gauge, text/JSON/Prometheus
// dumps. Every distribution is an obs::Histogram (src/obs/histogram.h) of
// nanoseconds. Per-request metrics are kept per worker and summed when
// read.
#ifndef SRC_SERVE_METRICS_H_
#define SRC_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/histogram.h"
#include "src/perfscript/vm.h"
#include "src/petri/sim.h"
#include "src/serve/admission.h"
#include "src/serve/deadline_queue.h"

namespace perfiface::serve {

// What the cache saw for one request. Requests that are resolved before the
// cache lookup (rejected at submission, expired in queue, unknown
// interface/function) must report kNotConsulted so they don't inflate the
// miss counter and skew the hit rate.
enum class CacheOutcome { kHit, kMiss, kNotConsulted };

// Point-in-time copy of one tenant's admission counters, for /statusz.
struct TenantAdmissionSnapshot {
  std::string tenant;
  std::uint64_t admitted = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_quota = 0;
};

// One thread's share of the service's per-request metrics: per-interface
// request, error and derived-hit counts and latency histograms, the
// queue-wait histograms, the cache and status counts, the VM and Petri-sim
// counts and a service-time EMA. Each worker owns one shard and is its
// only writer, so a count is a relaxed load and store on lines no other
// thread writes; submitting threads (admission, inline rejections) share
// one shard, written with fetch_add. Readers sum the shards
// (ServiceMetrics).
class alignas(64) MetricShard {
 public:
  // `shared`: more than one thread records into this shard.
  MetricShard(std::size_t num_interfaces, bool shared);

  // `iface_idx` past the rows (ServiceMetrics::kNoInterface) counts in the
  // totals only. `derived_hits`: the request's pnet components the derived
  // tier answered.
  void RecordRequest(std::size_t iface_idx, std::uint64_t latency_ns, bool ok,
                     std::uint64_t derived_hits = 0);
  void RecordStatus(CacheOutcome cache, bool deadline_exceeded, bool rejected);
  // Queue wait (enqueue -> worker pickup) of one request, labeled by the
  // slack band it was scheduled in.
  void RecordQueueWait(DeadlineBucket bucket, std::uint64_t wait_ns);
  // One top-level Vm::Call of a defined function: its steps_used(),
  // memo_hits() and whether it failed.
  void RecordVmCall(std::uint64_t steps, std::uint64_t memo_hits, bool failed);
  // One PetriSim::Run of a pnet request (a component or the whole net) and
  // the firings it took.
  void RecordPnetRun(std::uint64_t firings);
  // Folds one request's service time into the shard's EMA (alpha 1/8),
  // which feeds the admission feasibility estimate. Workers only: the
  // shared shard keeps no EMA.
  void RecordServiceTime(std::uint64_t ns);

 private:
  friend class ServiceMetrics;

  struct alignas(64) InterfaceRow {
    obs::Histogram latency;  // end-to-end service-side time, ns
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> errors{0};
    // Pnet components the exact derived tier answered (src/petri/distill.h).
    std::atomic<std::uint64_t> derived_hits{0};
  };

  // The shared shard's writers race, so it read-modify-writes; a worker's
  // shard has one writer, so a load and a store suffice.
  void Add(std::atomic<std::uint64_t>& counter, std::uint64_t delta) {
    if (shared_) {
      counter.fetch_add(delta, std::memory_order_relaxed);
    } else {
      counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
    }
  }
  void Record(obs::Histogram& histogram, std::uint64_t value) {
    if (shared_) {
      histogram.Record(value);
    } else {
      histogram.RecordExclusive(value);
    }
  }
  static std::uint64_t Read(const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  }

  const bool shared_;
  std::vector<InterfaceRow> rows_;
  obs::Histogram queue_wait_[kDeadlineBucketCount];  // ns
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> vm_calls_{0};
  std::atomic<std::uint64_t> vm_steps_{0};
  std::atomic<std::uint64_t> vm_errors_{0};
  std::atomic<std::uint64_t> vm_memo_hits_{0};
  std::atomic<std::uint64_t> pnet_runs_{0};
  std::atomic<std::uint64_t> pnet_firings_{0};
  std::atomic<std::uint64_t> ema_service_ns_{0};
};

// One interface's counts, summed over the shards.
struct InterfaceTotals {
  std::string interface;
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  std::uint64_t derived_hits = 0;
};

class ServiceMetrics {
 public:
  // One row per interface, in the given order: the service passes its
  // entry order, so an entry's index is its row. One shard per worker,
  // plus the submitters' shared shard.
  ServiceMetrics(const std::vector<std::string>& interfaces, std::size_t num_workers = 0);

  // Row index of requests for names outside the registry: such requests
  // count in the totals only.
  static constexpr std::size_t kNoInterface = static_cast<std::size_t>(-1);

  // Worker `worker`'s shard; only that worker may record into it.
  MetricShard& worker_shard(std::size_t worker) { return *shards_[worker]; }
  // The shard every other thread records into.
  MetricShard& shared_shard() { return *shards_.back(); }

  // One admission decision for `tenant` (empty = "default"). Rows are
  // created on first sight and capped: past kMaxTenantRows distinct
  // tenants, decisions aggregate under the "_other" row so a tenant-name
  // flood cannot grow the scrape without bound.
  void RecordAdmission(const std::string& tenant, AdmissionDecision decision);

  std::uint64_t admission_admitted() const {
    return admission_admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t admission_shed_deadline() const {
    return admission_shed_deadline_.load(std::memory_order_relaxed);
  }
  std::uint64_t admission_shed_quota() const {
    return admission_shed_quota_.load(std::memory_order_relaxed);
  }
  // Sorted by tenant name; includes the "default" row once any decision
  // has been recorded.
  std::vector<TenantAdmissionSnapshot> AdmissionSnapshot() const;

  // Batches (sync or async) currently submitted and not yet fully resolved.
  void IncrementInflight() { inflight_batches_.fetch_add(1, std::memory_order_relaxed); }
  void DecrementInflight() { inflight_batches_.fetch_sub(1, std::memory_order_relaxed); }
  std::int64_t inflight_batches() const {
    return inflight_batches_.load(std::memory_order_relaxed);
  }

  // Totals over the shards.
  std::uint64_t total_requests() const { return Sum(&MetricShard::requests_); }
  std::uint64_t total_errors() const { return Sum(&MetricShard::errors_); }
  std::uint64_t cache_hits() const { return Sum(&MetricShard::cache_hits_); }
  std::uint64_t cache_misses() const { return Sum(&MetricShard::cache_misses_); }
  std::uint64_t deadline_exceeded() const { return Sum(&MetricShard::deadline_exceeded_); }
  std::uint64_t rejected() const { return Sum(&MetricShard::rejected_); }
  VmCounts vm_counts() const;
  PnetCounts pnet_counts() const;
  // Mean of the workers' service-time EMAs, over the workers that have
  // served a request; 0 before any has.
  std::uint64_t mean_service_ema_ns() const;
  // Per interface, in row order.
  std::vector<InterfaceTotals> Interfaces() const;
  // Merges row `row`'s latency histograms (ns) into *out. Readers merge one
  // row at a time, so a read holds one merged histogram, not one per row.
  void MergeLatency(std::size_t row, obs::Histogram* out) const;

  // Human-readable table / machine-readable JSON. queue_depth is sampled by
  // the caller (the service owns the queue).
  std::string DumpText(std::size_t queue_depth) const;
  std::string DumpJson(std::size_t queue_depth) const;
  // Prometheus text exposition (docs/observability.md): the VM and
  // Petri-sim counts, totals, queue-depth gauge, per-interface counters,
  // and the latency and queue-wait histograms in seconds.
  std::string DumpPrometheus(std::size_t queue_depth) const;

 private:
  static constexpr std::size_t kMaxTenantRows = 64;

  struct TenantAdmission {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> shed_deadline{0};
    std::atomic<std::uint64_t> shed_quota{0};
  };

  TenantAdmission* TenantRow(const std::string& tenant);
  std::uint64_t Sum(std::atomic<std::uint64_t> MetricShard::*counter) const;

  std::vector<std::string> interfaces_;
  // Workers' shards by worker index, then the shared shard.
  std::vector<std::unique_ptr<MetricShard>> shards_;
  // Tenant rows are pointer-stable (unique_ptr) so the hot path increments
  // atomics outside the lock; the lock only guards map shape.
  mutable std::mutex tenant_mu_;
  std::vector<std::pair<std::string, std::unique_ptr<TenantAdmission>>> tenants_;
  std::atomic<std::uint64_t> admission_admitted_{0};
  std::atomic<std::uint64_t> admission_shed_deadline_{0};
  std::atomic<std::uint64_t> admission_shed_quota_{0};
  std::atomic<std::int64_t> inflight_batches_{0};
};

}  // namespace perfiface::serve

#endif  // SRC_SERVE_METRICS_H_
