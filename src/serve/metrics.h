// Service observability: per-interface latency histograms, cache and
// status counters, queue-depth gauge, text/JSON/Prometheus dumps. Every
// distribution is an obs::Histogram (src/obs/histogram.h) of nanoseconds.
#ifndef SRC_SERVE_METRICS_H_
#define SRC_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/histogram.h"
#include "src/serve/admission.h"
#include "src/serve/deadline_queue.h"

namespace perfiface::serve {

// One row per interface, created when the service loads the registry so
// the hot path never takes a lock to find its histogram.
struct InterfaceMetrics {
  std::string interface;
  obs::Histogram latency;                    // end-to-end service-side time, ns
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> errors{0};
  // Pnet components the exact derived tier answered (src/petri/distill.h);
  // feeds the /statusz per-interface summary.
  std::atomic<std::uint64_t> derived_hits{0};
};

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

class ServiceMetrics {
 public:
  // One row per interface, in the given order: the service passes its
  // entry order, so an entry's index is its row.
  explicit ServiceMetrics(const std::vector<std::string>& interfaces);

  // Row index of requests for names outside the registry: such requests
  // count in the totals only.
  static constexpr std::size_t kNoInterface = static_cast<std::size_t>(-1);

  // `derived_hits`: the request's pnet components the derived tier answered.
  void RecordRequest(std::size_t iface_idx, std::uint64_t latency_ns, bool ok,
                     std::uint64_t derived_hits = 0);
  void RecordStatus(CacheOutcome cache, bool deadline_exceeded, bool rejected);

  // One admission decision for `tenant` (empty = "default"). Rows are
  // created on first sight and capped: past kMaxTenantRows distinct
  // tenants, decisions aggregate under the "_other" row so a tenant-name
  // flood cannot grow the scrape without bound.
  void RecordAdmission(const std::string& tenant, AdmissionDecision decision);
  // Queue wait (enqueue -> worker pickup) of one request, labeled by the
  // slack band it was scheduled in.
  void RecordQueueWait(DeadlineBucket bucket, std::uint64_t wait_ns);

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

  std::uint64_t total_requests() const { return total_requests_.load(std::memory_order_relaxed); }
  std::uint64_t total_errors() const { return total_errors_.load(std::memory_order_relaxed); }
  std::uint64_t cache_hits() const { return cache_hits_.load(std::memory_order_relaxed); }
  std::uint64_t cache_misses() const { return cache_misses_.load(std::memory_order_relaxed); }
  std::uint64_t deadline_exceeded() const {
    return deadline_exceeded_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }
  std::int64_t inflight_batches() const {
    return inflight_batches_.load(std::memory_order_relaxed);
  }

  const std::vector<std::unique_ptr<InterfaceMetrics>>& interfaces() const {
    return per_interface_;
  }

  // Human-readable table / machine-readable JSON. queue_depth is sampled by
  // the caller (the service owns the queue).
  std::string DumpText(std::size_t queue_depth) const;
  std::string DumpJson(std::size_t queue_depth) const;
  // Prometheus text exposition (docs/observability.md): totals, queue-depth
  // gauge, per-interface counters, and the latency and queue-wait
  // histograms in seconds.
  std::string DumpPrometheus(std::size_t queue_depth) const;

 private:
  static constexpr std::size_t kMaxTenantRows = 64;

  struct TenantAdmission {
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> shed_deadline{0};
    std::atomic<std::uint64_t> shed_quota{0};
  };

  TenantAdmission* TenantRow(const std::string& tenant);

  std::vector<std::unique_ptr<InterfaceMetrics>> per_interface_;
  // Tenant rows are pointer-stable (unique_ptr) so the hot path increments
  // atomics outside the lock; the lock only guards map shape.
  mutable std::mutex tenant_mu_;
  std::vector<std::pair<std::string, std::unique_ptr<TenantAdmission>>> tenants_;
  obs::Histogram queue_wait_[kDeadlineBucketCount];  // ns
  std::atomic<std::uint64_t> admission_admitted_{0};
  std::atomic<std::uint64_t> admission_shed_deadline_{0};
  std::atomic<std::uint64_t> admission_shed_quota_{0};
  std::atomic<std::uint64_t> total_requests_{0};
  std::atomic<std::uint64_t> total_errors_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::int64_t> inflight_batches_{0};
};

}  // namespace perfiface::serve

#endif  // SRC_SERVE_METRICS_H_
