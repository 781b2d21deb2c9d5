// Admission control for the prediction service: per-tenant token-bucket
// quotas plus a deadline-feasibility check, both evaluated at enqueue so
// overload sheds early with REJECTED instead of timing out after queueing
// (docs/serving.md "Admission control & tenancy").
//
// Every decision takes an explicit `now_ns` and explicit queue-state
// inputs, so identical arrival schedules produce identical admit/shed
// decisions — the determinism tests in serve_test rely on this.
#ifndef SRC_SERVE_ADMISSION_H_
#define SRC_SERVE_ADMISSION_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfiface::serve {

// A tenant's token-bucket quota: sustained requests/second plus a burst
// allowance. qps <= 0 means unlimited.
struct TenantQuota {
  double qps = 0.0;
  double burst = 0.0;  // <= 0 defaults to max(qps, 1)
};

struct AdmissionOptions {
  // Shed at enqueue when the predicted queue wait already exceeds the
  // request's remaining deadline. Off by default: deadline enforcement
  // without shedding (late DEADLINE_EXCEEDED) remains the conservative
  // baseline behavior.
  bool shed_deadline = false;
  // Quota applied to tenants without an explicit entry. qps <= 0 means
  // unlimited (the default: admission control is opt-in per tenant).
  TenantQuota default_quota;
  // Explicit per-tenant quotas. The empty tenant name ("default" in
  // metrics) may appear here too.
  std::vector<std::pair<std::string, TenantQuota>> tenant_quotas;
};

// Parses one --quota flag, "TENANT=QPS[:BURST]", and applies it: tenant
// "*" sets the default quota, any other name adds a per-tenant entry. QPS
// and BURST must be positive numbers with nothing after them. Returns false
// and leaves `options` unchanged on a malformed spec.
bool ApplyQuotaFlag(const std::string& spec, AdmissionOptions* options);

// Why a request was shed (or not).
enum class AdmissionDecision : std::uint8_t {
  kAdmit = 0,
  kShedQuota = 1,     // tenant token bucket is dry
  kShedDeadline = 2,  // deadline cannot be met at current queue depth
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  // Decides one request. `tenant` is the wire tenant field (empty =
  // default tenant). `remaining_deadline_us` <= 0 means no deadline.
  // `pending_requests` is the number of admitted-but-unfinished requests,
  // `ema_service_ns` the current per-request service-time estimate (0 =
  // cold, never sheds on deadline), `workers` the worker-pool size. Quota
  // tokens are only consumed on admit.
  AdmissionDecision Decide(const std::string& tenant, std::int64_t remaining_deadline_us,
                           std::uint64_t now_ns, std::uint64_t pending_requests,
                           std::uint64_t ema_service_ns, std::size_t workers);

  // Predicted queue wait used by the deadline-feasibility check, exposed
  // for tests and /statusz.
  static std::uint64_t PredictedWaitNs(std::uint64_t pending_requests,
                                       std::uint64_t ema_service_ns, std::size_t workers);

  const AdmissionOptions& options() const { return options_; }

  // Quota configured for `tenant` (explicit entry or the default).
  TenantQuota QuotaFor(const std::string& tenant) const;

  // True when any quota or the deadline-feasibility gate is active; when
  // false, Decide always admits without taking the lock.
  bool enabled() const { return enabled_; }

 private:
  struct Bucket {
    double tokens = 0.0;
    std::uint64_t last_refill_ns = 0;
    bool initialized = false;
  };

  const AdmissionOptions options_;
  bool enabled_ = false;
  std::mutex mu_;
  std::map<std::string, Bucket> buckets_;
};

}  // namespace perfiface::serve

#endif  // SRC_SERVE_ADMISSION_H_
