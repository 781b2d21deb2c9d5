#include "src/serve/admission.h"

#include <algorithm>

#include "src/common/strings.h"

namespace perfiface::serve {
namespace {

// A whole, positive decimal number.
bool ParsePositive(const std::string& text, double* out) {
  return ParseDecimal(text, out) == std::errc() && *out > 0;
}

bool QuotaActive(const TenantQuota& quota) { return quota.qps > 0.0; }

double BurstFor(const TenantQuota& quota) {
  return quota.burst > 0.0 ? quota.burst : std::max(quota.qps, 1.0);
}

}  // namespace

bool ApplyQuotaFlag(const std::string& spec, AdmissionOptions* options) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    return false;
  }
  const std::string tenant = spec.substr(0, eq);
  const std::string rate = spec.substr(eq + 1);
  const std::size_t colon = rate.find(':');
  TenantQuota quota;
  if (!ParsePositive(rate.substr(0, colon), &quota.qps) ||
      (colon != std::string::npos && !ParsePositive(rate.substr(colon + 1), &quota.burst))) {
    return false;
  }
  if (tenant == "*") {
    options->default_quota = quota;
  } else {
    options->tenant_quotas.emplace_back(tenant, quota);
  }
  return true;
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  enabled_ = options_.shed_deadline || QuotaActive(options_.default_quota);
  for (const auto& [tenant, quota] : options_.tenant_quotas) {
    (void)tenant;
    if (QuotaActive(quota)) {
      enabled_ = true;
    }
  }
}

TenantQuota AdmissionController::QuotaFor(const std::string& tenant) const {
  for (const auto& [name, quota] : options_.tenant_quotas) {
    if (name == tenant) {
      return quota;
    }
  }
  return options_.default_quota;
}

std::uint64_t AdmissionController::PredictedWaitNs(std::uint64_t pending_requests,
                                                   std::uint64_t ema_service_ns,
                                                   std::size_t workers) {
  if (workers == 0) {
    workers = 1;
  }
  // Saturating multiply: pending * ema can overflow under hostile inputs.
  const std::uint64_t per_worker =
      (pending_requests + static_cast<std::uint64_t>(workers) - 1) /
      static_cast<std::uint64_t>(workers);
  if (ema_service_ns != 0 && per_worker > UINT64_MAX / ema_service_ns) {
    return UINT64_MAX;
  }
  return per_worker * ema_service_ns;
}

AdmissionDecision AdmissionController::Decide(const std::string& tenant,
                                              std::int64_t remaining_deadline_us,
                                              std::uint64_t now_ns,
                                              std::uint64_t pending_requests,
                                              std::uint64_t ema_service_ns,
                                              std::size_t workers) {
  if (!enabled_) {
    return AdmissionDecision::kAdmit;
  }

  // Deadline feasibility first: a request that cannot make its deadline
  // should not consume quota tokens either.
  if (options_.shed_deadline && remaining_deadline_us > 0 && ema_service_ns != 0) {
    const std::uint64_t wait_ns = PredictedWaitNs(pending_requests, ema_service_ns, workers);
    const std::uint64_t remaining_ns =
        static_cast<std::uint64_t>(remaining_deadline_us) <= UINT64_MAX / 1000
            ? static_cast<std::uint64_t>(remaining_deadline_us) * 1000
            : UINT64_MAX;
    if (wait_ns > remaining_ns) {
      return AdmissionDecision::kShedDeadline;
    }
  }

  const TenantQuota quota = QuotaFor(tenant);
  if (!QuotaActive(quota)) {
    return AdmissionDecision::kAdmit;
  }

  std::lock_guard<std::mutex> lock(mu_);
  Bucket& bucket = buckets_[tenant];
  if (!bucket.initialized) {
    bucket.tokens = BurstFor(quota);
    bucket.last_refill_ns = now_ns;
    bucket.initialized = true;
  } else if (now_ns > bucket.last_refill_ns) {
    const double elapsed_s =
        static_cast<double>(now_ns - bucket.last_refill_ns) / 1e9;
    bucket.tokens = std::min(BurstFor(quota), bucket.tokens + elapsed_s * quota.qps);
    bucket.last_refill_ns = now_ns;
  }
  if (bucket.tokens < 1.0) {
    return AdmissionDecision::kShedQuota;
  }
  bucket.tokens -= 1.0;
  return AdmissionDecision::kAdmit;
}

}  // namespace perfiface::serve
