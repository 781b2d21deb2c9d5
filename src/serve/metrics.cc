#include "src/serve/metrics.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/obs/exposition.h"

namespace perfiface::serve {

MetricShard::MetricShard(std::size_t num_interfaces, bool shared)
    : shared_(shared), rows_(num_interfaces) {}

void MetricShard::RecordRequest(std::size_t iface_idx, std::uint64_t latency_ns, bool ok,
                                std::uint64_t derived_hits) {
  Add(requests_, 1);
  if (!ok) {
    Add(errors_, 1);
  }
  if (iface_idx < rows_.size()) {
    InterfaceRow& row = rows_[iface_idx];
    Add(row.requests, 1);
    Record(row.latency, latency_ns);
    if (!ok) {
      Add(row.errors, 1);
    }
    if (derived_hits != 0) {
      Add(row.derived_hits, derived_hits);
    }
  }
}

void MetricShard::RecordStatus(CacheOutcome cache, bool deadline_exceeded, bool rejected) {
  if (cache == CacheOutcome::kHit) {
    Add(cache_hits_, 1);
  } else if (cache == CacheOutcome::kMiss) {
    Add(cache_misses_, 1);
  }
  if (deadline_exceeded) {
    Add(deadline_exceeded_, 1);
  }
  if (rejected) {
    Add(rejected_, 1);
  }
}

void MetricShard::RecordQueueWait(DeadlineBucket bucket, std::uint64_t wait_ns) {
  Record(queue_wait_[static_cast<std::size_t>(bucket)], wait_ns);
}

void MetricShard::RecordVmCall(std::uint64_t steps, std::uint64_t memo_hits, bool failed) {
  Add(vm_calls_, 1);
  Add(vm_steps_, steps);
  if (memo_hits != 0) {
    Add(vm_memo_hits_, memo_hits);
  }
  if (failed) {
    Add(vm_errors_, 1);
  }
}

void MetricShard::RecordPnetRun(std::uint64_t firings) {
  Add(pnet_runs_, 1);
  Add(pnet_firings_, firings);
}

void MetricShard::RecordServiceTime(std::uint64_t ns) {
  const std::uint64_t prev = Read(ema_service_ns_);
  ema_service_ns_.store(
      prev == 0 ? ns
                : static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(prev) +
                      (static_cast<std::int64_t>(ns) - static_cast<std::int64_t>(prev)) / 8),
      std::memory_order_relaxed);
}

ServiceMetrics::ServiceMetrics(const std::vector<std::string>& interfaces,
                               std::size_t num_workers)
    : interfaces_(interfaces) {
  shards_.reserve(num_workers + 1);
  for (std::size_t i = 0; i <= num_workers; ++i) {
    shards_.push_back(std::make_unique<MetricShard>(interfaces.size(),
                                                    /*shared=*/i == num_workers));
  }
}

std::uint64_t ServiceMetrics::Sum(std::atomic<std::uint64_t> MetricShard::*counter) const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += MetricShard::Read((*shard).*counter);
  }
  return total;
}

VmCounts ServiceMetrics::vm_counts() const {
  return VmCounts{Sum(&MetricShard::vm_calls_), Sum(&MetricShard::vm_steps_),
                  Sum(&MetricShard::vm_errors_), Sum(&MetricShard::vm_memo_hits_)};
}

PnetCounts ServiceMetrics::pnet_counts() const {
  return PnetCounts{Sum(&MetricShard::pnet_runs_), Sum(&MetricShard::pnet_firings_)};
}

std::uint64_t ServiceMetrics::mean_service_ema_ns() const {
  std::uint64_t total = 0;
  std::uint64_t served = 0;
  for (std::size_t w = 0; w + 1 < shards_.size(); ++w) {
    const std::uint64_t ema = MetricShard::Read(shards_[w]->ema_service_ns_);
    total += ema;
    served += ema != 0;
  }
  return served == 0 ? 0 : total / served;
}

std::vector<InterfaceTotals> ServiceMetrics::Interfaces() const {
  std::vector<InterfaceTotals> out(interfaces_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    InterfaceTotals& totals = out[i];
    totals.interface = interfaces_[i];
    for (const auto& shard : shards_) {
      const MetricShard::InterfaceRow& row = shard->rows_[i];
      totals.requests += MetricShard::Read(row.requests);
      totals.errors += MetricShard::Read(row.errors);
      totals.derived_hits += MetricShard::Read(row.derived_hits);
    }
  }
  return out;
}

void ServiceMetrics::MergeLatency(std::size_t row, obs::Histogram* out) const {
  for (const auto& shard : shards_) {
    out->Merge(shard->rows_[row].latency);
  }
}

ServiceMetrics::TenantAdmission* ServiceMetrics::TenantRow(const std::string& tenant) {
  const std::string& name = tenant.empty() ? std::string("default") : tenant;
  std::lock_guard<std::mutex> lock(tenant_mu_);
  for (auto& [existing, row] : tenants_) {
    if (existing == name) {
      return row.get();
    }
  }
  if (tenants_.size() >= kMaxTenantRows) {
    for (auto& [existing, row] : tenants_) {
      if (existing == "_other") {
        return row.get();
      }
    }
    tenants_.emplace_back("_other", std::make_unique<TenantAdmission>());
    return tenants_.back().second.get();
  }
  tenants_.emplace_back(name, std::make_unique<TenantAdmission>());
  return tenants_.back().second.get();
}

void ServiceMetrics::RecordAdmission(const std::string& tenant, AdmissionDecision decision) {
  TenantAdmission* row = TenantRow(tenant);
  switch (decision) {
    case AdmissionDecision::kAdmit:
      admission_admitted_.fetch_add(1, std::memory_order_relaxed);
      row->admitted.fetch_add(1, std::memory_order_relaxed);
      break;
    case AdmissionDecision::kShedDeadline:
      admission_shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      row->shed_deadline.fetch_add(1, std::memory_order_relaxed);
      break;
    case AdmissionDecision::kShedQuota:
      admission_shed_quota_.fetch_add(1, std::memory_order_relaxed);
      row->shed_quota.fetch_add(1, std::memory_order_relaxed);
      break;
  }
}

std::vector<TenantAdmissionSnapshot> ServiceMetrics::AdmissionSnapshot() const {
  std::vector<TenantAdmissionSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(tenant_mu_);
    out.reserve(tenants_.size());
    for (const auto& [name, row] : tenants_) {
      TenantAdmissionSnapshot snap;
      snap.tenant = name;
      snap.admitted = row->admitted.load(std::memory_order_relaxed);
      snap.shed_deadline = row->shed_deadline.load(std::memory_order_relaxed);
      snap.shed_quota = row->shed_quota.load(std::memory_order_relaxed);
      out.push_back(std::move(snap));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TenantAdmissionSnapshot& a, const TenantAdmissionSnapshot& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

std::string ServiceMetrics::DumpText(std::size_t queue_depth) const {
  std::string out;
  out += StrFormat("requests=%llu errors=%llu cache_hits=%llu cache_misses=%llu ",
                   static_cast<unsigned long long>(total_requests()),
                   static_cast<unsigned long long>(total_errors()),
                   static_cast<unsigned long long>(cache_hits()),
                   static_cast<unsigned long long>(cache_misses()));
  out += StrFormat("deadline_exceeded=%llu rejected=%llu queue_depth=%zu ",
                   static_cast<unsigned long long>(deadline_exceeded()),
                   static_cast<unsigned long long>(rejected()), queue_depth);
  out += StrFormat("inflight_batches=%lld\n", static_cast<long long>(inflight_batches()));
  out += StrFormat("%-18s %10s %8s %12s %12s %12s %12s\n", "interface", "requests", "errors",
                   "mean_us", "p50_us", "p95_us", "p99_us");
  const std::vector<InterfaceTotals> rows = Interfaces();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const InterfaceTotals& m = rows[i];
    obs::Histogram latency;
    MergeLatency(i, &latency);
    out += StrFormat("%-18s %10llu %8llu %12.2f %12.2f %12.2f %12.2f\n", m.interface.c_str(),
                     static_cast<unsigned long long>(m.requests),
                     static_cast<unsigned long long>(m.errors), latency.mean() / 1e3,
                     latency.Percentile(0.50) / 1e3, latency.Percentile(0.95) / 1e3,
                     latency.Percentile(0.99) / 1e3);
  }
  return out;
}

std::string ServiceMetrics::DumpJson(std::size_t queue_depth) const {
  std::string out = "{";
  out += StrFormat(
      "\"requests\":%llu,\"errors\":%llu,\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"deadline_exceeded\":%llu,\"rejected\":%llu,\"queue_depth\":%zu,"
      "\"inflight_batches\":%lld,\"interfaces\":[",
      static_cast<unsigned long long>(total_requests()),
      static_cast<unsigned long long>(total_errors()),
      static_cast<unsigned long long>(cache_hits()),
      static_cast<unsigned long long>(cache_misses()),
      static_cast<unsigned long long>(deadline_exceeded()),
      static_cast<unsigned long long>(rejected()), queue_depth,
      static_cast<long long>(inflight_batches()));
  const std::vector<InterfaceTotals> rows = Interfaces();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const InterfaceTotals& m = rows[i];
    obs::Histogram latency;
    MergeLatency(i, &latency);
    out += i == 0 ? "{\"interface\":" : ",{\"interface\":";
    AppendJsonString(&out, m.interface);
    out += StrFormat(
        ",\"requests\":%llu,\"errors\":%llu,\"mean_us\":%.3f,"
        "\"p50_us\":%.3f,\"p95_us\":%.3f,\"p99_us\":%.3f}",
        static_cast<unsigned long long>(m.requests), static_cast<unsigned long long>(m.errors),
        latency.mean() / 1e3, latency.Percentile(0.50) / 1e3, latency.Percentile(0.95) / 1e3,
        latency.Percentile(0.99) / 1e3);
  }
  out += "]}";
  return out;
}

std::string ServiceMetrics::DumpPrometheus(std::size_t queue_depth) const {
  std::string out;
  AppendVmPrometheus(&out, vm_counts());
  AppendPnetPrometheus(&out, pnet_counts());
  obs::AppendCounter(&out, "perfiface_serve_requests_total",
                     "Requests answered by the prediction service", total_requests());
  obs::AppendCounter(&out, "perfiface_serve_errors_total", "Requests that did not return OK",
                     total_errors());
  obs::AppendCounter(&out, "perfiface_serve_cache_hits_total",
                     "Requests answered from the prediction cache", cache_hits());
  obs::AppendCounter(&out, "perfiface_serve_cache_misses_total",
                     "Requests that consulted the cache and evaluated", cache_misses());
  obs::AppendCounter(&out, "perfiface_serve_deadline_exceeded_total",
                     "Requests past their deadline", deadline_exceeded());
  obs::AppendCounter(&out, "perfiface_serve_rejected_total", "Requests rejected at submission",
                     rejected());
  obs::AppendGauge(&out, "perfiface_serve_inflight_batches",
                   "Batches submitted and not yet fully resolved",
                   static_cast<double>(inflight_batches()));
  obs::AppendGauge(&out, "perfiface_serve_queue_depth",
                   "Request chunks waiting in the worker queue", static_cast<double>(queue_depth));

  // Interface names are free-form registry strings; escape them per the
  // exposition format so a quote/backslash/newline cannot corrupt the
  // scrape (load-bearing once /metrics is network-served).
  const std::vector<InterfaceTotals> rows = Interfaces();
  std::vector<std::string> labels;
  labels.reserve(rows.size());
  for (const InterfaceTotals& m : rows) {
    labels.push_back("interface=\"" + obs::EscapeLabelValue(m.interface) + "\"");
  }
  obs::AppendHeader(&out, "perfiface_serve_interface_requests_total", "counter",
                    "Requests per interface");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    obs::AppendSample(&out, "perfiface_serve_interface_requests_total", labels[i],
                      rows[i].requests);
  }
  obs::AppendHeader(&out, "perfiface_serve_interface_errors_total", "counter",
                    "Errors per interface");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    obs::AppendSample(&out, "perfiface_serve_interface_errors_total", labels[i],
                      rows[i].errors);
  }

  // Admission families always emit at least the "default" tenant row so
  // dashboards (and metrics_lint_test) see the family before any shed.
  std::vector<TenantAdmissionSnapshot> tenants = AdmissionSnapshot();
  if (tenants.empty()) {
    tenants.push_back(TenantAdmissionSnapshot{"default", 0, 0, 0});
  }
  const auto tenant_counter = [&out, &tenants](const char* name, const char* help,
                                               std::uint64_t TenantAdmissionSnapshot::*field) {
    obs::AppendHeader(&out, name, "counter", help);
    for (const TenantAdmissionSnapshot& t : tenants) {
      obs::AppendSample(&out, name, "tenant=\"" + obs::EscapeLabelValue(t.tenant) + "\"",
                        t.*field);
    }
  };
  tenant_counter("perfiface_admission_admitted_total",
                 "Requests admitted to the worker queue, by tenant",
                 &TenantAdmissionSnapshot::admitted);
  tenant_counter("perfiface_admission_shed_deadline_total",
                 "Requests shed at enqueue because the deadline was infeasible, by tenant",
                 &TenantAdmissionSnapshot::shed_deadline);
  tenant_counter("perfiface_admission_shed_quota_total",
                 "Requests shed at enqueue because the tenant token bucket was dry, by tenant",
                 &TenantAdmissionSnapshot::shed_quota);

  obs::AppendHeader(&out, "perfiface_admission_queue_wait_seconds", "histogram",
                    "Enqueue-to-worker-pickup wait by deadline slack band");
  for (std::size_t band = 0; band < kDeadlineBucketCount; ++band) {
    obs::Histogram wait;
    for (const auto& shard : shards_) {
      wait.Merge(shard->queue_wait_[band]);
    }
    obs::AppendHistogram(
        &out, "perfiface_admission_queue_wait_seconds",
        StrFormat("bucket=\"%s\"", DeadlineBucketName(static_cast<DeadlineBucket>(band))),
        wait, 1e-9);
  }

  obs::AppendHeader(&out, "perfiface_serve_latency_seconds", "histogram",
                    "Service-side request latency");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Skip idle rows: scrape size stays proportional to live traffic.
    if (rows[i].requests != 0) {
      obs::Histogram latency;
      MergeLatency(i, &latency);
      obs::AppendHistogram(&out, "perfiface_serve_latency_seconds", labels[i], latency, 1e-9);
    }
  }
  return out;
}

}  // namespace perfiface::serve
