#include "src/serve/service.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/build_info.h"
#include "src/obs/span_ring.h"
#include "src/obs/trace.h"
#include "src/perfscript/kv_object.h"
#include "src/petri/sim.h"

namespace perfiface::serve {

namespace {

// Response-cache shards: enough that the workers rarely share a lock.
constexpr std::size_t kCacheShards = 64;

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

std::size_t PredictionService::BatchHandle::size() const {
  return state_ == nullptr ? 0 : state_->responses.size();
}

bool PredictionService::BatchHandle::done() const {
  if (state_ == nullptr) {
    return true;
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->remaining == 0;
}

void PredictionService::BatchHandle::Wait() const {
  if (state_ == nullptr) {
    return;
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->remaining == 0; });
}

bool PredictionService::BatchHandle::WaitFor(std::chrono::microseconds timeout) const {
  if (state_ == nullptr) {
    return true;
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_for(lock, timeout, [this] { return state_->remaining == 0; });
}

const std::vector<PredictResponse>& PredictionService::BatchHandle::Responses() const {
  static const std::vector<PredictResponse>* const kEmpty = new std::vector<PredictResponse>();
  if (state_ == nullptr) {
    return *kEmpty;
  }
  Wait();
  return state_->responses;
}

PredictionService::PredictionService(const InterfaceRegistry& registry, ServiceOptions options)
    : options_(options),
      service_start_(Clock::now()),
      cache_(options.cache_capacity, kCacheShards),
      queue_(options.queue_capacity),
      admission_(options.admission) {
  // Pre-parse everything the registry ships: queries never touch the
  // filesystem, the parser, or the pnet compiler.
  std::vector<std::string> names;
  for (const InterfaceBundle& bundle : registry.bundles()) {
    Entry entry;
    entry.name = bundle.accelerator;
    if (!bundle.program_path.empty()) {
      entry.program = registry.LoadProgram(bundle.accelerator);
    }
    if (!bundle.pnet_path.empty()) {
      entry.pnet = LoadPnetFile(bundle.pnet_path);
      PI_CHECK_MSG(entry.pnet.ok(), entry.pnet.error.c_str());
      entry.compiled = std::make_unique<CompiledNet>(entry.pnet.net.get());
    }
    names.push_back(entry.name);
    entries_.push_back(std::move(entry));
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    index_.emplace(entries_[i].name, i);
  }
  std::size_t n = options_.num_workers;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  metrics_ = std::make_unique<ServiceMetrics>(names, n);
  shadow_ = std::make_unique<ShadowValidator>(
      ShadowOptions{options_.shadow_sample_every, options_.shadow_seed,
                    options_.shadow_drift_threshold},
      names);
  if (options_.enable_pnet_memo) {
    derived_ = std::make_unique<DerivedStore>();
  }
  rings_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rings_.push_back(std::make_unique<obs::SpanRing>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

PredictionService::~PredictionService() { Shutdown(); }

void PredictionService::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.Close();
    for (std::thread& w : workers_) {
      w.join();
    }
  });
}

std::uint64_t PredictionService::DeadlineBudgetSteps(std::int64_t remaining_us,
                                                     std::uint64_t steps_per_us) {
  if (remaining_us <= 0) {
    return 0;
  }
  const std::uint64_t remaining = static_cast<std::uint64_t>(remaining_us);
  // Saturate instead of wrapping: deadline_us arrives from the client (and,
  // with the wire front end, from the network), and a value near INT64_MAX
  // must mean "effectively unlimited" — the wrapped product can be tiny,
  // turning a generous deadline into a spurious DEADLINE_EXCEEDED.
  if (steps_per_us != 0 &&
      remaining > std::numeric_limits<std::uint64_t>::max() / steps_per_us) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return remaining * steps_per_us;
}

std::vector<const obs::SpanRing*> PredictionService::span_rings() const {
  std::vector<const obs::SpanRing*> rings;
  rings.reserve(rings_.size());
  for (const auto& ring : rings_) {
    rings.push_back(ring.get());
  }
  return rings;
}

std::string PredictionService::StatsPrometheus() const {
  std::string out;
  obs::AppendBuildInfoMetrics(&out);
  out += metrics_->DumpPrometheus(queue_depth());
  shadow_->DumpPrometheus(&out);
  if (derived_ != nullptr) {
    derived_->AppendPrometheus(&out);
  }
  return out;
}

std::string PredictionService::StatuszJson() const {
  const double uptime_s =
      static_cast<double>(ElapsedNs(service_start_, Clock::now())) / 1e9;
  std::string out = "{";
  out += StrFormat("\"uptime_s\":%.3f,", uptime_s);
  out += "\"build\":" + obs::BuildInfoJson() + ",";
  out += StrFormat(
      "\"options\":{\"workers\":%zu,\"queue_capacity\":%zu,\"batch_chunk\":%zu,"
      "\"cache_capacity\":%zu,\"pnet_memo\":%s,"
      "\"steps_per_us\":%llu,\"shadow_sample_every\":%llu,"
      "\"shadow_seed\":%llu,\"shadow_drift_threshold\":%.9g},",
      workers_.size(), options_.queue_capacity, options_.batch_chunk, options_.cache_capacity,
      options_.enable_pnet_memo ? "true" : "false",
      static_cast<unsigned long long>(options_.steps_per_us),
      static_cast<unsigned long long>(options_.shadow_sample_every),
      static_cast<unsigned long long>(options_.shadow_seed), options_.shadow_drift_threshold);
  out += StrFormat("\"queue_depth\":%zu,", queue_depth());
  // Admission summary: configured quotas merged with observed per-tenant
  // decision counters, so a tenant shows up whether it has traffic, a
  // quota, or both (docs/serving.md "Admission control & tenancy").
  {
    std::vector<TenantAdmissionSnapshot> rows = metrics_->AdmissionSnapshot();
    for (const auto& [tenant, quota] : admission_.options().tenant_quotas) {
      const std::string display = tenant.empty() ? "default" : tenant;
      bool present = false;
      for (const TenantAdmissionSnapshot& row : rows) {
        present = present || row.tenant == display;
      }
      if (!present) {
        rows.push_back(TenantAdmissionSnapshot{display, 0, 0, 0});
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const TenantAdmissionSnapshot& a, const TenantAdmissionSnapshot& b) {
                return a.tenant < b.tenant;
              });
    out += StrFormat(
        "\"admission\":{\"enabled\":%s,\"shed_deadline\":%s,\"pending_requests\":%llu,"
        "\"ema_service_us\":%.3f,\"admitted\":%llu,\"shed_deadline_total\":%llu,"
        "\"shed_quota_total\":%llu,\"tenants\":[",
        admission_.enabled() ? "true" : "false",
        admission_.options().shed_deadline ? "true" : "false",
        static_cast<unsigned long long>(pending_requests_.load(std::memory_order_relaxed)),
        static_cast<double>(metrics_->mean_service_ema_ns()) / 1e3,
        static_cast<unsigned long long>(metrics_->admission_admitted()),
        static_cast<unsigned long long>(metrics_->admission_shed_deadline()),
        static_cast<unsigned long long>(metrics_->admission_shed_quota()));
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const TenantAdmissionSnapshot& row = rows[i];
      const TenantQuota quota =
          admission_.QuotaFor(row.tenant == "default" ? std::string() : row.tenant);
      out += i == 0 ? "{\"tenant\":" : ",{\"tenant\":";
      AppendJsonString(&out, row.tenant);
      out += StrFormat(
          ",\"admitted\":%llu,\"shed_deadline\":%llu,"
          "\"shed_quota\":%llu,\"quota_qps\":%.9g,\"quota_burst\":%.9g}",
          static_cast<unsigned long long>(row.admitted),
          static_cast<unsigned long long>(row.shed_deadline),
          static_cast<unsigned long long>(row.shed_quota), quota.qps, quota.burst);
    }
    out += "]},";
  }
  if (derived_ != nullptr) {
    out += "\"derived_store\":" + derived_->SummaryJson() + ",";
  }
  out += "\"interfaces\":[";
  const std::vector<InterfaceTotals> rows = metrics_->Interfaces();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const InterfaceTotals& m = rows[i];
    obs::Histogram latency;
    metrics_->MergeLatency(i, &latency);
    out += i == 0 ? "{\"name\":" : ",{\"name\":";
    AppendJsonString(&out, m.interface);
    out += StrFormat(
        ",\"requests\":%llu,\"errors\":%llu,\"qps\":%.2f,"
        "\"p50_us\":%.2f,\"p99_us\":%.2f,",
        static_cast<unsigned long long>(m.requests), static_cast<unsigned long long>(m.errors),
        uptime_s <= 0 ? 0.0 : static_cast<double>(m.requests) / uptime_s,
        latency.Percentile(0.50) / 1e3, latency.Percentile(0.99) / 1e3);
    if (derived_ != nullptr) {
      out += StrFormat("\"derived_hits\":%llu,",
                       static_cast<unsigned long long>(m.derived_hits));
    }
    out += "\"shadow\":" + shadow_->SummaryJson(i) + "}";
  }
  out += "]}";
  return out;
}

std::vector<std::string> PredictionService::InterfaceNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& e : entries_) {
    names.push_back(e.name);
  }
  return names;
}

std::vector<PredictionService::InterfaceInfo> PredictionService::InterfaceInfos() const {
  std::vector<InterfaceInfo> infos;
  infos.reserve(entries_.size());
  for (const Entry& e : entries_) {
    infos.push_back({e.name, e.program.has_value(), e.pnet.net != nullptr});
  }
  return infos;
}

const PredictionService::Entry* PredictionService::FindEntry(const std::string& name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

PredictResponse PredictionService::Predict(const PredictRequest& request) {
  return PredictBatch(std::span<const PredictRequest>(&request, 1))[0];
}

std::vector<PredictResponse> PredictionService::PredictBatch(
    std::span<const PredictRequest> requests) {
  // The caller waits for the batch, so it lends its requests instead of
  // copying them into the batch.
  auto batch = std::make_shared<BatchState>();
  batch->requests = requests;
  BatchHandle handle = Submit(std::move(batch));
  handle.Wait();
  // Done: no worker touches the responses again, so they can move out.
  return std::move(handle.state_->responses);
}

PredictionService::BatchHandle PredictionService::SubmitBatch(
    std::vector<PredictRequest> requests, StreamCallback on_complete, FlushCallback on_flush) {
  auto batch = std::make_shared<BatchState>();
  batch->owned_requests = std::move(requests);
  batch->requests = batch->owned_requests;
  batch->on_complete = std::move(on_complete);
  batch->on_flush = std::move(on_flush);
  return Submit(std::move(batch));
}

PredictionService::BatchHandle PredictionService::SubmitBatch(
    std::span<const PredictRequest> requests, StreamCallback on_complete, FlushCallback on_flush) {
  auto batch = std::make_shared<BatchState>();
  batch->requests = requests;
  batch->on_complete = std::move(on_complete);
  batch->on_flush = std::move(on_flush);
  return Submit(std::move(batch));
}

PredictionService::BatchHandle PredictionService::Submit(std::shared_ptr<BatchState> batch) {
  batch->submitted = Clock::now();
  batch->responses.resize(batch->requests.size());
  if (batch->requests.empty()) {
    return BatchHandle(std::move(batch));  // remaining == 0: already done
  }
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    batch->remaining = batch->requests.size();
  }
  metrics_->IncrementInflight();
  EnqueueChunks(batch);
  if (obs::Tracer::Global().enabled()) {
    obs::Tracer::Global().Counter("serve", "queue_depth",
                                  static_cast<double>(queue_.size()));
  }
  return BatchHandle(std::move(batch));
}

void PredictionService::Resolve(BatchState& batch, std::size_t i, PredictResponse response) {
  batch.responses[i] = std::move(response);
  if (batch.on_complete) {
    batch.on_complete(i, batch.responses[i]);
  }
}

void PredictionService::CloseRun(BatchState& batch, std::size_t n) {
  // Flush before counting done: once remaining hits zero, Wait() may
  // return and the submitter may assume every callback has finished.
  if (batch.on_flush) {
    batch.on_flush(n);
  }
  bool batch_done = false;
  {
    std::lock_guard<std::mutex> lock(batch.mu);
    batch.remaining -= n;
    batch_done = batch.remaining == 0;
    if (batch_done) {
      // Under the lock, so a waiter that sees the batch done sees the
      // in-flight gauge drop too.
      metrics_->DecrementInflight();
    }
  }
  // The caller holds a reference to the batch, so it outlives the notify.
  if (batch_done) {
    batch.cv.notify_all();
  }
}

void PredictionService::EnqueueChunks(const std::shared_ptr<BatchState>& batch) {
  const std::span<const PredictRequest> requests = batch->requests;
  const std::size_t n = requests.size();
  const std::size_t chunk = std::max<std::size_t>(1, options_.batch_chunk);
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::SpanGuard enqueue_span("serve", "enqueue");
  enqueue_span.SetArg("requests", static_cast<double>(n));

  const Clock::time_point now = Clock::now();
  const std::int64_t elapsed_us =
      static_cast<std::int64_t>(ElapsedNs(batch->submitted, now) / 1000);

  // Requests answered here without evaluation: never queued, so they never
  // consulted the cache and the hit/miss counters must not move.
  std::size_t resolved_inline = 0;
  const auto reject = [&](std::size_t i, const char* error) {
    Resolve(*batch, i, UnevaluatedResponse(requests[i], PredictStatus::kRejected, error));
    metrics_->shared_shard().RecordStatus(CacheOutcome::kNotConsulted,
                                          /*deadline_exceeded=*/false, /*rejected=*/true);
    ++resolved_inline;
  };

  // Admission pass: decide every request up front so shedding happens
  // before any queueing (REJECTED now beats DEADLINE_EXCEEDED later). An
  // empty `admitted` means admission is inert and everything proceeds —
  // the per-request metrics work is skipped entirely on that hot path.
  std::vector<bool> admitted;
  if (admission_.enabled()) {
    obs::SpanGuard admission_span("serve", "admission");
    const std::uint64_t now_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count());
    const std::uint64_t ema = metrics_->mean_service_ema_ns();
    admitted.assign(n, true);
    for (std::size_t i = 0; i < n; ++i) {
      const PredictRequest& request = requests[i];
      const std::int64_t remaining_us =
          request.deadline_us > 0 ? request.deadline_us - elapsed_us : 0;
      const AdmissionDecision decision = admission_.Decide(
          request.tenant, remaining_us, now_ns,
          pending_requests_.load(std::memory_order_relaxed) + (i - resolved_inline), ema,
          workers_.size());
      metrics_->RecordAdmission(request.tenant, decision);
      if (decision == AdmissionDecision::kAdmit) {
        continue;
      }
      admitted[i] = false;
      reject(i, decision == AdmissionDecision::kShedQuota
                    ? "admission: tenant quota exhausted"
                    : "admission: deadline infeasible at current queue depth");
    }
    if (admission_span.active()) {
      admission_span.SetArg("admitted", static_cast<double>(n - resolved_inline));
      admission_span.SetArg("shed", static_cast<double>(resolved_inline));
    }
  }

  // Enqueue admitted requests as contiguous runs of at most `chunk`. A run
  // is scheduled in the slack band of its tightest deadline so one urgent
  // request is never parked behind its chunk-mates' laxity.
  std::size_t begin = 0;
  while (begin < n) {
    if (!admitted.empty() && !admitted[begin]) {
      ++begin;
      continue;
    }
    std::size_t end = begin + 1;
    while (end < n && end - begin < chunk && (admitted.empty() || admitted[end])) {
      ++end;
    }
    Job job;
    job.batch = batch;
    job.begin = begin;
    job.end = end;
    job.enqueued = now;
    std::int64_t tightest_us = 0;  // 0 = no deadline in the run
    for (std::size_t i = begin; i < end; ++i) {
      if (requests[i].deadline_us > 0) {
        const std::int64_t remaining_us = requests[i].deadline_us - elapsed_us;
        // An already-expired deadline still schedules most urgently; the
        // worker answers it DEADLINE_EXCEEDED at dequeue.
        const std::int64_t clamped = remaining_us < 1 ? 1 : remaining_us;
        if (tightest_us == 0 || clamped < tightest_us) {
          tightest_us = clamped;
        }
      }
    }
    const DeadlineBucket bucket = ClassifyDeadline(tightest_us);
    job.bucket = bucket;
    if (tracer.enabled()) {
      // Each chunk gets a flow arrow from this enqueue span to the dequeue
      // span of whichever worker pops it (the queue-wait handoff the flat
      // span view cannot show). The chunk's first trace id rides on the
      // arrow so a wire trace id finds its queue hop in the export.
      job.flow_id = next_flow_id_.fetch_add(1, std::memory_order_relaxed);
      tracer.FlowBegin("serve", "queue", job.flow_id, requests[begin].trace_id);
    }
    pending_requests_.fetch_add(end - begin, std::memory_order_relaxed);
    if (!queue_.Push(std::move(job), bucket)) {
      pending_requests_.fetch_sub(end - begin, std::memory_order_relaxed);
      // Service shut down mid-submission: answer the unqueued tail
      // directly (skipping indices admission already resolved).
      for (std::size_t i = begin; i < n; ++i) {
        if (admitted.empty() || admitted[i]) {
          reject(i, "service is shut down");
        }
      }
      break;
    }
    begin = end;
  }

  if (resolved_inline != 0) {
    CloseRun(*batch, resolved_inline);
  }
}

void PredictionService::WorkerLoop(std::size_t worker) {
  WorkerState state;
  state.metrics = &metrics_->worker_shard(worker);
  state.ring = rings_[worker].get();
  if (derived_ != nullptr) {
    state.derived_memo = derived_->NewWorkerMemo();
  }
  state.vms.resize(entries_.size());
  state.queries.resize(entries_.size());
  state.args.assign(1, Value::Object(&state.workload));
  Job job;
  for (;;) {
    {
      // The dequeue span makes worker idle time (queue wait) visible next
      // to the eval spans it precedes.
      obs::SpanGuard dequeue_span("serve", "dequeue");
      if (!queue_.Pop(&job)) {
        break;
      }
      dequeue_span.SetArg("chunk", static_cast<double>(job.end - job.begin));
      if (job.flow_id != 0) {
        // Terminate the enqueue->dequeue flow inside this span (the export
        // binds "f" events to their enclosing slice).
        obs::Tracer::Global().FlowEnd("serve", "queue", job.flow_id,
                                      job.batch->requests[job.begin].trace_id);
      }
    }
    if (obs::Tracer::Global().enabled()) {
      obs::Tracer::Global().Counter("serve", "queue_depth",
                                    static_cast<double>(queue_.size()));
    }
    BatchState& batch = *job.batch;
    const Clock::time_point popped = Clock::now();
    const std::uint64_t queue_wait_ns = ElapsedNs(job.enqueued, popped);
    for (std::size_t i = job.begin; i < job.end; ++i) {
      const PredictRequest& request = batch.requests[i];
      state.metrics->RecordQueueWait(job.bucket, queue_wait_ns);
      if (request.deadline_us <= 0 ||
          static_cast<std::int64_t>(ElapsedNs(batch.submitted, popped) / 1000) <
              request.deadline_us) {
        Resolve(batch, i, Evaluate(request, batch.submitted, &state));
        continue;
      }
      // A deadline that expired while the chunk sat in the queue is
      // answered here, before any cache or registry work starts — the
      // eval-path metrics and the shadow sampler never see the request.
      // The deadline counter moves (operators alert on it) but
      // RecordRequest does not: the latency histogram and per-interface
      // request/error counters describe evaluated traffic.
      PredictResponse expired = UnevaluatedResponse(
          request, PredictStatus::kDeadlineExceeded, "deadline expired while queued",
          queue_wait_ns, &state.trace_ids);
      state.metrics->RecordStatus(CacheOutcome::kNotConsulted, /*deadline_exceeded=*/true,
                                  /*rejected=*/false);
      state.ring->Record({"serve", "expired", expired.trace_id,
                          request.interface + " DEADLINE_EXCEEDED", obs::SpanRing::NowNs(), 0});
      Resolve(batch, i, std::move(expired));
    }
    pending_requests_.fetch_sub(job.end - job.begin, std::memory_order_relaxed);
    CloseRun(batch, job.end - job.begin);
    // Release the batch promptly rather than at the next Pop.
    job.batch.reset();
  }
}

PredictResponse PredictionService::Evaluate(const PredictRequest& request,
                                            Clock::time_point submitted, WorkerState* state) {
  const Clock::time_point start = Clock::now();
  const std::uint64_t queue_wait_ns = ElapsedNs(submitted, start);
  const std::uint64_t ring_start_ns = obs::SpanRing::NowNs();
  PredictResponse response;
  // Every response carries a trace id: the client's when supplied, a fresh
  // one otherwise (docs/observability.md "Trace context").
  if (request.trace_id.empty()) {
    GenerateTraceId(&response.trace_id, &state->trace_ids);
  } else {
    response.trace_id = request.trace_id;
  }

  obs::SpanGuard eval_span("serve", "eval");
  if (eval_span.active()) {
    eval_span.SetArg("interface", request.interface);
    eval_span.SetTraceId(response.trace_id);
  }

  // Metrics rows follow entry order, so the entry's index is its row.
  const Entry* entry = FindEntry(request.interface);
  const std::size_t entry_idx =
      entry == nullptr ? ServiceMetrics::kNoInterface
                       : static_cast<std::size_t>(entry - entries_.data());
  // kNotConsulted until the cache lookup actually runs: early exits
  // (expired deadline, unknown interface/function) must not skew the
  // hit/miss counters.
  CacheOutcome cache_outcome = CacheOutcome::kNotConsulted;
  // Deadline bookkeeping: queue-expired requests are answered without
  // evaluating; live ones get a step budget capped by the time remaining.
  std::uint64_t budget =
      request.max_steps != 0 ? request.max_steps : kDefaultMaxSteps;
  bool deadline_limited = false;
  EvalDetail detail;
  ShadowValidator::Outcome shadow_outcome;
  auto finish = [&]() {
    PredictResponse& r = response;
    r.tenant = request.tenant;
    r.eval_ns = ElapsedNs(start, Clock::now());
    MetricShard& metrics = *state->metrics;
    metrics.RecordRequest(entry_idx, r.eval_ns, r.ok(), detail.derived_hits);
    metrics.RecordServiceTime(r.eval_ns);
    metrics.RecordStatus(cache_outcome, r.status == PredictStatus::kDeadlineExceeded,
                         r.status == PredictStatus::kRejected);
    if (eval_span.active()) {
      eval_span.SetArg("status", std::string(PredictStatusName(r.status)));
    }
    if (request.explain) {
      ExplainInfo& ex = r.explain;
      ex.filled = true;
      ex.representation = detail.representation;
      ex.cache = cache_outcome == CacheOutcome::kHit
                     ? "hit"
                     : (cache_outcome == CacheOutcome::kMiss ? "miss" : "not_consulted");
      ex.queue_wait_ns = queue_wait_ns;
      ex.eval_ns = r.eval_ns;
      ex.steps = detail.steps;
      ex.memo_components = detail.memo_components;
      ex.derived_hits = detail.derived_hits;
      ex.deadline_limited = deadline_limited;
      ex.shadowed = shadow_outcome.ran;
      ex.shadow_truth = shadow_outcome.truth;
      ex.shadow_rel_err = shadow_outcome.rel_err;
    }
    obs::SpanRing::Entry& ring_entry = state->ring_entry;
    ring_entry.cat = "serve";
    ring_entry.name = "eval";
    ring_entry.trace_id = r.trace_id;
    ring_entry.detail = request.interface;
    ring_entry.detail += ' ';
    ring_entry.detail += PredictStatusName(r.status);
    ring_entry.start_ns = ring_start_ns;
    ring_entry.dur_ns = r.eval_ns;
    state->ring->Record(ring_entry);
    return std::move(response);
  };

  if (request.deadline_us > 0) {
    const std::int64_t elapsed_us = static_cast<std::int64_t>(ElapsedNs(submitted, start) / 1000);
    const std::int64_t remaining_us = request.deadline_us - elapsed_us;
    if (remaining_us <= 0) {
      response.status = PredictStatus::kDeadlineExceeded;
      response.error = "deadline expired before evaluation started";
      return finish();
    }
    const std::uint64_t deadline_steps =
        DeadlineBudgetSteps(remaining_us, options_.steps_per_us);
    if (deadline_steps < budget) {
      budget = deadline_steps;
      deadline_limited = true;
    }
  }

  if (entry == nullptr) {
    response.status = PredictStatus::kNotFound;
    response.error = StrFormat("unknown interface '%s'", request.interface.c_str());
    return finish();
  }

  Representation rep = request.representation;
  if (rep == Representation::kAuto) {
    if (!entry->program.has_value() && entry->pnet.net == nullptr) {
      response.status = PredictStatus::kNotFound;
      response.error = StrFormat("'%s' ships only a text interface (nothing executable)",
                                 request.interface.c_str());
      return finish();
    }
    rep = entry->program.has_value() ? Representation::kProgram : Representation::kPnet;
  }
  if (rep == Representation::kProgram && !entry->program.has_value()) {
    response.status = PredictStatus::kNotFound;
    response.error = StrFormat("'%s' ships no executable interface", request.interface.c_str());
    return finish();
  }
  if (rep == Representation::kPnet && entry->pnet.net == nullptr) {
    response.status = PredictStatus::kNotFound;
    response.error = StrFormat("'%s' ships no Petri-net interface", request.interface.c_str());
    return finish();
  }

  // The entry-place spec is parsed once, here: the plan keys the cache and
  // drives injection. A malformed spec can never have a cached answer.
  if (rep == Representation::kPnet) {
    ParseInjectionPlan(request, &state->plan);
    if (!state->plan.ok()) {
      response.status = PredictStatus::kError;
      response.error = state->plan.error;
      return finish();
    }
  }
  const std::string& key = state->key;
  CanonicalCacheKey(request, rep, &state->plan, &state->key);
  CachedPrediction cached;
  if (cache_.Get(key, &cached)) {
    cache_outcome = CacheOutcome::kHit;
    detail.representation = "cache";
    obs::Tracer::Global().Instant("serve", "cache_hit");
    response.status = PredictStatus::kOk;
    response.value = cached.value;
    response.throughput = cached.throughput;
    response.cache_hit = true;
    return finish();
  }
  cache_outcome = CacheOutcome::kMiss;

  if (rep == Representation::kProgram) {
    EvaluateProgram(request, *entry, entry_idx, budget, deadline_limited, state, &detail,
                    &response);
  } else {
    EvaluatePnet(request, *entry, entry_idx, budget, deadline_limited, state, &detail,
                 &response);
  }
  if (response.ok()) {
    // Shadow validation rides the miss path only: a cached prediction was
    // already sampled (same key, same decision) when first evaluated.
    if (shadow_->enabled() && shadow_->ShouldSample(key)) {
      shadow_outcome = shadow_->Validate(entry_idx, entry->name, request, response.value);
    }
    obs::SpanGuard fill_span("serve", "cache_fill");
    cache_.Put(key, CachedPrediction{response.value, response.throughput});
  }
  return finish();
}

void PredictionService::EvaluateProgram(const PredictRequest& request, const Entry& entry,
                                        std::size_t entry_idx, std::uint64_t budget,
                                        bool deadline_limited, WorkerState* state,
                                        EvalDetail* detail, PredictResponse* response) {
  const ProgramInterface& iface = *entry.program;
  if (!iface.Has(request.function)) {
    response->status = PredictStatus::kNotFound;
    response->error = StrFormat("'%s' has no function '%s'", request.interface.c_str(),
                                request.function.c_str());
    return;
  }

  KvObject& workload = state->workload;
  workload.Clear();
  for (const auto& kv : request.attrs) {
    workload.Set(kv.first, kv.second);
  }
  workload.AddUniformChildren(request.children);

  // One Vm per (worker, program), never shared across threads, with the
  // interpreter's observable semantics (the vm_diff_test contract).
  std::unique_ptr<Vm>& slot = state->vms[entry_idx];
  if (slot == nullptr) {
    slot = std::make_unique<Vm>(iface.compiled());
  }
  Vm& vm = *slot;
  vm.set_max_steps(budget);
  const EvalResult result = vm.Call(request.function, state->args);
  state->metrics->RecordVmCall(vm.steps_used(), vm.memo_hits(), !result.ok);
  detail->representation = "psc-vm";
  detail->steps = vm.steps_used();

  if (!result.ok) {
    if (vm.step_budget_exhausted()) {
      response->status =
          deadline_limited ? PredictStatus::kDeadlineExceeded : PredictStatus::kResourceExhausted;
    } else {
      response->status = PredictStatus::kError;
    }
    response->error = result.error;
    return;
  }
  if (!result.value.IsNumber()) {
    response->status = PredictStatus::kError;
    response->error = "interface returned a non-numeric result";
    return;
  }
  response->status = PredictStatus::kOk;
  response->value = result.value.num;
  if (StartsWith(request.function, "tput")) {
    response->throughput = response->value;
  }
}

void PredictionService::EvaluatePnet(const PredictRequest& request, const Entry& entry,
                                     std::size_t entry_idx, std::uint64_t budget,
                                     bool deadline_limited, WorkerState* state,
                                     EvalDetail* detail, PredictResponse* response) {
  detail->representation = "pnet";
  const PetriNet& net = *entry.pnet.net;
  const CompiledNet& cnet = *entry.compiled;
  const InjectionPlan& plan = state->plan;

  // Resolve the plan's place names: an empty plan means the first declared
  // place.
  std::vector<std::pair<PlaceId, int>>& injections = state->injections;
  injections.clear();
  if (plan.items.empty()) {
    injections.emplace_back(PlaceId{0}, static_cast<int>(plan.total));
  }
  for (const InjectionPlan::Item& item : plan.items) {
    if (!net.HasPlace(item.place)) {
      response->status = PredictStatus::kNotFound;
      response->error =
          StrFormat("net '%s' has no place '%s'", entry.name.c_str(), item.place.c_str());
      return;
    }
    injections.emplace_back(net.PlaceByName(item.place), item.count);
  }
  // Every injected token costs memory before the first firing, so a plan
  // larger than the firing budget, or than the fixed cap a client-chosen
  // budget cannot lift, is answered without injecting anything.
  const PredictStatus budget_status =
      deadline_limited ? PredictStatus::kDeadlineExceeded : PredictStatus::kResourceExhausted;
  if (static_cast<std::uint64_t>(plan.total) > budget) {
    response->status = budget_status;
    response->error = StrFormat("injection plan of %lld tokens exceeds the firing budget of %llu",
                                static_cast<long long>(plan.total),
                                static_cast<unsigned long long>(budget));
    return;
  }
  if (plan.total > kMaxInjectedTokens) {
    response->status = PredictStatus::kResourceExhausted;
    response->error = StrFormat("injection plan of %lld tokens exceeds the cap of %lld",
                                static_cast<long long>(plan.total),
                                static_cast<long long>(kMaxInjectedTokens));
    return;
  }

  // Map workload attributes onto the net's token schema; names the schema
  // does not declare are ignored so mixed program/pnet query sets can share
  // one workload description.
  Token& token = state->token;
  token.attrs.assign(net.attr_names().size(), 0.0);
  for (const auto& kv : request.attrs) {
    const std::size_t slot = net.FindAttr(kv.first);
    if (slot != PetriNet::kNoAttr) {
      token.attrs[slot] = kv.second;
    }
  }

  Cycles value = 0;
  bool quiesced = true;
  bool firing_budget_hit = false;
  std::string sim_error;  // a delay/guard expression failed (PetriSim::error)

  if (derived_ != nullptr) {
    // Weakly-connected components share no places, so they evolve
    // independently: answer each on its own — from its derived program
    // when the tier serves it, else by simulation — charging firings
    // against one shared budget so budget-exhaustion statuses match a
    // whole-net run exactly (the total work is identical, only the
    // interleaving differs). Every component must run — one with no
    // injected tokens can still fire off its initial marking.
    std::unique_ptr<ComponentQuery>& query_slot = state->queries[entry_idx];
    if (query_slot == nullptr) {
      query_slot = std::make_unique<ComponentQuery>(cnet, token, injections);
    }
    ComponentQuery& query = *query_slot;
    std::uint64_t remaining = budget;
    detail->memo_components = cnet.num_components();
    for (std::size_t c = 0; c < cnet.num_components(); ++c) {
      query.Select(c);
      ComponentResult result;
      bool hit = false;
      {
        obs::SpanGuard lookup_span("serve", "derived_lookup");
        hit = derived_->Predict(query, remaining, &result, state->derived_memo) ==
              DerivedStore::Outcome::kHit;
        if (lookup_span.active()) {
          lookup_span.SetArg("hit", hit ? 1.0 : 0.0);
        }
      }
      if (hit) {
        ++detail->derived_hits;
      } else {
        PetriSim sim(&cnet, c);
        sim.set_max_firings(remaining);
        sim.InjectPlan(injections, token);
        const bool q = sim.Run(kComponentRunHorizon);
        state->metrics->RecordPnetRun(sim.total_firings());
        result.quiesce_time = sim.now();
        result.firings = sim.total_firings();
        if (!q) {
          quiesced = false;
          firing_budget_hit = sim.firing_budget_exhausted();
          sim_error = sim.error();
          break;
        }
      }
      remaining -= result.firings;
      detail->steps += result.firings;
      value = std::max(value, result.quiesce_time);
    }
    if (detail->derived_hits != 0 && detail->derived_hits == detail->memo_components) {
      detail->representation = "pnet-derived";  // no component simulated
    }
  } else {
    // Tier off: one whole-net run over the shared pre-compiled form, the
    // reference the per-component answers must match.
    PetriSim sim(&cnet);
    sim.set_max_firings(budget);
    sim.InjectPlan(injections, token);
    quiesced = sim.Run(kComponentRunHorizon);
    state->metrics->RecordPnetRun(sim.total_firings());
    firing_budget_hit = sim.firing_budget_exhausted();
    sim_error = sim.error();
    value = sim.now();
    detail->steps = sim.total_firings();
  }

  if (!sim_error.empty()) {
    response->status = PredictStatus::kError;
    response->error = std::move(sim_error);
    return;
  }
  if (!quiesced) {
    response->status = budget_status;
    response->error = firing_budget_hit ? "net firing budget exhausted"
                                        : "net did not quiesce within the time horizon";
    return;
  }
  response->status = PredictStatus::kOk;
  response->value = static_cast<double>(value);
  response->throughput = value == 0 ? 0.0 : static_cast<double>(plan.total) / response->value;
}

}  // namespace perfiface::serve
