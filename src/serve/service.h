// PredictionService: a concurrent performance-query service over the
// interface registry (paper §2's design-time and run-time clients — SoC
// sizing sweeps, offload decisions, auto-tuners — all reduce to "what
// latency/throughput will this workload see?" asked at high rate).
//
// The service loads the registry once, pre-parses every shipped .psc
// program and .pnet net (nets are also pre-compiled to flat CompiledNet
// form), and answers queries through a fixed worker pool:
//
//   clients ──Predict/PredictBatch/SubmitBatch──▶ admission control ──▶
//                                          │       deadline-bucketed
//                                          │       queue (request chunks)
//                             workers (one bytecode Vm per thread per
//                             program — Vms are stateful and are never
//                             shared) ──▶ sharded LRU cache
//                                          └──▶ exact derived tier
//                                               (src/petri/distill.h)
//
// Responses memoize (interface, function, canonicalized workload) →
// prediction, so hot workloads skip evaluation entirely; below that, pnet
// evaluations go per weakly-connected component through the service's own
// derived store (two services share no tier state): race-free components
// are answered by their exact max-plus program, keyed by structural hash
// so repeated *structure* is cheap even across nets, and the rest are
// simulated.
// Registry lookups go through a hash index built at construction.
// Per-request deadlines ride on the VM's step budget (docs/serving.md).
// A worker writes only its own lines per request: its metric shard,
// /tracez ring, derived-store memo and trace-id block (WorkerState);
// readers sum the workers' copies.
//
// Thread-safety: all public methods are safe from any thread. Shutdown
// (or destruction) drains accepted work, then rejects later submissions.
#ifndef SRC_SERVE_SERVICE_H_
#define SRC_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/program_interface.h"
#include "src/core/pnet.h"
#include "src/core/registry.h"
#include "src/obs/span_ring.h"
#include "src/perfscript/kv_object.h"
#include "src/perfscript/vm.h"
#include "src/petri/compiled_net.h"
#include "src/petri/distill.h"
#include "src/serve/admission.h"
#include "src/serve/deadline_queue.h"
#include "src/serve/lru_cache.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"
#include "src/serve/shadow.h"

namespace perfiface::serve {

struct ServiceOptions {
  // 0 = one worker per hardware thread.
  std::size_t num_workers = 0;
  // Capacity of the request queue, in chunks (not individual requests).
  std::size_t queue_capacity = 256;
  // Batch submissions are split into chunks of this many requests; the
  // chunk is the unit of queue handoff, so its cost amortizes.
  std::size_t batch_chunk = 32;
  // Total cache entries (0 disables caching).
  std::size_t cache_capacity = 4096;
  // Per-component Petri-net evaluation: each component is answered by the
  // exact derived tier (src/petri/distill.h), which keeps a per-key memo
  // of compiled max-plus programs, or else simulated on its own. The tier
  // is exact, so answers equal simulation bit for bit. Off, every pnet
  // query simulates the whole net from scratch — the reference for
  // benchmarking and for verifying equivalence.
  bool enable_pnet_memo = true;
  // Deadline→budget conversion: a request with deadline_us left gets at
  // most deadline_us * steps_per_us steps (docs/serving.md).
  std::uint64_t steps_per_us = 200;
  // Shadow validation (src/serve/shadow.h): re-run 1-in-N evaluated
  // predictions against the registered simulator backend and track drift.
  // 0 disables. The sampler is seeded and key-hashed, so the sampled set is
  // identical across runs regardless of worker interleaving.
  std::uint64_t shadow_sample_every = 0;
  std::uint64_t shadow_seed = 0;
  // |relative error| above this counts as a perfiface_shadow_violations_total
  // drift violation. The default leaves headroom over conv's calibrated
  // worst case (~7.7% program max error in tests/conv_test.cc).
  double shadow_drift_threshold = 0.15;
  // Admission control (docs/serving.md "Admission control & tenancy"):
  // per-tenant token-bucket quotas plus optional deadline-feasibility
  // shedding, applied at enqueue so overload is rejected early instead of
  // timing out in the queue. Defaults admit everything.
  AdmissionOptions admission;
};

// Per-request completion callback for the async API: invoked once per
// request, from a worker thread, with the request's index in submission
// order, as soon as that request resolves (streaming — not batched at the
// end). May be invoked from the submitting thread for requests rejected at
// submission (shed by admission control, or service shutting down). Must
// not block for long: it runs on the worker that would otherwise be
// evaluating.
using StreamCallback = std::function<void(std::size_t index, const PredictResponse& response)>;

// Per-chunk flush callback for the async API: invoked on the thread that
// just streamed `n` completions through the StreamCallback, right after the
// last of them and before that thread makes any other callback — once per
// worker chunk (at most ServiceOptions::batch_chunk requests), and once
// after the requests the submitting thread resolves inline. `n` counts the
// completions since that thread's previous flush, and the batch is counted
// done only after the flush returns, so a caller can buffer a chunk's
// completions per thread and hand them on in one piece here.
using FlushCallback = std::function<void(std::size_t n)>;

// Evaluation budget of a request whose max_steps is 0: VM steps (program
// queries) or net firings (pnet queries).
constexpr std::uint64_t kDefaultMaxSteps = 5'000'000;

class PredictionService {
 private:
  struct BatchState;  // defined below; BatchHandle only holds a pointer

 public:
  explicit PredictionService(const InterfaceRegistry& registry, ServiceOptions options = {});
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  // Handle to an in-flight async batch. Cheap to copy (shared state);
  // dropping every copy does NOT cancel the batch — it runs to completion
  // ("fire and forget" is legal, the workers keep the state alive).
  class BatchHandle {
   public:
    BatchHandle() = default;  // invalid handle; done() == true

    bool valid() const { return state_ != nullptr; }
    std::size_t size() const;
    // True once every request has resolved (and every callback returned).
    bool done() const;
    void Wait() const;
    // False on timeout.
    bool WaitFor(std::chrono::microseconds timeout) const;
    // Blocks until done; responses[i] answers requests[i].
    const std::vector<PredictResponse>& Responses() const;

   private:
    friend class PredictionService;
    explicit BatchHandle(std::shared_ptr<BatchState> state) : state_(std::move(state)) {}
    std::shared_ptr<BatchState> state_;
  };

  // Synchronous single query (a batch of one).
  PredictResponse Predict(const PredictRequest& request);

  // Synchronous batch: submitted as SubmitBatch submits, then waited for;
  // responses[i] answers requests[i]. The batch borrows `requests`, which
  // outlive the wait.
  std::vector<PredictResponse> PredictBatch(std::span<const PredictRequest> requests);

  // Async batch API: returns immediately with a handle; the service owns
  // the requests for the batch's lifetime. A single client thread can keep
  // many batches in flight and consume completions through `on_complete`
  // (streamed per request) or by polling/waiting on the handles, and close
  // each chunk's run of completions through `on_flush`.
  BatchHandle SubmitBatch(std::vector<PredictRequest> requests,
                          StreamCallback on_complete = nullptr,
                          FlushCallback on_flush = nullptr);

  // The same, but the caller lends the requests: they must stay alive and
  // unchanged until the service is done reading them, which is before the
  // on_flush call that completes the batch (the one whose `n` brings the
  // flushed total to requests.size()) — or, when on_flush is empty, before
  // the handle reports done. A caller that counts its flushes can take the
  // storage back inside that call.
  BatchHandle SubmitBatch(std::span<const PredictRequest> requests, StreamCallback on_complete,
                          FlushCallback on_flush);

  // Stops accepting work, drains the queue, joins the workers. Idempotent.
  void Shutdown();

  const ServiceMetrics& metrics() const { return *metrics_; }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t num_workers() const { return workers_.size(); }

  // Observability dumps (histograms, counters, queue depth).
  std::string StatsText() const { return metrics_->DumpText(queue_depth()); }
  std::string StatsJson() const { return metrics_->DumpJson(queue_depth()); }
  // Prometheus scrape: the build-info gauges, then this service's own
  // families — request metrics, the VM calls and Petri-net simulations it
  // ran, shadow validation and the tiers it runs (docs/observability.md).
  // Only what this service did is counted.
  std::string StatsPrometheus() const;

  // Interfaces the service can answer for (registry order).
  std::vector<std::string> InterfaceNames() const;

  // The service's derived store, or null when the tier is off. Tests and
  // benches read its counters through this.
  const DerivedStore* derived_store() const { return derived_.get(); }

  // Shadow-validation bookkeeping (always constructed; inert when
  // ServiceOptions::shadow_sample_every is 0).
  const ShadowValidator& shadow() const { return *shadow_; }

  // The workers' /tracez rings, one each (obs::DumpSpanRingsJson merges
  // them with a front end's own).
  std::vector<const obs::SpanRing*> span_rings() const;

  // GET /statusz body: uptime, build info, effective options, and a
  // per-interface requests/qps/p50/p99/shadow summary (docs/observability.md).
  std::string StatuszJson() const;

  // Name + shipped representations per interface (registry order); feeds
  // the HTTP GET /interfaces discovery endpoint.
  struct InterfaceInfo {
    std::string name;
    bool has_program = false;
    bool has_pnet = false;
  };
  std::vector<InterfaceInfo> InterfaceInfos() const;

  // Deadline→budget conversion used by Evaluate: at most remaining_us *
  // steps_per_us steps, saturating at UINT64_MAX instead of wrapping (a
  // client-supplied deadline near INT64_MAX must mean "effectively
  // unlimited", not a tiny wrapped budget and a spurious
  // DEADLINE_EXCEEDED). Non-positive remaining_us yields 0.
  static std::uint64_t DeadlineBudgetSteps(std::int64_t remaining_us,
                                           std::uint64_t steps_per_us);

 private:
  using Clock = std::chrono::steady_clock;

  // One pre-parsed registry entry; immutable after construction.
  struct Entry {
    std::string name;
    std::optional<ProgramInterface> program;  // shared parse + constants
    LoadedNet pnet;                           // pnet.net null if none shipped
    std::unique_ptr<CompiledNet> compiled;    // non-null iff pnet.net is
  };

  // One submitted batch, owned jointly by its handles and its queued Jobs
  // (so fire-and-forget is safe): the requests, their responses, the
  // callbacks (either may be empty) and the completion count.
  struct BatchState {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = 0;
    Clock::time_point submitted;
    // owned_requests for the owning SubmitBatch; PredictBatch, which waits
    // for the batch, and the lending SubmitBatch point at their caller's.
    std::span<const PredictRequest> requests;
    std::vector<PredictRequest> owned_requests;
    std::vector<PredictResponse> responses;
    StreamCallback on_complete;
    FlushCallback on_flush;
  };

  // One queued chunk: requests [begin, end) of its batch.
  struct Job {
    std::shared_ptr<BatchState> batch;
    std::size_t begin = 0;
    std::size_t end = 0;
    // Links this chunk's enqueue span to the dequeue span of whichever
    // worker picks it up (trace flow arrow). 0 = tracing was off at
    // submission, no flow recorded.
    std::uint64_t flow_id = 0;
    // Slack band the chunk was scheduled in (tightest deadline of its
    // requests at enqueue) and when it entered the queue, for the
    // queue-wait-by-band histograms.
    DeadlineBucket bucket = DeadlineBucket::kNone;
    Clock::time_point enqueued{};
  };

  // Per-worker evaluation state: one bytecode Vm per program, created
  // lazily and reused across requests (Call resets per-call state), the
  // scratch every request rebuilds in place, so a warm worker evaluates a
  // request without allocating, and everything else a request writes —
  // the worker's metric shard, /tracez ring, derived-store memo and trace
  // id block — so a worker writes no line another worker writes. Lives on
  // the worker's stack: the queries and `args` point into it.
  struct WorkerState {
    MetricShard* metrics = nullptr;
    obs::SpanRing* ring = nullptr;
    DerivedStore::WorkerMemo* derived_memo = nullptr;  // null when the tier is off
    TraceIdBlock trace_ids;
    std::vector<std::unique_ptr<Vm>> vms;  // by entry index
    std::string key;                       // the cache key
    KvObject workload;                     // a program query's argument
    std::vector<Value> args;               // {workload}
    InjectionPlan plan;                    // a pnet query's entry places
    std::vector<std::pair<PlaceId, int>> injections;
    Token token;
    // One per pnet entry, over `token` and `injections`, created lazily.
    std::vector<std::unique_ptr<ComponentQuery>> queries;  // by entry index
    obs::SpanRing::Entry ring_entry;  // the eval entry for /tracez
  };

  // Evaluation-path facts threaded out of EvaluateProgram/EvaluatePnet so
  // Evaluate can assemble the explain payload and the span-ring entry
  // without re-deriving them. Static strings only — no per-request
  // allocation unless the client asked to explain.
  struct EvalDetail {
    // "psc-vm" | "pnet" | "pnet-derived"
    const char* representation = "";
    std::uint64_t steps = 0;          // VM steps or net firings
    std::uint64_t memo_components = 0;
    std::uint64_t derived_hits = 0;   // components the derived tier answered
  };

  void WorkerLoop(std::size_t worker);
  // Every batch starts here: sizes its responses, counts it in flight and
  // hands it to EnqueueChunks.
  BatchHandle Submit(std::shared_ptr<BatchState> batch);
  // Runs admission over the batch, resolves shed (and, on shutdown,
  // unqueued) requests inline — response built, metrics charged, run
  // closed — and enqueues admitted requests as contiguous chunks. After it
  // returns, every request is either queued or already resolved.
  void EnqueueChunks(const std::shared_ptr<BatchState>& batch);
  // Stores response i of `batch` and streams it through on_complete.
  static void Resolve(BatchState& batch, std::size_t i, PredictResponse response);
  // Closes a run of `n` requests this thread just resolved: on_flush(n),
  // then counts them done and wakes the waiters once the batch is.
  void CloseRun(BatchState& batch, std::size_t n);
  const Entry* FindEntry(const std::string& name) const;
  PredictResponse Evaluate(const PredictRequest& request, Clock::time_point submitted,
                           WorkerState* state);
  // Fill the outcome fields (status, error, value, throughput) of *response.
  void EvaluateProgram(const PredictRequest& request, const Entry& entry, std::size_t entry_idx,
                       std::uint64_t budget, bool deadline_limited, WorkerState* state,
                       EvalDetail* detail, PredictResponse* response);
  void EvaluatePnet(const PredictRequest& request, const Entry& entry, std::size_t entry_idx,
                    std::uint64_t budget, bool deadline_limited, WorkerState* state,
                    EvalDetail* detail, PredictResponse* response);

  ServiceOptions options_;
  std::vector<Entry> entries_;
  // Registry lookup: entry index by name, immutable after construction.
  std::unordered_map<std::string, std::size_t> index_;
  std::unique_ptr<ServiceMetrics> metrics_;
  std::unique_ptr<ShadowValidator> shadow_;
  // Asked for each pnet component; null when the tier is off.
  std::unique_ptr<DerivedStore> derived_;
  Clock::time_point service_start_{};
  // One per worker, by worker index.
  std::vector<std::unique_ptr<obs::SpanRing>> rings_;
  ShardedLruCache cache_;
  // Written per chunk by submitters and workers, so it starts a line of
  // its own: the cache's read-only fields above stay clean.
  alignas(64) DeadlineQueue<Job> queue_;
  AdmissionController admission_;
  // Admitted-but-unfinished requests, feeding the deadline-feasibility
  // estimate with the workers' mean service-time EMA (predicted wait =
  // pending x ema / workers). Each counter written per chunk has a line
  // of its own.
  alignas(64) std::atomic<std::uint64_t> pending_requests_{0};
  alignas(64) std::atomic<std::uint64_t> next_flow_id_{1};
  alignas(64) std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;
};

}  // namespace perfiface::serve

#endif  // SRC_SERVE_SERVICE_H_
