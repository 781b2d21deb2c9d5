// Cross-layer tracing for the prediction pipeline.
//
// The paper's pitch is that performance interfaces let users see where
// latency comes from without reading RTL; this tracer gives our own stack
// the same property. One process-wide Tracer collects spans (start/end),
// instant events, and counter samples from every layer a query crosses —
// serve (queueing, cache), perfscript (interpretation), petri (firings),
// sim (cycle attribution) — into per-thread buffers, and exports them as
// Chrome trace_event JSON loadable in chrome://tracing or Perfetto, plus a
// flat text summary for terminals.
//
// Design constraints (docs/observability.md):
//  - Disabled is the common case and must be wait-free and allocation-free:
//    every instrumentation site reduces to one relaxed atomic load.
//  - Enabled recording appends to a per-thread buffer guarded by a
//    per-buffer mutex (uncontended except during export), so layers never
//    serialize against each other.
//  - A sampling knob (1-in-N per thread, seeded phase) bounds the cost of
//    high-rate events like Petri-net firings; counters are never sampled.
//  - Buffers survive thread exit: worker spans recorded before a service
//    shuts down are still present when the tool exports the trace.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfiface::obs {

struct TracerOptions {
  // Record 1 of every `sample_every` spans/instants per thread. Counters
  // are always recorded. 1 = record everything.
  std::uint64_t sample_every = 1;
  // Offsets the per-thread sampling phase (counter starts at
  // seed % sample_every), so repeated runs with the same seed select the
  // same events deterministically.
  std::uint64_t seed = 0;
  // Per-thread event cap; events beyond it are dropped and counted.
  std::size_t max_events_per_thread = 1 << 18;
};

struct TraceEvent {
  enum class Kind : std::uint8_t { kSpan, kInstant, kCounter, kFlowBegin, kFlowEnd };
  Kind kind = Kind::kSpan;
  const char* cat = "";    // static string (category / layer name)
  const char* name = "";   // static string; ignored if dyn_name non-empty
  std::string dyn_name;    // owned name for runtime-constructed tracks
  std::uint64_t ts_ns = 0;   // since Tracer::Start
  std::uint64_t dur_ns = 0;  // spans only
  double value = 0;          // counters only
  std::uint64_t flow_id = 0;  // flow events only; pairs begin with end
  // Optional args rendered into the Chrome "args" object.
  const char* num_key = nullptr;
  double num_val = 0;
  const char* num_key2 = nullptr;  // spans only: a second numeric arg
  double num_val2 = 0;
  const char* str_key = nullptr;
  std::string str_val;
  // Wire-propagated trace context (docs/observability.md "Trace context"):
  // rendered as args.trace_id so one id links a client frame to its spans.
  std::string trace_id;

  const char* EffectiveName() const { return dyn_name.empty() ? name : dyn_name.c_str(); }
};

class Tracer {
 public:
  static Tracer& Global();

  // Clears previously collected events, resets every thread's sampling
  // phase, and begins recording. Safe to call again after Stop.
  void Start(const TracerOptions& options = {});
  // Stops recording; collected events stay available for export. Spans that
  // are open when Stop runs are dropped (their guard sees enabled()==false).
  void Stop();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Nanoseconds since Start (0 if never started).
  std::uint64_t NowNs() const;

  // Advances this thread's sampling counter and reports whether the next
  // span/instant should be recorded. Only call while enabled.
  bool Sample();

  // Recording. `cat`/`name`/arg keys must be string literals (or otherwise
  // outlive the tracer); runtime names go through the std::string overloads.
  void RecordSpan(TraceEvent event);
  void Instant(const char* cat, const char* name, const char* num_key = nullptr,
               double num_val = 0, const char* str_key = nullptr, std::string str_val = {});
  void Counter(const char* cat, const char* name, double value);
  void CounterDyn(const char* cat, std::string name, double value);

  // Flow events stitch causally-linked spans on different threads into one
  // arrow in the trace viewer (Chrome "s"/"f" phases): FlowBegin inside the
  // producer's span, FlowEnd with the same id inside the consumer's span —
  // e.g. serve's enqueue -> worker-dequeue handoff. Never sampled: a flow
  // arrow with a missing endpoint is worse than no arrow, so both ends
  // record whenever tracing is on (they are rare next to per-firing spans).
  void FlowBegin(const char* cat, const char* name, std::uint64_t flow_id,
                 std::string trace_id = {});
  void FlowEnd(const char* cat, const char* name, std::uint64_t flow_id,
               std::string trace_id = {});

  // Chrome trace_event JSON ({"traceEvents":[...]}); load in Perfetto or
  // chrome://tracing. Safe to call while other threads record.
  std::string ExportChromeJson() const;
  bool WriteChromeJson(const std::string& path) const;
  // Flat per-(cat,name) aggregate: span count/total/mean, instant counts,
  // counter last/min/max.
  std::string SummaryText() const;

  std::uint64_t recorded_events() const;
  std::uint64_t dropped_events() const;

 private:
  struct ThreadBuffer {
    std::mutex mu;
    std::uint32_t tid = 0;
    std::uint64_t sample_counter = 0;
    std::uint64_t dropped = 0;
    std::vector<TraceEvent> events;
  };

  Tracer() = default;
  ThreadBuffer* LocalBuffer();
  void Append(TraceEvent event);
  std::vector<TraceEvent> Snapshot(std::vector<std::uint32_t>* tids) const;

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point start_{};
  TracerOptions options_;
  // Buffers are created on a thread's first recorded event and are never
  // freed (threads cache a raw pointer), only cleared on Start; the set is
  // bounded by the number of distinct threads that ever traced.
  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII span: captures the start time at construction (if the tracer is
// enabled and this thread's sampler selects it) and records a complete
// Chrome "X" event at destruction. Args attached via SetArg (up to two
// numeric args and one string arg) show up in the trace viewer's detail
// pane.
class SpanGuard {
 public:
  SpanGuard(const char* cat, const char* name) {
    Tracer& tracer = Tracer::Global();
    if (tracer.enabled() && tracer.Sample()) {
      cat_ = cat;
      name_ = name;
      start_ns_ = tracer.NowNs();
    }
  }

  ~SpanGuard() {
    if (cat_ == nullptr) {
      return;
    }
    Tracer& tracer = Tracer::Global();
    if (!tracer.enabled()) {
      return;
    }
    TraceEvent e;
    e.kind = TraceEvent::Kind::kSpan;
    e.cat = cat_;
    e.name = name_;
    e.ts_ns = start_ns_;
    e.dur_ns = tracer.NowNs() - start_ns_;
    e.num_key = num_key_;
    e.num_val = num_val_;
    e.num_key2 = num_key2_;
    e.num_val2 = num_val2_;
    e.str_key = str_key_;
    e.str_val = std::move(str_val_);
    e.trace_id = std::move(trace_id_);
    tracer.RecordSpan(std::move(e));
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  // True when this span was selected for recording (tracing on + sampled).
  bool active() const { return cat_ != nullptr; }

  // A numeric arg under a new key fills the second slot; the same key (or
  // a third key) overwrites.
  void SetArg(const char* key, double value) {
    if (!active()) {
      return;
    }
    if (num_key_ == nullptr || std::strcmp(num_key_, key) == 0) {
      num_key_ = key;
      num_val_ = value;
    } else {
      num_key2_ = key;
      num_val2_ = value;
    }
  }
  void SetArg(const char* key, std::string value) {
    if (active()) {
      str_key_ = key;
      str_val_ = std::move(value);
    }
  }
  // Attaches the request's wire trace id; unlike SetArg(str) this has its
  // own slot, so it composes with an "interface"/"status" string arg.
  void SetTraceId(std::string trace_id) {
    if (active()) {
      trace_id_ = std::move(trace_id);
    }
  }

 private:
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  const char* num_key_ = nullptr;
  double num_val_ = 0;
  const char* num_key2_ = nullptr;
  double num_val2_ = 0;
  const char* str_key_ = nullptr;
  std::string str_val_;
  std::string trace_id_;
};

}  // namespace perfiface::obs

#endif  // SRC_OBS_TRACE_H_
