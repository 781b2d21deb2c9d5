#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "src/common/strings.h"

namespace perfiface::obs {

namespace {

void AppendArgs(std::string* out, const TraceEvent& e) {
  *out += ",\"args\":{";
  bool first = true;
  if (e.kind == TraceEvent::Kind::kCounter) {
    *out += StrFormat("\"value\":%.17g", e.value);
    first = false;
  }
  if (e.num_key != nullptr) {
    *out += StrFormat("%s\"%s\":%.17g", first ? "" : ",", e.num_key, e.num_val);
    first = false;
  }
  if (e.num_key2 != nullptr) {
    *out += StrFormat("%s\"%s\":%.17g", first ? "" : ",", e.num_key2, e.num_val2);
    first = false;
  }
  if (e.str_key != nullptr) {
    *out += StrFormat("%s\"%s\":", first ? "" : ",", e.str_key);
    AppendJsonString(out, e.str_val);
    first = false;
  }
  if (!e.trace_id.empty()) {
    *out += StrFormat("%s\"trace_id\":", first ? "" : ",");
    AppendJsonString(out, e.trace_id);
  }
  *out += '}';
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may
  return *tracer;                        // outlive static destruction order
}

void Tracer::Start(const TracerOptions& options) {
  std::lock_guard<std::mutex> lock(registry_mu_);
  options_ = options;
  if (options_.sample_every == 0) {
    options_.sample_every = 1;
  }
  for (const std::unique_ptr<ThreadBuffer>& b : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    b->events.clear();
    b->dropped = 0;
    b->sample_counter = options_.seed % options_.sample_every;
  }
  start_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_release); }

std::uint64_t Tracer::NowNs() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - start_)
                                        .count());
}

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  thread_local ThreadBuffer* tls = nullptr;
  if (tls == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(registry_mu_);
    buffer->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    buffer->sample_counter = options_.seed % std::max<std::uint64_t>(1, options_.sample_every);
    tls = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return tls;
}

bool Tracer::Sample() {
  ThreadBuffer* b = LocalBuffer();
  std::lock_guard<std::mutex> lock(b->mu);
  const bool record = b->sample_counter % options_.sample_every == 0;
  ++b->sample_counter;
  return record;
}

void Tracer::Append(TraceEvent event) {
  ThreadBuffer* b = LocalBuffer();
  std::lock_guard<std::mutex> lock(b->mu);
  if (b->events.size() >= options_.max_events_per_thread) {
    ++b->dropped;
    return;
  }
  b->events.push_back(std::move(event));
}

void Tracer::RecordSpan(TraceEvent event) {
  event.kind = TraceEvent::Kind::kSpan;
  Append(std::move(event));
}

void Tracer::Instant(const char* cat, const char* name, const char* num_key, double num_val,
                     const char* str_key, std::string str_val) {
  if (!enabled() || !Sample()) {
    return;
  }
  TraceEvent e;
  e.kind = TraceEvent::Kind::kInstant;
  e.cat = cat;
  e.name = name;
  e.ts_ns = NowNs();
  e.num_key = num_key;
  e.num_val = num_val;
  e.str_key = str_key;
  e.str_val = std::move(str_val);
  Append(std::move(e));
}

void Tracer::Counter(const char* cat, const char* name, double value) {
  if (!enabled()) {
    return;
  }
  TraceEvent e;
  e.kind = TraceEvent::Kind::kCounter;
  e.cat = cat;
  e.name = name;
  e.ts_ns = NowNs();
  e.value = value;
  Append(std::move(e));
}

void Tracer::CounterDyn(const char* cat, std::string name, double value) {
  if (!enabled()) {
    return;
  }
  TraceEvent e;
  e.kind = TraceEvent::Kind::kCounter;
  e.cat = cat;
  e.dyn_name = std::move(name);
  e.ts_ns = NowNs();
  e.value = value;
  Append(std::move(e));
}

void Tracer::FlowBegin(const char* cat, const char* name, std::uint64_t flow_id,
                       std::string trace_id) {
  if (!enabled()) {
    return;
  }
  TraceEvent e;
  e.kind = TraceEvent::Kind::kFlowBegin;
  e.cat = cat;
  e.name = name;
  e.ts_ns = NowNs();
  e.flow_id = flow_id;
  e.trace_id = std::move(trace_id);
  Append(std::move(e));
}

void Tracer::FlowEnd(const char* cat, const char* name, std::uint64_t flow_id,
                     std::string trace_id) {
  if (!enabled()) {
    return;
  }
  TraceEvent e;
  e.kind = TraceEvent::Kind::kFlowEnd;
  e.cat = cat;
  e.name = name;
  e.ts_ns = NowNs();
  e.flow_id = flow_id;
  e.trace_id = std::move(trace_id);
  Append(std::move(e));
}

std::vector<TraceEvent> Tracer::Snapshot(std::vector<std::uint32_t>* tids) const {
  std::vector<TraceEvent> events;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const std::unique_ptr<ThreadBuffer>& b : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    for (const TraceEvent& e : b->events) {
      events.push_back(e);
      tids->push_back(b->tid);
    }
  }
  return events;
}

std::string Tracer::ExportChromeJson() const {
  std::vector<std::uint32_t> tids;
  const std::vector<TraceEvent> events = Snapshot(&tids);

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"pid\":1,";
    out += StrFormat("\"tid\":%u,", tids[i]);
    out += "\"cat\":";
    AppendJsonString(&out, e.cat);
    out += ",\"name\":";
    AppendJsonString(&out, e.EffectiveName());
    out += ",";
    // Chrome timestamps are microseconds (fractions allowed).
    out += StrFormat("\"ts\":%.3f", static_cast<double>(e.ts_ns) / 1e3);
    switch (e.kind) {
      case TraceEvent::Kind::kSpan:
        out += StrFormat(",\"ph\":\"X\",\"dur\":%.3f", static_cast<double>(e.dur_ns) / 1e3);
        break;
      case TraceEvent::Kind::kInstant:
        out += ",\"ph\":\"i\",\"s\":\"t\"";
        break;
      case TraceEvent::Kind::kCounter:
        out += ",\"ph\":\"C\"";
        break;
      case TraceEvent::Kind::kFlowBegin:
        out += StrFormat(",\"ph\":\"s\",\"id\":\"0x%llx\"",
                         static_cast<unsigned long long>(e.flow_id));
        break;
      case TraceEvent::Kind::kFlowEnd:
        // bp:"e" binds the arrow to the enclosing slice rather than the
        // next one, matching where FlowEnd is emitted (inside the dequeue
        // span).
        out += StrFormat(",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"0x%llx\"",
                         static_cast<unsigned long long>(e.flow_id));
        break;
    }
    AppendArgs(&out, e);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  const std::string json = ExportChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

std::string Tracer::SummaryText() const {
  std::vector<std::uint32_t> tids;
  const std::vector<TraceEvent> events = Snapshot(&tids);

  struct Row {
    TraceEvent::Kind kind = TraceEvent::Kind::kSpan;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    double last = 0, min = 0, max = 0;
  };
  std::map<std::pair<std::string, std::string>, Row> rows;
  for (const TraceEvent& e : events) {
    Row& r = rows[{e.cat, e.EffectiveName()}];
    r.kind = e.kind;
    if (e.kind == TraceEvent::Kind::kCounter) {
      if (r.count == 0) {
        r.min = r.max = e.value;
      }
      r.min = std::min(r.min, e.value);
      r.max = std::max(r.max, e.value);
      r.last = e.value;
    } else {
      r.total_ns += e.dur_ns;
    }
    ++r.count;
  }

  std::string out = StrFormat("%zu events (%llu dropped)\n", events.size(),
                              static_cast<unsigned long long>(dropped_events()));
  out += StrFormat("%-10s %-28s %10s %14s %12s\n", "cat", "name", "count", "total_us",
                   "mean_us|last");
  for (const auto& [key, r] : rows) {
    if (r.kind == TraceEvent::Kind::kCounter) {
      out += StrFormat("%-10s %-28s %10llu %14s %12.2f  (min %.2f max %.2f)\n", key.first.c_str(),
                       key.second.c_str(), static_cast<unsigned long long>(r.count), "-", r.last,
                       r.min, r.max);
    } else {
      const double total_us = static_cast<double>(r.total_ns) / 1e3;
      out += StrFormat("%-10s %-28s %10llu %14.2f %12.2f\n", key.first.c_str(),
                       key.second.c_str(), static_cast<unsigned long long>(r.count), total_us,
                       r.count == 0 ? 0 : total_us / static_cast<double>(r.count));
    }
  }
  return out;
}

std::uint64_t Tracer::recorded_events() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::uint64_t n = 0;
  for (const std::unique_ptr<ThreadBuffer>& b : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    n += b->events.size();
  }
  return n;
}

std::uint64_t Tracer::dropped_events() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  std::uint64_t n = 0;
  for (const std::unique_ptr<ThreadBuffer>& b : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(b->mu);
    n += b->dropped;
  }
  return n;
}

}  // namespace perfiface::obs
