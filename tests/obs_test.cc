// Tests for the cross-layer tracing and metrics layer (src/obs): span
// nesting across threads, deterministic seeded sampling, the wait-free
// disabled hot path (verified allocation-free via a counting operator new),
// Chrome trace_event JSON well-formedness (parsed back by a real JSON
// parser below), the cross-layer acceptance trace (serve + interp + pnet +
// sim categories in one file), the log-linear histogram, and the
// Prometheus exposition.
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/core/registry.h"
#include "src/obs/histogram.h"
#include "src/obs/exposition.h"
#include "src/obs/trace.h"
#include "src/perfscript/interp.h"
#include "src/perfscript/kv_object.h"
#include "src/perfscript/vm.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"
#include "src/serve/service.h"
#include "src/serve/shadow.h"
#include "tests/exposition_parser.h"
#include "src/sim/engine.h"
#include "src/sim/fifo.h"
#include "src/sim/module.h"

// ---------------------------------------------------------------------------
// Counting operator new: lets the disabled-hot-path test assert that
// instrumentation sites allocate nothing when tracing is off. Overriding at
// global scope covers every allocation in this binary.

static std::atomic<std::uint64_t> g_allocations{0};

// GCC pairs our malloc-backed operator new with the free() in operator
// delete and flags it as mismatched; the pairing is intentional here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfiface {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — just enough to parse the tracer's
// own output back and make structural assertions against it. Parsing with a
// real parser (rather than substring checks) is the point: it catches
// escaping and comma-placement bugs that string matching would miss.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;   // kObject

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Parse() {
    JsonValue v;
    if (!ParseValue(&v)) {
      return std::nullopt;
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return std::nullopt;  // trailing garbage
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (text_.substr(pos_, 4) == "true") {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      out->type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    if (!Consume('{')) {
      return false;
    }
    if (Consume('}')) {
      return true;
    }
    for (;;) {
      std::string key;
      SkipSpace();
      if (!ParseString(&key) || !Consume(':')) {
        return false;
      }
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->fields.emplace_back(std::move(key), std::move(v));
      if (Consume(',')) {
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    if (!Consume('[')) {
      return false;
    }
    if (Consume(']')) {
      return true;
    }
    for (;;) {
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->items.push_back(std::move(v));
      if (Consume(',')) {
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return false;
          }
          const std::string hex(text_.substr(pos_, 4));
          *out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
          pos_ += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return false;
    }
    out->type = JsonValue::Type::kNumber;
    out->number = std::atof(std::string(text_.substr(start, pos_ - start)).c_str());
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> ParseTrace(const std::string& json) {
  return JsonParser(json).Parse();
}

// Convenience: parse the tracer's current contents and return traceEvents.
std::vector<JsonValue> ExportedEvents() {
  const auto doc = ParseTrace(obs::Tracer::Global().ExportChromeJson());
  EXPECT_TRUE(doc.has_value());
  if (!doc) {
    return {};
  }
  const JsonValue* events = doc->Find("traceEvents");
  EXPECT_NE(events, nullptr);
  return events ? events->items : std::vector<JsonValue>{};
}

class TracerTest : public ::testing::Test {
 protected:
  // Every test leaves the process-wide tracer stopped.
  void TearDown() override { obs::Tracer::Global().Stop(); }
};

TEST_F(TracerTest, SpanNestingAcrossThreads) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start();

  auto worker = [] {
    obs::SpanGuard outer("test", "outer");
    outer.SetArg("level", 0.0);
    {
      obs::SpanGuard inner("test", "inner");
      inner.SetArg("level", 1.0);
      // Make the inner span's duration visible at ns resolution.
      volatile double sink = 0;
      for (int i = 0; i < 1000; ++i) {
        sink = sink + static_cast<double>(i);
      }
    }
  };
  std::thread t1(worker);
  std::thread t2(worker);
  t1.join();
  t2.join();
  tracer.Stop();

  struct Span {
    double ts = 0, dur = 0;
  };
  // tid -> name -> span. Each thread must carry its own nested pair.
  std::map<double, std::map<std::string, Span>> by_tid;
  for (const JsonValue& e : ExportedEvents()) {
    const JsonValue* cat = e.Find("cat");
    if (cat == nullptr || cat->str != "test") {
      continue;
    }
    Span s{e.Find("ts")->number, e.Find("dur")->number};
    by_tid[e.Find("tid")->number][e.Find("name")->str] = s;
  }
  ASSERT_EQ(by_tid.size(), 2u) << "expected spans from two distinct threads";
  for (const auto& [tid, spans] : by_tid) {
    ASSERT_TRUE(spans.count("outer")) << "tid " << tid;
    ASSERT_TRUE(spans.count("inner")) << "tid " << tid;
    const Span& outer = spans.at("outer");
    const Span& inner = spans.at("inner");
    EXPECT_GE(inner.ts, outer.ts);
    EXPECT_LE(inner.ts + inner.dur, outer.ts + outer.dur + 1e-3);
  }
}

// A vm.call span carries two numeric args: the steps charged and the calls
// the call memo reused. A protoacc message with 50 uniform children prices
// one aliased sub-message, so read_cost runs once and is reused 49 times.
TEST_F(TracerTest, VmCallSpanCarriesStepsAndMemoHits) {
  obs::Tracer& tracer = obs::Tracer::Global();
  Vm vm(InterfaceRegistry::Default().LoadProgram("protoacc").compiled());
  KvObject message;
  message.Set("num_fields", 6);
  message.Set("num_writes", 9);
  message.AddUniformChildren(50);
  tracer.Start();
  ASSERT_TRUE(vm.Call("tput_protoacc_ser", {Value::Object(&message)}).ok);
  tracer.Stop();

  int spans = 0;
  for (const JsonValue& e : ExportedEvents()) {
    const JsonValue* cat = e.Find("cat");
    if (cat == nullptr || cat->str != "vm" || e.Find("name")->str != "call") {
      continue;
    }
    ++spans;
    const JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->Find("steps"), nullptr);
    ASSERT_NE(args->Find("memo_hits"), nullptr);
    EXPECT_EQ(args->Find("steps")->number, static_cast<double>(vm.steps_used()));
    EXPECT_EQ(args->Find("memo_hits")->number, 49.0);
    EXPECT_EQ(args->Find("function")->str, "tput_protoacc_ser");
  }
  EXPECT_EQ(spans, 1);
}

TEST_F(TracerTest, SamplingIsDeterministicPerSeed) {
  obs::Tracer& tracer = obs::Tracer::Global();

  auto recorded_indices = [&](std::uint64_t seed) {
    obs::TracerOptions options;
    options.sample_every = 4;
    options.seed = seed;
    tracer.Start(options);
    for (int i = 0; i < 16; ++i) {
      tracer.Instant("sample", "tick", "i", static_cast<double>(i));
    }
    tracer.Stop();
    std::set<int> indices;
    for (const JsonValue& e : ExportedEvents()) {
      if (e.Find("cat")->str != "sample") {
        continue;
      }
      indices.insert(static_cast<int>(e.Find("args")->Find("i")->number));
    }
    return indices;
  };

  const std::set<int> seed0 = recorded_indices(0);
  const std::set<int> seed0_again = recorded_indices(0);
  const std::set<int> seed1 = recorded_indices(1);
  EXPECT_EQ(seed0, (std::set<int>{0, 4, 8, 12}));
  EXPECT_EQ(seed0, seed0_again) << "same seed must select the same events";
  EXPECT_EQ(seed1, (std::set<int>{3, 7, 11, 15})) << "seed shifts the phase";
  EXPECT_NE(seed0, seed1);
}

TEST_F(TracerTest, CountersBypassSampling) {
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::TracerOptions options;
  options.sample_every = 1000;  // spans/instants essentially all dropped
  tracer.Start(options);
  for (int i = 0; i < 8; ++i) {
    tracer.Counter("queue", "depth", static_cast<double>(i));
  }
  tracer.Stop();
  int counters = 0;
  for (const JsonValue& e : ExportedEvents()) {
    if (e.Find("cat")->str == "queue") {
      EXPECT_EQ(e.Find("ph")->str, "C");
      ++counters;
    }
  }
  EXPECT_EQ(counters, 8);
}

TEST_F(TracerTest, DisabledHotPathDoesNotAllocate) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Stop();
  ASSERT_FALSE(tracer.enabled());

  // Warm up function-local statics outside the measured window.
  {
    obs::SpanGuard warmup("bench", "warmup");
    tracer.Instant("bench", "warmup");
    tracer.Counter("bench", "warmup", 0);
  }

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::SpanGuard span("bench", "hot");
    span.SetArg("i", static_cast<double>(i));
    tracer.Instant("bench", "hot");
    tracer.Counter("bench", "hot", static_cast<double>(i));
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "disabled tracing must not allocate";
}

TEST_F(TracerTest, EventCapDropsAndCounts) {
  obs::Tracer& tracer = obs::Tracer::Global();
  obs::TracerOptions options;
  options.max_events_per_thread = 4;
  tracer.Start(options);
  for (int i = 0; i < 10; ++i) {
    tracer.Instant("cap", "tick");
  }
  tracer.Stop();
  EXPECT_EQ(tracer.recorded_events(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  EXPECT_NE(tracer.SummaryText().find("6 dropped"), std::string::npos);
}

TEST_F(TracerTest, ChromeJsonIsWellFormedAndEscaped) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start();
  {
    obs::SpanGuard span("escape", "span");
    span.SetArg("text", std::string("quote\" slash\\ newline\n tab\t ctrl\x01"));
  }
  tracer.Instant("escape", "instant", "n", 2.5);
  tracer.CounterDyn("escape", "dyn\"name", 7);
  tracer.Stop();

  const std::string json = tracer.ExportChromeJson();
  const auto doc = ParseTrace(json);
  ASSERT_TRUE(doc.has_value()) << "export must be valid JSON:\n" << json;
  EXPECT_EQ(doc->Find("displayTimeUnit")->str, "ns");

  bool saw_escaped_arg = false, saw_dyn_counter = false;
  for (const JsonValue& e : doc->Find("traceEvents")->items) {
    ASSERT_NE(e.Find("ph"), nullptr);
    const std::string& ph = e.Find("ph")->str;
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "C") << ph;
    EXPECT_EQ(e.Find("pid")->number, 1.0);
    EXPECT_FALSE(e.Find("name")->str.empty());
    if (const JsonValue* args = e.Find("args"); args != nullptr) {
      if (const JsonValue* text = args->Find("text"); text != nullptr) {
        // The parser un-escapes; equality proves the escape round-trips.
        EXPECT_EQ(text->str, "quote\" slash\\ newline\n tab\t ctrl\x01");
        saw_escaped_arg = true;
      }
    }
    if (e.Find("name")->str == "dyn\"name") {
      EXPECT_EQ(e.Find("args")->Find("value")->number, 7.0);
      saw_dyn_counter = true;
    }
  }
  EXPECT_TRUE(saw_escaped_arg);
  EXPECT_TRUE(saw_dyn_counter);
}

// A producer/consumer pair for driving the sim engine (same shape as
// sim_test's, local to keep this binary self-contained).
class Producer : public Module {
 public:
  Producer(Fifo<int>* out, int count) : Module("producer"), out_(out), remaining_(count) {}
  void Tick(Cycles) override {
    if (remaining_ > 0 && out_->CanPush()) {
      out_->Push(remaining_--);
    }
  }
  bool Idle() const override { return remaining_ == 0; }

 private:
  Fifo<int>* out_;
  int remaining_;
};

class Consumer : public Module {
 public:
  explicit Consumer(Fifo<int>* in) : Module("consumer"), in_(in) {}
  void Tick(Cycles) override {
    if (!in_->Empty()) {
      in_->Pop();
    }
  }
  bool Idle() const override { return in_->Empty(); }

 private:
  Fifo<int>* in_;
};

// The PR's acceptance test: one trace file carries spans from the serve,
// interp, pnet, and sim layers, written to disk and parsed back.
TEST_F(TracerTest, CrossLayerTraceSpansAtLeastThreeLayers) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start();

  {
    serve::ServiceOptions options;
    options.num_workers = 2;
    serve::PredictionService service(InterfaceRegistry::Default(), options);

    std::vector<serve::PredictRequest> requests;
    serve::PredictRequest program;
    program.interface = "jpeg_decoder";
    program.function = "latency_jpeg_decode";
    program.attrs = {{"orig_size", 65536.0}, {"compress_rate", 0.2}};
    requests.push_back(program);

    serve::PredictRequest pnet;
    pnet.interface = "jpeg_decoder";
    pnet.representation = serve::Representation::kPnet;
    pnet.entry_place = "hdr_in:1,vld_in:4";
    pnet.attrs = {{"bits", 800.0}, {"blocks", 8.0}};
    requests.push_back(pnet);

    const auto responses = service.PredictBatch(requests);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[0].ok()) << responses[0].error;
    EXPECT_TRUE(responses[1].ok()) << responses[1].error;
  }

  {
    Fifo<int> fifo("f", 4);
    Producer producer(&fifo, 32);
    Consumer consumer(&fifo);
    Engine engine;
    engine.AddFifo(&fifo);
    engine.AddModule(&producer);
    engine.AddModule(&consumer);
    EXPECT_TRUE(engine.RunUntilIdle(10000));
  }

  tracer.Stop();
  const std::string path = ::testing::TempDir() + "/obs_cross_layer_trace.json";
  ASSERT_TRUE(tracer.WriteChromeJson(path));

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string json;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    json.append(buf, n);
  }
  std::fclose(f);

  const auto doc = ParseTrace(json);
  ASSERT_TRUE(doc.has_value()) << "trace file must be valid JSON";
  std::set<std::string> span_cats;
  std::set<std::string> all_cats;
  for (const JsonValue& e : doc->Find("traceEvents")->items) {
    all_cats.insert(e.Find("cat")->str);
    if (e.Find("ph")->str == "X") {
      span_cats.insert(e.Find("cat")->str);
    }
  }
  EXPECT_TRUE(span_cats.count("serve")) << "missing serve-layer spans";
  // Program queries run on the bytecode VM by default; the tree-walking
  // interpreter only shows up for non-compilable programs.
  EXPECT_TRUE(span_cats.count("vm") || span_cats.count("interp"))
      << "missing program-evaluation spans";
  EXPECT_TRUE(span_cats.count("pnet")) << "missing pnet-layer spans";
  EXPECT_TRUE(span_cats.count("sim")) << "missing sim-layer spans";
  EXPECT_GE(span_cats.size(), 3u);
  // Instants/counters ride along: pnet firings and queue depth tracks.
  EXPECT_TRUE(all_cats.count("pnet"));
}

// Every queue handoff records a flow: an "s" event inside the submitter's
// enqueue span and a matching "f" (bp:"e") event inside the worker's
// dequeue span, paired by id. Trace viewers draw these as arrows across
// threads — the cross-thread causality a flat span view cannot show.
TEST_F(TracerTest, FlowEventsLinkEnqueueToDequeue) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start();

  {
    serve::ServiceOptions options;
    options.num_workers = 2;
    options.batch_chunk = 4;
    serve::PredictionService service(InterfaceRegistry::Default(), options);
    std::vector<serve::PredictRequest> requests;
    for (int i = 0; i < 32; ++i) {
      serve::PredictRequest r;
      r.interface = "jpeg_decoder";
      r.function = "latency_jpeg_decode";
      r.attrs = {{"orig_size", 1024.0 * (i + 1)}, {"compress_rate", 0.2}};
      requests.push_back(r);
    }
    for (const auto& response : service.PredictBatch(requests)) {
      EXPECT_TRUE(response.ok()) << response.error;
    }
  }

  tracer.Stop();
  const auto doc = ParseTrace(tracer.ExportChromeJson());
  ASSERT_TRUE(doc.has_value());

  std::multiset<std::string> begin_ids;
  std::multiset<std::string> end_ids;
  for (const JsonValue& e : doc->Find("traceEvents")->items) {
    if (e.Find("cat")->str != "serve" || e.Find("name")->str != "queue") {
      continue;
    }
    const std::string& ph = e.Find("ph")->str;
    if (ph == "s") {
      ASSERT_NE(e.Find("id"), nullptr);
      begin_ids.insert(e.Find("id")->str);
    } else if (ph == "f") {
      ASSERT_NE(e.Find("id"), nullptr);
      ASSERT_NE(e.Find("bp"), nullptr);
      EXPECT_EQ(e.Find("bp")->str, "e") << "flow end must bind to its enclosing slice";
      end_ids.insert(e.Find("id")->str);
    }
  }
  // 32 requests in chunks of 4 -> 8 flows, each with exactly one begin and
  // one end carrying the same id. Flows are never sampled, so the pairing
  // is exact even though spans may be.
  EXPECT_EQ(begin_ids.size(), 8u);
  EXPECT_EQ(end_ids, begin_ids);
}

// ---------------------------------------------------------------------------
// obs::Histogram: the one histogram behind every exported distribution.

// Seeded samples from four shapes: each reported percentile sits within
// one bucket width (3.2%) of the exact one.
TEST(Histogram, PercentilesWithinBucketWidthOfExact) {
  SplitMix64 rng(16);
  const std::vector<std::pair<const char*, std::function<double()>>> shapes = {
      {"uniform", [&rng] { return 1e3 + rng.NextDouble() * 999e3; }},
      {"lognormal", [&rng] { return 20e3 * std::exp(rng.NextGaussian()); }},
      {"bimodal",
       [&rng] {
         return rng.NextBool(0.7) ? 5e3 + 500 * rng.NextGaussian()
                                  : 200e3 + 20e3 * rng.NextGaussian();
       }},
      {"constant", [] { return 20e3; }},
  };
  for (const auto& [name, draw] : shapes) {
    obs::Histogram h;
    std::vector<double> exact;
    for (int i = 0; i < 100000; ++i) {
      const double v = std::max(0.0, std::round(draw()));
      h.Record(static_cast<std::uint64_t>(v));
      exact.push_back(v);
    }
    EXPECT_EQ(h.count(), exact.size()) << name;
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      const double want = Percentile(exact, q * 100);
      EXPECT_NEAR(h.Percentile(q), want, 0.032 * want) << name << " q=" << q;
    }
  }
}

TEST(Histogram, PercentilesAreMonotoneInQ) {
  obs::Histogram h;
  for (std::uint64_t ns = 1; ns < 100000; ns *= 3) {
    h.Record(ns);
  }
  EXPECT_EQ(h.Percentile(0), 1.0);
  double prev = 0;
  for (int i = 0; i <= 1000; ++i) {
    const double p = h.Percentile(i / 1000.0);
    EXPECT_LE(prev, p) << i;
    prev = p;
  }
}

// Every bucket holds its value and is at most 1/32 as wide as the values in
// it, from 0 to UINT64_MAX; 0, 1 and UINT64_MAX record without overflow.
TEST(Histogram, GeometryCoversTheFullRange) {
  std::vector<std::uint64_t> values = {0, 1, 63, 64, 65, UINT64_MAX};
  for (int k = 6; k < 64; ++k) {
    const std::uint64_t edge = std::uint64_t{1} << k;
    values.insert(values.end(), {edge - 1, edge, edge + 1});
  }
  for (const std::uint64_t v : values) {
    obs::Histogram h;
    h.Record(v);
    const double lo = h.Percentile(0);
    const double hi = h.Percentile(1);
    EXPECT_LE(lo, static_cast<double>(v)) << v;
    EXPECT_GE(hi, static_cast<double>(v)) << v;
    EXPECT_LE(hi - lo, static_cast<double>(v) / 32) << v;
  }

  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  h.Record(0);
  h.Record(1);
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), std::uint64_t{0});  // 0 + 1 + UINT64_MAX, modulo 2^64
  EXPECT_EQ(h.Percentile(0.5), 1.0);
  const auto octaves = h.Octaves();
  EXPECT_EQ(octaves.front(), 2u);
  EXPECT_EQ(octaves.back(), 1u);
}

// TSan target: the first Records race to allocate the buckets.
TEST(Histogram, ConcurrentRecordsKeepExactCountAndSum) {
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  obs::Histogram h;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(t * kPerThread + i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  constexpr std::uint64_t kN = kThreads * kPerThread;
  EXPECT_EQ(h.count(), kN);
  EXPECT_EQ(h.sum(), kN * (kN - 1) / 2);
  std::uint64_t in_octaves = 0;
  for (const std::uint64_t n : h.Octaves()) {
    in_octaves += n;
  }
  EXPECT_EQ(in_octaves, kN);
}

// Per-worker histograms read as one: three histograms that split a sample
// set, merged, read exactly as one histogram that recorded every sample —
// percentiles, octaves, sum, count and exposition text alike. One part is
// recorded the single-writer way, as a worker records its shard.
TEST(Histogram, MergeOfSplitSamplesReadsAsOneHistogram) {
  SplitMix64 rng(26);
  obs::Histogram parts[3];
  obs::Histogram whole;
  std::vector<std::uint64_t> values = {0, 1, 64, 65, 1024, UINT64_MAX / 4};
  for (int i = 0; i < 30000; ++i) {
    values.push_back(static_cast<std::uint64_t>(
        std::max(0.0, std::round(20e3 * std::exp(2 * rng.NextGaussian())))));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.Record(values[i]);
    if (i % 3 == 0) {
      parts[0].RecordExclusive(values[i]);
    } else {
      parts[i % 3].Record(values[i]);
    }
  }
  obs::Histogram merged;
  for (const obs::Histogram& part : parts) {
    merged.Merge(part);
  }
  merged.Merge(obs::Histogram());  // an empty part adds nothing

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.mean(), whole.mean());
  EXPECT_EQ(merged.Octaves(), whole.Octaves());
  for (const double q : {0.0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.Percentile(q), whole.Percentile(q)) << q;
  }
  std::string merged_text;
  std::string whole_text;
  obs::AppendHistogram(&merged_text, "h_seconds", "shard=\"all\"", merged, 1e-9);
  obs::AppendHistogram(&whole_text, "h_seconds", "shard=\"all\"", whole, 1e-9);
  EXPECT_EQ(merged_text, whole_text);
  EXPECT_NE(merged_text.find("h_seconds_count{shard=\"all\"} 30006"), std::string::npos)
      << merged_text;
}

// The finite `le` edges of one histogram series, in scrape order, each
// with its cumulative count.
std::vector<std::pair<std::string, double>> BucketEdges(const std::string& scrape,
                                                        const std::string& bucket_family) {
  std::vector<testing::ExpositionSample> samples;
  std::string error;
  EXPECT_TRUE(testing::ParseExposition(scrape, &samples, &error)) << error;
  std::vector<std::pair<std::string, double>> edges;
  for (const testing::ExpositionSample& s : samples) {
    const auto le = s.labels.find("le");
    if (s.name == bucket_family && le != s.labels.end() && le->second != "+Inf") {
      edges.emplace_back(le->second, s.value);
    }
  }
  return edges;
}

// Regression: the log2 histograms closed their buckets below, so a sample
// of exactly 2^k first appeared one edge up (1024 ns at le="2.048e-06"),
// and the latency series always ended on an empty top edge.
TEST(HistogramExposition, SamplesOnAnEdgeCountAtThatEdge) {
  for (const int k : {0, 5, 10, 20, 30}) {
    serve::ServiceMetrics metrics({"iface"});
    metrics.shared_shard().RecordRequest(0, std::uint64_t{1} << k, /*ok=*/true);
    const std::string text = metrics.DumpPrometheus(0);
    const auto edges = BucketEdges(text, "perfiface_serve_latency_seconds_bucket");
    ASSERT_EQ(edges.size(), 1u) << "k=" << k << ": only the edge holding the sample\n" << text;
    EXPECT_EQ(edges[0].first, StrFormat("%.9g", std::ldexp(1e-9, k))) << k;
    EXPECT_EQ(edges[0].second, 1.0) << k;
  }

  serve::ShadowBackendRegistry::Global().Register(
      "obs_test_edge", [](const serve::PredictRequest&, double* truth, std::string*) {
        *truth = 64;
        return true;
      });
  serve::ShadowValidator shadow(serve::ShadowOptions{1, 0, 0.5}, {"obs_test_edge"});
  EXPECT_TRUE(shadow.Validate(0, "obs_test_edge", serve::PredictRequest{}, 65).ran);  // 2^-6
  std::string text;
  shadow.DumpPrometheus(&text);
  const auto edges = BucketEdges(text, "perfiface_shadow_error_abs_bucket");
  ASSERT_EQ(edges.size(), 1u) << text;
  EXPECT_EQ(edges[0].first, "0.015625");
  EXPECT_EQ(edges[0].second, 1.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition: every scrape belongs to the object that did the work.

TEST(Exposition, ServiceScrapeCarriesOnlyTheServicesOwnFamilies) {
  // The service counts the VM calls and Petri-net simulations of its own
  // requests (the derived tier is off, so the pnet request is simulated)
  // and its request totals. The layers below it count nothing shared: the
  // interpreter and the cycle-level engine run here too, outside any
  // service, and no family of theirs reaches the scrape.
  serve::PredictRequest req;
  req.interface = "jpeg_decoder";
  req.function = "latency_jpeg_decode";
  req.attrs = {{"orig_size", 4096.0}, {"compress_rate", 0.5}};
  serve::ServiceOptions options;
  options.enable_pnet_memo = false;
  serve::PredictionService service(InterfaceRegistry::Default(), options);
  EXPECT_TRUE(service.Predict(req).ok());
  serve::PredictRequest pnet;
  pnet.interface = "jpeg_decoder";
  pnet.representation = serve::Representation::kPnet;
  pnet.entry_place = "hdr_in:1";
  EXPECT_TRUE(service.Predict(pnet).ok());
  {
    const ProgramInterface iface = InterfaceRegistry::Default().LoadProgram("jpeg_decoder");
    Interpreter interp(iface.program().get());
    for (const auto& [name, value] : iface.constants()) {
      interp.SetGlobal(name, value);
    }
    KvObject image;
    for (const auto& [name, value] : req.attrs) {
      image.Set(name, value);
    }
    EXPECT_TRUE(interp.Call(req.function, {Value::Object(&image)}).ok);
  }
  {
    Fifo<int> fifo("f", 4);
    Producer producer(&fifo, 8);
    Consumer consumer(&fifo);
    Engine engine;
    engine.AddFifo(&fifo);
    engine.AddModule(&producer);
    engine.AddModule(&consumer);
    EXPECT_TRUE(engine.RunUntilIdle(1000));
  }

  const std::string text = service.StatsPrometheus();
  std::string error;
  ASSERT_TRUE(testing::ParseExposition(text, nullptr, &error)) << error;
  EXPECT_EQ(text.rfind("# HELP perfiface_build_info ", 0), 0u) << "build info comes first";
  EXPECT_NE(text.find("\nperfiface_psc_vm_calls_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("perfiface_psc_vm_steps_total"), std::string::npos);
  EXPECT_NE(text.find("\nperfiface_pnet_runs_total 1\n"), std::string::npos);
  EXPECT_NE(text.find("perfiface_pnet_firings_total"), std::string::npos);
  EXPECT_NE(text.find("\nperfiface_serve_requests_total 2\n"), std::string::npos);
  EXPECT_NE(text.find("perfiface_serve_queue_depth"), std::string::npos);
  // Retired families, and the interpreter's, which only psc_tool prints.
  for (const char* absent :
       {"perfiface_interp_", "perfiface_sim_", "perfiface_conv_sim_",
        "perfiface_expr_superinstr_total", "perfiface_psc_expr_parses_total"}) {
    EXPECT_EQ(text.find(absent), std::string::npos) << absent;
  }
}

TEST(ServiceMetricsPrometheus, HistogramIsCumulativeAndLabeled) {
  serve::ServiceMetrics metrics({"iface_a", "iface_b"});
  metrics.shared_shard().RecordRequest(0, /*latency_ns=*/1000, /*ok=*/true);
  metrics.shared_shard().RecordRequest(0, /*latency_ns=*/3000, /*ok=*/true);
  metrics.shared_shard().RecordStatus(serve::CacheOutcome::kMiss, false, false);
  metrics.shared_shard().RecordStatus(serve::CacheOutcome::kHit, false, false);

  const std::string text = metrics.DumpPrometheus(/*queue_depth=*/3);
  EXPECT_NE(text.find("perfiface_serve_queue_depth 3"), std::string::npos);
  EXPECT_NE(text.find("perfiface_serve_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("perfiface_serve_cache_misses_total 1"), std::string::npos);
  EXPECT_NE(text.find("perfiface_serve_interface_requests_total{interface=\"iface_a\"} 2"),
            std::string::npos);
  // Idle interfaces get no histogram series.
  EXPECT_EQ(text.find("perfiface_serve_latency_seconds_bucket{interface=\"iface_b\""),
            std::string::npos);
  // The +Inf bucket equals the count, and the buckets are cumulative.
  EXPECT_NE(text.find("perfiface_serve_latency_seconds_bucket{interface=\"iface_a\","
                      "le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("perfiface_serve_latency_seconds_count{interface=\"iface_a\"} 2"),
            std::string::npos);
}

// Regression: HELP text and label values used to be emitted verbatim, so a
// backslash or newline in either corrupted the scrape — everything after it
// parsed as garbage lines. Both must round-trip through the v0.0.4 escaping.
TEST(Exposition, HostileHelpTextAndLabelValuesAreEscaped) {
  std::string text;
  obs::AppendCounter(&text, "obs_test_hostile_help_total",
                     "line one\nline two with back\\slash", 3);
  std::string error;
  ASSERT_TRUE(testing::ParseExposition(text, nullptr, &error)) << error;
  EXPECT_NE(text.find("# HELP obs_test_hostile_help_total "
                      "line one\\nline two with back\\\\slash"),
            std::string::npos);
  EXPECT_NE(text.find("\nobs_test_hostile_help_total 3\n"), std::string::npos);

  // The escaping helpers round-trip through the strict parser's decoder.
  EXPECT_EQ(obs::EscapeHelpText("a\\b\nc"), "a\\\\b\\nc");
  EXPECT_EQ(obs::EscapeLabelValue("say \"hi\"\\now\n"), "say \\\"hi\\\"\\\\now\\n");
}

TEST(ServiceMetricsPrometheus, HostileInterfaceNamesKeepTheScrapeParseable) {
  const std::string hostile = "evil\"name\\with\nnewline";
  serve::ServiceMetrics metrics({hostile, "plain"});
  metrics.shared_shard().RecordRequest(0, /*latency_ns=*/1000, /*ok=*/false);
  metrics.shared_shard().RecordRequest(1, /*latency_ns=*/2000, /*ok=*/true);

  const std::string text = metrics.DumpPrometheus(/*queue_depth=*/0);
  std::vector<testing::ExpositionSample> samples;
  std::string error;
  ASSERT_TRUE(testing::ParseExposition(text, &samples, &error)) << error;
  // The decoded label equals the original hostile string: escaped on the
  // wire, intact after parsing.
  bool found_hostile = false;
  bool found_plain = false;
  for (const auto& s : samples) {
    const auto it = s.labels.find("interface");
    if (it == s.labels.end()) {
      continue;
    }
    found_hostile = found_hostile || it->second == hostile;
    found_plain = found_plain || it->second == "plain";
  }
  EXPECT_TRUE(found_hostile);
  EXPECT_TRUE(found_plain);
}

TEST(ServiceMetricsPrometheus, NotConsultedLeavesCacheCountersAlone) {
  serve::ServiceMetrics metrics({});
  serve::MetricShard& shard = metrics.shared_shard();
  shard.RecordStatus(serve::CacheOutcome::kNotConsulted, /*deadline_exceeded=*/false,
                     /*rejected=*/true);
  shard.RecordStatus(serve::CacheOutcome::kNotConsulted, /*deadline_exceeded=*/true,
                     /*rejected=*/false);
  const std::string text = metrics.DumpPrometheus(0);
  EXPECT_NE(text.find("perfiface_serve_cache_hits_total 0"), std::string::npos);
  EXPECT_NE(text.find("perfiface_serve_cache_misses_total 0"), std::string::npos);
  EXPECT_NE(text.find("perfiface_serve_rejected_total 1"), std::string::npos);
  EXPECT_NE(text.find("perfiface_serve_deadline_exceeded_total 1"), std::string::npos);
}

}  // namespace
}  // namespace perfiface
