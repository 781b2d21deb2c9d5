// servebench — the serving benchmark's measuring program.
//
//   servebench --workload sweep_cold|wire_hot|online_deadline --seed N
//              --seconds S --trace 0|1 [--trace-out FILE]
//
// Builds the serving stack, drives one seeded workload against it, checks
// a seeded sample of the answers against the oracle, and prints one JSON
// result line last: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1 (an untraced window, then a window with `explain`
// on every request). A diagnostics line precedes it. Exits 1 without a
// result when the run breaks, and with a result but code 1 when any answer
// is ERROR or NOT_FOUND. README.md has the workloads and metric definitions.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "servebench/bench.h"
#include "src/accel/conv/conv_shadow.h"
#include "src/accel/jpeg/jpeg_shadow.h"
#include "src/accel/protoacc/protoacc_shadow.h"
#include "src/core/pnet.h"
#include "src/net/server.h"
#include "src/net/wire.h"

namespace servebench {
namespace {

using perfiface::serve::PredictionService;

// Set-up is short and steal-prone, so each run builds the stack this many
// times and reports the median.
constexpr int kSetupRepeats = 21;
constexpr int kLoadRepeats = 5;
constexpr double kMaxWarmupSeconds = 2;
constexpr std::uint64_t kRequestSpans = 20000;
constexpr std::size_t kReplaysPerInterface = 8;

struct Args {
  Workload workload = Workload::kSweepCold;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload_name = value;
      have_workload = true;
      if (value == "sweep_cold") {
        args->workload = Workload::kSweepCold;
      } else if (value == "wire_hot") {
        args->workload = Workload::kWireHot;
      } else if (value == "online_deadline") {
        args->workload = Workload::kOnlineDeadline;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && args->seconds > 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : (n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Counters read at a window or slice boundary.
struct Snapshot {
  std::int64_t t_ns = 0;
  CpuSample process;
  CpuSample load;  // the load thread (the caller of RunPhase)
  HostSample host;
  std::uint64_t received = 0;
  std::uint64_t received_ok = 0;
};

Snapshot Take(const Driver& driver) {
  Snapshot s;
  s.t_ns = NowNs();
  s.process = ProcessCpu();
  s.load = ThreadCpu();
  s.host = ReadHostSample();
  s.received = driver.received();
  s.received_ok = driver.received_ok();
  return s;
}

// What happened between two snapshots, with the load thread's own CPU
// taken out so only the serving side remains.
struct Interval {
  double wall_s = 0;
  double completed = 0;
  double completed_ok = 0;
  CpuSample serving;
  double steal_share = 0;

  Interval(const Snapshot& a, const Snapshot& b) {
    wall_s = static_cast<double>(b.t_ns - a.t_ns) / 1e9;
    completed = static_cast<double>(b.received - a.received);
    completed_ok = static_cast<double>(b.received_ok - a.received_ok);
    // The kernel splits each thread's CPU into user and sys only
    // approximately, so a near-zero serving-side share can come out a hair
    // negative after the subtraction.
    serving.user_s = std::max(
        0.0, (b.process.user_s - a.process.user_s) - (b.load.user_s - a.load.user_s));
    serving.sys_s =
        std::max(0.0, (b.process.sys_s - a.process.sys_s) - (b.load.sys_s - a.load.sys_s));
    serving.ctx_switches = (b.process.ctx_switches - a.process.ctx_switches) -
                           (b.load.ctx_switches - a.load.ctx_switches);
    steal_share = Ratio(b.host.steal - a.host.steal, b.host.total - a.host.total);
  }
  double CpuUsPerRequest() const {
    return Ratio((serving.user_s + serving.sys_s) * 1e6, completed);
  }
};

// Per-slice figures.
double SliceQps(const Interval& i, const Tally&) { return Ratio(i.completed_ok, i.wall_s); }
double SliceCpuUs(const Interval& i, const Tally&) { return i.CpuUsPerRequest(); }
double SliceP50Us(const Interval&, const Tally& t) { return t.latency.PercentileNs(0.5) / 1e3; }
double SliceDeadlineMet(const Interval&, const Tally& t) {
  return Ratio(static_cast<double>(t.deadline_met), static_cast<double>(t.sent));
}
double SliceOk(const Interval&, const Tally& t) {
  return Ratio(static_cast<double>(t.ok), static_cast<double>(t.sent));
}

// One timed window, run as consecutive one-second slices. Other tenants of
// the host (steal, shared caches and cores) only ever make a slice slower,
// and they come and go within seconds, so each per-request end-to-end
// figure is the median of its best quarter of slices: the program's own
// cost, with the disturbed slices left out. Prometheus deltas, the answer
// sample and the diagnostics cover the whole window.
struct Window {
  std::vector<Interval> slices;
  std::vector<std::unique_ptr<Tally>> tallies;  // per slice; answers land after the slice ends
  std::unique_ptr<Interval> total;
  std::string scrape_before;
  std::string scrape_after;

  double Delta(std::string_view family) const {
    return PromSum(scrape_after, family) - PromSum(scrape_before, family);
  }
  // Indices of the best quarter of slices by a per-slice figure. The
  // tally-based figures are valid once the driver has finished.
  template <class PerSlice>
  std::vector<std::size_t> BestSlices(PerSlice per_slice, bool higher_is_better) const {
    std::vector<std::size_t> order(slices.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    const auto value = [&](std::size_t i) { return per_slice(slices[i], *tallies[i]); };
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return higher_is_better ? value(a) > value(b) : value(a) < value(b);
    });
    order.resize((order.size() + 3) / 4);
    return order;
  }
  // Median of the best quarter of per-slice values.
  template <class PerSlice>
  double BestQuarter(PerSlice per_slice, bool higher_is_better) const {
    std::vector<double> v;
    for (const std::size_t i : BestSlices(per_slice, higher_is_better)) {
      v.push_back(per_slice(slices[i], *tallies[i]));
    }
    return Median(v);
  }
  // Median latency over every answer of the best quarter of slices (the
  // slices with the lowest medians), so the figure rests on all their
  // samples rather than on one slice's.
  double BestQuarterP50Us() const {
    Histogram merged;
    for (const std::size_t i : BestSlices(SliceP50Us, false)) {
      merged.Merge(tallies[i]->latency);
    }
    return merged.PercentileNs(0.5) / 1e3;
  }
  Tally Merged() const {
    Tally all = *tallies.front();
    for (std::size_t i = 1; i < tallies.size(); ++i) {
      all.Merge(*tallies[i]);
    }
    return all;
  }
};

Window RunWindow(Driver* driver, const PredictionService& service, const Tally& prototype,
                 double seconds, bool explain) {
  Window w;
  const int slices = std::max(1, static_cast<int>(std::lround(seconds)));
  w.scrape_before = service.StatsPrometheus();
  const Snapshot first = Take(*driver);
  Snapshot last = first;
  for (int k = 0; k < slices; ++k) {
    w.tallies.push_back(std::make_unique<Tally>(prototype));
    if (k != 0) {
      w.tallies.back()->spans = nullptr;  // request spans come from the first slice
    }
    driver->RunPhase(w.tallies.back().get(), seconds / slices, explain);
    const Snapshot next = Take(*driver);
    w.slices.emplace_back(last, next);
    last = next;
  }
  w.total = std::make_unique<Interval>(first, last);
  w.scrape_after = service.StatsPrometheus();
  return w;
}

// The shipped interfaces a registry load parses: programs and nets.
std::vector<std::string> LoadableInterfaces(const perfiface::InterfaceRegistry& registry) {
  std::vector<std::string> names;
  for (const perfiface::InterfaceBundle& b : registry.bundles()) {
    if (!b.program_path.empty() || !b.pnet_path.empty()) {
      names.push_back(b.accelerator);
    }
  }
  return names;
}

// core.load_ms.<iface>: median over kLoadRepeats of LoadProgram plus
// LoadPnetFile for one interface.
double TimeInterfaceLoad(const perfiface::InterfaceRegistry& registry, const std::string& name,
                         SpanLog* spans) {
  const perfiface::InterfaceBundle& bundle = registry.Get(name);
  std::vector<double> ms;
  for (int i = 0; i < kLoadRepeats; ++i) {
    const std::int64_t t0 = NowNs();
    if (!bundle.program_path.empty()) {
      const perfiface::ProgramInterface program = registry.LoadProgram(name);
    }
    if (!bundle.pnet_path.empty()) {
      const perfiface::LoadedNet net = perfiface::LoadPnetFile(bundle.pnet_path);
      if (!net.ok()) {
        Fatal("loading " + bundle.pnet_path + ": " + net.error);
      }
    }
    const std::int64_t t1 = NowNs();
    spans->Add("core", "core.load." + name, t0, t1 - t0);
    ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  return Median(ms);
}

using ShadowTruthFn = bool (*)(const PredictRequest&, double*, std::string*);

ShadowTruthFn ShadowTruthFor(const std::string& interface) {
  if (interface == "conv") {
    return perfiface::conv::ConvShadowTruth;
  }
  if (interface == "jpeg_decoder") {
    return perfiface::jpeg::JpegShadowTruth;
  }
  if (interface == "protoacc") {
    return perfiface::protoacc::ProtoaccShadowTruth;
  }
  return nullptr;
}

const char* const kShadowInterfaces[] = {"conv", "jpeg_decoder", "protoacc"};

// shadow.replay_ms.<iface>: the shadow backends timed on `indices` — the
// requests the service shadowed when it samples (online_deadline), else the
// window's answer sample — at most kReplaysPerInterface accepted requests
// per interface. Requests a backend refuses are skipped untimed.
std::map<std::string, double> TimeShadowReplays(const QueryStream& stream,
                                                const std::vector<std::uint64_t>& indices,
                                                SpanLog* spans) {
  std::map<std::string, std::vector<double>> ms;
  for (const std::uint64_t index : indices) {
    const PredictRequest request = stream.At(index);
    const ShadowTruthFn truth_fn = ShadowTruthFor(request.interface);
    std::vector<double>& samples = ms[request.interface];
    if (truth_fn == nullptr || samples.size() == kReplaysPerInterface) {
      continue;
    }
    double truth = 0;
    std::string error;
    const std::int64_t t0 = NowNs();
    const bool ok = truth_fn(request, &truth, &error);
    const std::int64_t t1 = NowNs();
    if (ok) {
      spans->Add("accel", "accel.shadow_replay." + request.interface, t0, t1 - t0);
      samples.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
  }
  std::map<std::string, double> mean_ms;
  for (const char* iface : kShadowInterfaces) {
    const std::vector<double>& samples = ms[iface];
    double sum = 0;
    for (const double s : samples) {
      sum += s;
    }
    mean_ms[iface] = Ratio(sum, static_cast<double>(samples.size()));
  }
  return mean_ms;
}

struct AnswerCheck {
  std::size_t checked = 0;
  std::size_t matched = 0;
  std::vector<std::string> mismatches;  // first few, for the diagnostics
};

AnswerCheck CheckAnswers(const perfiface::InterfaceRegistry& registry, const QueryStream& stream,
                         const Tally& tally, SpanLog* spans) {
  Oracle oracle(registry);
  AnswerCheck check;
  const std::int64_t t0 = NowNs();
  for (const auto& [hash, sample] : tally.value_sample) {
    const auto [index, served] = sample;
    const PredictRequest request = stream.At(index);
    double truth = 0;
    std::string why;
    ++check.checked;
    const bool answered = oracle.Answer(request, &truth, &why);
    if (answered && std::memcmp(&truth, &served, sizeof(double)) == 0) {
      ++check.matched;
    } else if (check.mismatches.size() < 5) {
      check.mismatches.push_back(request.interface + " #" + std::to_string(index) + ": served " +
                                 std::to_string(served) + ", oracle " +
                                 (why.empty() ? std::to_string(truth) : why));
    }
  }
  spans->Add("oracle", "oracle.check", t0, NowNs() - t0);
  return check;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonString(std::string_view s) {
  std::string out;
  perfiface::net::AppendJsonString(&out, s);
  return out;
}

// The serving stack under test; the listener only on the wire workloads.
struct Stack {
  std::unique_ptr<PredictionService> service;
  std::unique_ptr<perfiface::net::NetServer> server;

  // Drains and destroys the listener before the service it fronts.
  void Reset() {
    if (server != nullptr) {
      server->Stop();
    }
    server.reset();
    service.reset();
  }
};

// Builds the stack kSetupRepeats times — registry parse and compile,
// workers, and the listener where used — timing each build, and keeps the
// last one.
Stack BuildStack(const perfiface::InterfaceRegistry& registry,
                 const perfiface::serve::ServiceOptions& options, bool wire,
                 const perfiface::net::NetServerOptions& net_options,
                 std::vector<double>* setup_s, SpanLog* spans) {
  Stack stack;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.Reset();
    const std::int64_t t0 = NowNs();
    stack.service = std::make_unique<PredictionService>(registry, options);
    if (wire) {
      stack.server =
          std::make_unique<perfiface::net::NetServer>(stack.service.get(), net_options);
      std::string error;
      if (!stack.server->Start(&error)) {
        Fatal("listener: " + error);
      }
    }
    const std::int64_t t1 = NowNs();
    spans->Add("core", "setup", t0, t1 - t0);
    setup_s->push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  return stack;
}

std::vector<Metric> EndToEndMetrics(const Window& window, double value_match_ratio,
                                    double setup_s, double peak_rss_mb) {
  return {
      {"throughput_qps", window.BestQuarter(SliceQps, true), "req/s"},
      {"cpu_us_per_req", window.BestQuarter(SliceCpuUs, false), "us"},
      {"latency_p50_us", window.BestQuarterP50Us(), "us"},
      {"deadline_met_ratio", window.BestQuarter(SliceDeadlineMet, true), "ratio"},
      {"ok_ratio", window.BestQuarter(SliceOk, true), "ratio"},
      {"value_match_ratio", value_match_ratio, "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

// Per-layer metrics of the traced window; `untraced` is the window before
// it, for the tracing overhead.
std::vector<Metric> PerLayerMetrics(const Window& traced, const Tally& reported,
                                    const Window& untraced, bool wire, const QueryStream& stream,
                                    const std::map<std::string, double>& load_ms,
                                    SpanLog* spans) {
  const Interval& total = *traced.total;
  const double sent = static_cast<double>(reported.sent);
  const auto eval_p50 = [&reported](const char* rep) {
    const auto it = reported.eval_by_rep.find(rep);
    return it == reported.eval_by_rep.end() ? 0.0 : it->second.PercentileNs(0.5) / 1e3;
  };
  const auto per_answer = [&total](double v) { return Ratio(v, total.completed); };
  const double hits = traced.Delta("perfiface_serve_cache_hits_total");
  const double misses = traced.Delta("perfiface_serve_cache_misses_total");
  const double memo_hits = traced.Delta("perfiface_pnet_memo_hits_total");
  const double memo_misses = traced.Delta("perfiface_pnet_memo_misses_total");
  std::vector<Metric> metrics = {
      {"net.bytes_tx_per_req", per_answer(traced.Delta("perfiface_net_bytes_tx_total")), "B"},
      {"net.self_p50_us", wire ? reported.client_self.PercentileNs(0.5) / 1e3 : 0, "us"},
      {"proc.sys_us_per_req", per_answer(total.serving.sys_s * 1e6), "us"},
      {"proc.ctx_switches_per_req", per_answer(total.serving.ctx_switches), "count"},
      {"serve.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"serve.queue_wait_p50_us", reported.queue_wait.PercentileNs(0.5) / 1e3, "us"},
      {"serve.eval_p50_us.cache", eval_p50("cache"), "us"},
      {"serve.eval_p50_us.psc-vm", eval_p50("psc-vm"), "us"},
      {"serve.eval_p50_us.pnet", eval_p50("pnet"), "us"},
      {"serve.eval_p50_us.pnet-memo", eval_p50("pnet-memo"), "us"},
      {"serve.shed_ratio", Ratio(traced.Delta("perfiface_admission_shed_deadline_total"), sent),
       "ratio"},
      {"serve.expired_ratio", Ratio(traced.Delta("perfiface_serve_deadline_exceeded_total"), sent),
       "ratio"},
      {"perfscript.vm_steps_per_req", per_answer(traced.Delta("perfiface_psc_vm_steps_total")),
       "count"},
      {"perfscript.vm_fallbacks", traced.Delta("perfiface_psc_vm_fallback_total"), "count"},
      {"petri.memo_hit_ratio", Ratio(memo_hits, memo_hits + memo_misses), "ratio"},
      {"petri.firings_per_pnet_req",
       Ratio(traced.Delta("perfiface_pnet_firings_total"),
             static_cast<double>(reported.pnet_evals)),
       "count"},
      {"shadow.runs", traced.Delta("perfiface_shadow_runs_total"), "count"},
      {"shadow.errors", traced.Delta("perfiface_shadow_errors_total"), "count"},
  };
  std::vector<std::uint64_t> replayed = reported.shadowed;
  if (replayed.empty()) {
    for (const auto& [hash, sample] : reported.value_sample) {
      replayed.push_back(sample.first);
    }
    std::sort(replayed.begin(), replayed.end());
  }
  for (const auto& [iface, ms] : TimeShadowReplays(stream, replayed, spans)) {
    metrics.push_back({"shadow.replay_ms." + iface, ms, "ms"});
  }
  for (const auto& [iface, ms] : load_ms) {
    metrics.push_back({"core.load_ms." + iface, ms, "ms"});
  }
  metrics.push_back({"obs.trace_overhead",
                     Ratio(total.CpuUsPerRequest(), untraced.total->CpuUsPerRequest()) - 1,
                     "ratio"});
  metrics.push_back({"host.steal_share", total.steal_share, "ratio"});
  metrics.push_back({"client.gen_late_p99_us", reported.lateness.PercentileNs(0.99) / 1e3, "us"});
  metrics.push_back({"client.latency_p99_us", reported.latency.PercentileNs(0.99) / 1e3, "us"});
  return metrics;
}

// The line before the result: what explains a run's figures.
std::string Diagnostics(const Args& args, const QueryStream& stream, const Window& window,
                        const Tally& reported, const AnswerCheck& check) {
  const Interval& total = *window.total;
  std::string slices = "[";  // [steal, qps, cpu_us_per_req, latency_p50_us] per slice
  for (std::size_t i = 0; i < window.slices.size(); ++i) {
    const Interval& s = window.slices[i];
    const Tally& t = *window.tallies[i];
    slices += (i == 0 ? "[" : ",[") + JsonNumber(s.steal_share) + "," +
              JsonNumber(SliceQps(s, t)) + "," + JsonNumber(SliceCpuUs(s, t)) + "," +
              JsonNumber(SliceP50Us(s, t)) + "]";
  }
  slices += "]";
  std::string statuses;
  for (const auto& [status, n] : reported.statuses) {
    statuses += (statuses.empty() ? "" : ",") + JsonString(status) + ":" + std::to_string(n);
  }
  std::string mismatches;
  for (const std::string& m : check.mismatches) {
    mismatches += (mismatches.empty() ? "" : ",") + JsonString(m);
  }
  return "{\"diagnostics\":{\"workload\":" + JsonString(args.workload_name) +
         ",\"seed\":" + std::to_string(args.seed) +
         ",\"stream_hash\":" + JsonString(stream.StreamHash()) +
         ",\"host.steal_share\":" + JsonNumber(total.steal_share) +
         ",\"client.gen_late_p99_us\":" + JsonNumber(reported.lateness.PercentileNs(0.99) / 1e3) +
         ",\"client.latency_p99_us\":" + JsonNumber(reported.latency.PercentileNs(0.99) / 1e3) +
         ",\"latency_samples\":" + std::to_string(reported.latency.count()) +
         ",\"window_qps\":" + JsonNumber(Ratio(total.completed_ok, total.wall_s)) +
         ",\"window_cpu_us_per_req\":" + JsonNumber(total.CpuUsPerRequest()) +
         ",\"window_latency_p50_us\":" + JsonNumber(reported.latency.PercentileNs(0.5) / 1e3) +
         ",\"slices\":" + slices + ",\"answers_checked\":" + std::to_string(check.checked) +
         ",\"statuses\":{" + statuses + "},\"mismatches\":[" + mismatches + "]}}";
}

std::string Result(bool correct, const Tally& reported, const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\":") + (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(reported.sent) +
                    ",\"failed\":" + std::to_string(reported.sent - reported.ok) +
                    ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ",") + JsonString(metrics[i].name) +
           ":{\"value\":" + JsonNumber(metrics[i].value) +
           ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload sweep_cold|wire_hot|online_deadline --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);
  // The same backends perfiface_server registers; only online_deadline
  // turns sampling on.
  perfiface::conv::RegisterConvShadowBackend();
  perfiface::jpeg::RegisterJpegShadowBackend();
  perfiface::protoacc::RegisterProtoaccShadowBackend();
  const perfiface::InterfaceRegistry& registry = perfiface::InterfaceRegistry::Default();
  const bool wire = args.workload != Workload::kSweepCold;
  const bool online = args.workload == Workload::kOnlineDeadline;
  SpanLog spans;

  perfiface::serve::ServiceOptions options;
  options.num_workers = 2;
  perfiface::net::NetServerOptions net_options;
  if (online) {
    options.admission.shed_deadline = true;
    options.shadow_sample_every = 64;
    // One request per frame: the default 32-frame window is 4 ms of this
    // traffic, and a host stall longer than that would bounce requests at
    // the wire instead of reaching admission and the deadline queue.
    net_options.max_inflight_batches = 1024;
  }
  std::vector<double> setup_s;
  Stack stack = BuildStack(registry, options, wire, net_options, &setup_s, &spans);
  std::map<std::string, double> load_ms;
  if (args.trace) {
    for (const std::string& name : LoadableInterfaces(registry)) {
      load_ms[name] = TimeInterfaceLoad(registry, name, &spans);
    }
  }

  QueryStream stream(args.workload, args.seed);
  std::unique_ptr<Driver> driver;
  if (args.workload == Workload::kSweepCold) {
    driver = MakeInProcessDriver(stack.service.get(), &stream);
  } else if (args.workload == Workload::kWireHot) {
    PrewarmOverWire(stack.server->port(), stream);
    driver = MakeWireClosedDriver(stack.server->port(), &stream);
  } else {
    driver = MakeWireOpenDriver(stack.server->port(), &stream);
  }
  Tally prototype;
  prototype.deadline_ns = online ? kOnlineDeadlineUs * 1000 : 0;
  prototype.sample_seed = args.seed;

  Tally warm = prototype;
  driver->RunPhase(&warm, std::min(kMaxWarmupSeconds, args.seconds), false);
  const Window untraced = RunWindow(driver.get(), *stack.service, prototype, args.seconds, false);
  const double peak_rss_mb = PeakRssMb();
  Window traced;
  if (args.trace) {
    prototype.spans = &spans;
    prototype.span_budget = kRequestSpans;
    traced = RunWindow(driver.get(), *stack.service, prototype, args.seconds, true);
  }
  driver->Finish();
  driver.reset();  // closes the connection before the listener drains
  stack.Reset();

  const Window& window = args.trace ? traced : untraced;
  const Tally reported = window.Merged();
  const AnswerCheck check = CheckAnswers(registry, stream, reported, &spans);
  std::uint64_t broken = 0;  // ERROR / NOT_FOUND anywhere: the workload is broken
  std::vector<const Tally*> all_tallies = {&warm};
  for (const Window* w : {&untraced, &std::as_const(traced)}) {
    for (const auto& t : w->tallies) {
      all_tallies.push_back(t.get());
    }
  }
  for (const Tally* t : all_tallies) {
    for (const char* status : {"ERROR", "NOT_FOUND"}) {
      const auto it = t->statuses.find(status);
      broken += it == t->statuses.end() ? 0 : it->second;
    }
  }
  const bool correct = broken == 0 && check.checked > 0 && check.matched == check.checked &&
                       reported.answered == reported.sent;

  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(traced, reported, untraced, wire, stream, load_ms, &spans)
                 : EndToEndMetrics(window,
                                   Ratio(static_cast<double>(check.matched),
                                         static_cast<double>(check.checked)),
                                   Median(setup_s), peak_rss_mb);
  if (args.trace && !args.trace_out.empty() && !spans.Write(args.trace_out)) {
    std::fprintf(stderr, "servebench: could not write %s\n", args.trace_out.c_str());
  }
  std::printf("%s\n%s\n", Diagnostics(args, stream, window, reported, check).c_str(),
              Result(correct, reported, metrics).c_str());
  std::fflush(stdout);
  return broken == 0 ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
