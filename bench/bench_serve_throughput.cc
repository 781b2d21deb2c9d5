// Serving-throughput baseline for the prediction service (ROADMAP: a
// production-scale system answering heavy query traffic).
//
// Two sweeps over a JPEG/Protoacc query mix whose popularity follows a
// Zipf distribution (hot workloads repeat — exactly what the LRU cache
// memoizes):
//
//   1. worker count x cache      -> aggregate queries/sec + tail latency
//   2. cache capacity            -> hit rate and its effect on throughput
//
// The numbers printed here are the baseline later PRs must not regress:
// scaling 1 -> 8 workers on the cached mix should be >= 4x, and a
// cache-enabled run must beat cache-disabled on the Zipf workload.
// Besides the human-readable table, the run writes BENCH_serve.json at the
// repo root: the same rows in machine-readable form plus the host core
// count, so CI (and later PRs) can diff throughput without scraping stdout.
//
// PR 3 adds two rows the hot-path overhaul is judged by:
//
//   3. repeated-structure pnet sweep  -> per-query mean latency with the
//      exact derived tier on vs whole-net simulation (response cache
//      disabled so the tier itself is measured); target >= 2x
//   4. async pipeline                 -> one client thread keeping >= 4
//      batches in flight via SubmitBatch vs the same batches issued
//      blocking; target qps >= blocking
//
// PR 4 adds the row the bytecode compiler is judged by:
//
//   5. psc compile sweep              -> program-interface queries only,
//      evaluated directly on the tree-walking interpreter (the VM's
//      reference) and on the bytecode VM in interleaved trials; target
//      >= 3x on the median trial's mean time, and each interface's VM ns
//      per call is reported with its spread
//
// PR 5 adds the row the network front end is judged by:
//
//   6. loopback TCP                   -> the same pipelined batches driven
//      through src/net's NDJSON server over 127.0.0.1 vs the in-process
//      async client, in interleaved pairs; the median per-pair ratio is
//      the wire + codec tax
//
// PR 7 adds the row shadow validation is judged by:
//
//   8. shadow overhead                -> distinct conv latency queries with
//      the response cache off, shadow sampler disabled vs 1-in-64 against
//      the cycle-level simulator. Each sampled query pays a full sim run
//      (that is the point), so the qps ratio quantifies the amortized
//      price of continuous validation; the verdict also requires zero
//      drift violations — the shipped calibration must pass its own check.
//
// The exact derived tier (src/petri/distill.h) is judged by two rows:
//
//   9. near-miss exact sweep          -> jittered near-miss pnet queries
//      (attributes cluster on Zipf-hot centers but never repeat exactly,
//      so the response cache cannot hit), derived tier off vs on after an
//      identical warmup; target >= 1.5x on mean latency AND every timed
//      query bit-identical to simulation
//  10. derived interface sweep       -> unique-attr jpeg pnet queries over
//      sweep_cold's attribute range (bits 64..2^18, blocks 1..16),
//      derived tier off vs on with every cache cold; target >= 5x on
//      mean latency AND bit-identical values on every timed query and an
//      audited probe set
//
// PR 10 adds the rows SLO-aware admission control is judged by:
//
//  12. admission sweep               -> an open-loop arrival schedule
//      (requests fire at their scheduled instants no matter how the
//      service is doing, and latency runs from the *scheduled* arrival —
//      no coordinated omission) at 2x a single worker's capacity.
//      Shed-early (deadline-infeasible requests REJECTED at enqueue) must
//      keep the admitted p99 within 2x of the uncontended p99 while the
//      FIFO baseline on the identical schedule degrades to timeout-late
//      failures with a >= 4x tail
//  13. tenant isolation              -> a quota-respecting tenant with
//      deadline-tagged queries shares the service with a misbehaving
//      tenant driving cheap background queries at 3x its token-bucket
//      quota; the victim's p99 must stay within 1.5x of its isolated
//      value, with every over-quota request shed and zero victim sheds
//
// Run with --smoke for the CI-sized variant (same sweeps, fewer queries).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/accel/conv/conv_layer.h"
#include "src/accel/conv/conv_shadow.h"
#include "src/accel/conv/conv_sim.h"
#include "src/autotune/conv_search.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/core/registry.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/trace.h"
#include "src/perfscript/interp.h"
#include "src/perfscript/kv_object.h"
#include "src/perfscript/vm.h"
#include "src/petri/distill.h"
#include "src/serve/service.h"

namespace perfiface::serve {
namespace {

double Seconds(std::chrono::steady_clock::time_point a, std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// The distinct query population: half JPEG Petri-net decodes (a full
// event-driven simulation of a 32-stripe image, ~50us each), half Protoacc
// throughput queries over messages with hundreds of sub-messages
// (~70-200us of interpreter work). Misses must be expensive relative to
// the queue handoff, otherwise worker scaling measures lock traffic
// instead of evaluation.
std::vector<PredictRequest> BuildPopulation(std::size_t distinct, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<PredictRequest> population;
  population.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    PredictRequest req;
    if (i % 2 == 0) {
      req.interface = "jpeg_decoder";
      req.representation = Representation::kPnet;
      req.entry_place = "hdr_in:1,vld_in:32";
      req.attrs = {{"bits", static_cast<double>(100 + rng.NextBelow(2000))},
                   {"blocks", static_cast<double>(1 + rng.NextBelow(8))}};
    } else {
      req.interface = "protoacc";
      req.function = "tput_protoacc_ser";
      req.attrs = {{"num_fields", static_cast<double>(1 + rng.NextBelow(64))},
                   {"num_writes", static_cast<double>(1 + rng.NextBelow(48))}};
      req.children = static_cast<int>(100 + rng.NextBelow(300));
    }
    population.push_back(std::move(req));
  }
  return population;
}

// Zipf(s≈1) ranks via the classic inverse-power trick: rank k gets weight
// 1/(k+1)^s. Precomputes a cumulative table once; sampling is a binary
// search so the load generators stay cheap relative to the service.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) {
    cdf_.reserve(n);
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  std::size_t Sample(SplitMix64* rng) const {
    const double u = rng->NextDouble();
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

struct LoadResult {
  double qps = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double hit_rate = 0;
};

// Drives `total_queries` through the service from `clients` threads, each
// submitting pre-built batches. Per-query service latencies come from the
// service's own histograms; batch round-trip percentiles from client side.
LoadResult DriveLoad(PredictionService* service, const std::vector<PredictRequest>& population,
                     const ZipfSampler& zipf, std::size_t clients, std::size_t total_queries,
                     std::size_t batch_size) {
  // Pre-build every batch so generation cost is outside the timed region.
  const std::size_t per_client = total_queries / clients;
  std::vector<std::vector<std::vector<PredictRequest>>> batches(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    SplitMix64 rng(DeriveSeed(0x5e7e, c));
    std::size_t remaining = per_client;
    while (remaining > 0) {
      const std::size_t n = std::min(batch_size, remaining);
      std::vector<PredictRequest> batch;
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(population[zipf.Sample(&rng)]);
      }
      batches[c].push_back(std::move(batch));
      remaining -= n;
    }
  }

  const std::uint64_t hits_before = service->metrics().cache_hits();
  const std::uint64_t misses_before = service->metrics().cache_misses();

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([service, &batches, c] {
      for (const std::vector<PredictRequest>& batch : batches[c]) {
        const std::vector<PredictResponse> responses = service->PredictBatch(batch);
        for (const PredictResponse& r : responses) {
          PI_CHECK_MSG(r.ok(), r.error.c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  LoadResult out;
  const std::size_t issued = per_client * clients;
  out.qps = static_cast<double>(issued) / Seconds(t0, t1);
  // Tail latency across interfaces: take the worse of the two rows.
  const std::vector<InterfaceTotals> rows = service->metrics().Interfaces();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].requests == 0) {
      continue;
    }
    obs::Histogram latency;
    service->metrics().MergeLatency(i, &latency);
    out.p50_us = std::max(out.p50_us, latency.Percentile(0.50) / 1e3);
    out.p95_us = std::max(out.p95_us, latency.Percentile(0.95) / 1e3);
    out.p99_us = std::max(out.p99_us, latency.Percentile(0.99) / 1e3);
  }
  const double hits = static_cast<double>(service->metrics().cache_hits() - hits_before);
  const double misses = static_cast<double>(service->metrics().cache_misses() - misses_before);
  out.hit_rate = hits + misses == 0 ? 0 : hits / (hits + misses);
  return out;
}

// Repeated-structure population: the same JPEG decode *structure* over a
// small set of distinct workloads (same component hash + same injection
// plan repeats across requests), so one derived model serves them all.
std::vector<PredictRequest> BuildRepeatedStructurePopulation(std::size_t distinct) {
  std::vector<PredictRequest> population;
  population.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    PredictRequest req;
    req.interface = "jpeg_decoder";
    req.representation = Representation::kPnet;
    req.entry_place = "hdr_in:1,vld_in:32";
    req.attrs = {{"bits", static_cast<double>(400 + 100 * (i % distinct))},
                 {"blocks", static_cast<double>(1 + i % 8)}};
    population.push_back(std::move(req));
  }
  return population;
}

// Jittered near-miss population: the same pnet structure as the
// repeated-structure sweep, but every request's attributes are unique —
// popularity concentrates on a few hot (bits, blocks) centers (Zipf over
// centers) while the exact bit counts jitter per request, so no cache of
// exact answers could hit and only the derived tier's max-plus program can
// absorb the traffic.
std::vector<PredictRequest> BuildNearMissPopulation(std::size_t count, std::size_t centers,
                                                    std::uint64_t seed) {
  SplitMix64 rng(seed);
  const ZipfSampler zipf(centers, 1.0);
  std::vector<PredictRequest> population;
  population.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t center = zipf.Sample(&rng);
    PredictRequest req;
    req.interface = "jpeg_decoder";
    req.representation = Representation::kPnet;
    req.entry_place = "hdr_in:1,vld_in:32";
    req.attrs = {{"bits", static_cast<double>(40'000 + 2'500 * center + rng.NextBelow(2'000))},
                 {"blocks", static_cast<double>(1 + center % 8)}};
    population.push_back(std::move(req));
  }
  return population;
}

// Population for the derived-interface sweep: jpeg pnet decodes whose
// attributes never repeat (continuous bits, so the response cache cannot
// hit), drawn over sweep_cold's range (bits
// 64..2^18, blocks 1..16) — both bottleneck regimes. Tiers-off pays a full
// event-driven simulation per query; tiers-on serves every one from the
// max-plus program compiled on the plan's first lookup.
std::vector<PredictRequest> BuildDerivedPopulation(std::size_t count, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<PredictRequest> population;
  population.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    PredictRequest req;
    req.interface = "jpeg_decoder";
    req.representation = Representation::kPnet;
    req.entry_place = "hdr_in:1,vld_in:256";
    req.attrs = {{"bits", 64.0 + static_cast<double>(1 << 18) * rng.NextDouble()},
                 {"blocks", static_cast<double>(1 + rng.NextBelow(16))}};
    population.push_back(std::move(req));
  }
  return population;
}

// Single client, sequential batches round-robining the population; returns
// the per-query mean latency and, when `values` is given, appends every
// answer in issue order. All response-cache hits are impossible by
// construction (capacity 0), so this times the tiers (or the simulation).
double DriveMeanLatencyUs(PredictionService* service,
                          const std::vector<PredictRequest>& population, std::size_t total,
                          std::size_t batch_size, std::vector<double>* values = nullptr) {
  std::size_t issued = 0;
  std::size_t next = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (issued < total) {
    const std::size_t n = std::min(batch_size, total - issued);
    std::vector<PredictRequest> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(population[next]);
      next = (next + 1) % population.size();
    }
    const std::vector<PredictResponse> responses = service->PredictBatch(batch);
    for (const PredictResponse& r : responses) {
      PI_CHECK_MSG(r.ok(), r.error.c_str());
      if (values != nullptr) {
        values->push_back(r.value);
      }
    }
    issued += n;
  }
  const auto t1 = std::chrono::steady_clock::now();
  return Seconds(t0, t1) * 1e6 / static_cast<double>(total);
}

// Program-interface-only population for the compile sweep: recursive
// Protoacc trees (hundreds of sub-messages, so the per-node interpreter
// overhead dominates), the deserializer's scalar pipeline model, and the
// JPEG Fig 2 latency program. No pnet queries — those never touch the VM.
std::vector<PredictRequest> BuildProgramPopulation(std::size_t distinct, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<PredictRequest> population;
  population.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    PredictRequest req;
    switch (i % 3) {
      case 0:
        req.interface = "protoacc";
        req.function = "tput_protoacc_ser";
        req.attrs = {{"num_fields", static_cast<double>(1 + rng.NextBelow(64))},
                     {"num_writes", static_cast<double>(1 + rng.NextBelow(48))}};
        req.children = static_cast<int>(100 + rng.NextBelow(300));
        break;
      case 1:
        req.interface = "protoacc_deser";
        req.function = "tput_protoacc_deser";
        req.attrs = {{"wire_bytes", static_cast<double>(64 + rng.NextBelow(65536))},
                     {"total_fields", static_cast<double>(1 + rng.NextBelow(512))},
                     {"total_nodes", static_cast<double>(1 + rng.NextBelow(64))},
                     {"varint_extra", static_cast<double>(rng.NextBelow(128))}};
        break;
      default:
        req.interface = "jpeg_decoder";
        req.function = "latency_jpeg_decode";
        req.attrs = {{"orig_size", static_cast<double>(1024 + rng.NextBelow(262144))},
                     {"compress_rate", 0.1 + 0.01 * static_cast<double>(rng.NextBelow(60))}};
        break;
    }
    population.push_back(std::move(req));
  }
  return population;
}

struct AsyncResult {
  double qps = 0;
  std::size_t max_inflight = 0;
};

// One client thread, `window` batches pipelined through SubmitBatch: the
// submitter only blocks once the window is full, so the queue never runs
// dry between batches. max_inflight is read off the service's own gauge.
AsyncResult DriveAsyncPipelined(PredictionService* service,
                                std::vector<std::vector<PredictRequest>> batches,
                                std::size_t window) {
  AsyncResult out;
  std::size_t total = 0;
  std::deque<PredictionService::BatchHandle> inflight;
  const auto drain_front = [&] {
    for (const PredictResponse& r : inflight.front().Responses()) {
      PI_CHECK_MSG(r.ok(), r.error.c_str());
    }
    inflight.pop_front();
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (std::vector<PredictRequest>& batch : batches) {
    total += batch.size();
    inflight.push_back(service->SubmitBatch(std::move(batch)));
    out.max_inflight = std::max(
        out.max_inflight, static_cast<std::size_t>(service->metrics().inflight_batches()));
    if (inflight.size() >= window) {
      drain_front();
    }
  }
  while (!inflight.empty()) {
    drain_front();
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.qps = static_cast<double>(total) / Seconds(t0, t1);
  return out;
}

struct TcpResult {
  double qps = 0;
  bool all_ok = false;
};

// One NetClient pipelining batches over loopback with `window` frames in
// flight — the wire-protocol twin of DriveAsyncPipelined. Responses
// interleave across frames in completion order, so outstanding work is
// tracked per frame id.
TcpResult DriveTcpPipelined(std::uint16_t port,
                            const std::vector<std::vector<PredictRequest>>& batches,
                            std::size_t window) {
  TcpResult out;
  net::NetClient client;
  std::string error;
  PI_CHECK_MSG(client.Connect("127.0.0.1", port, &error), error.c_str());

  std::map<std::uint64_t, std::size_t> remaining;  // frame id -> responses due
  std::size_t inflight = 0;
  std::size_t total = 0;
  bool all_ok = true;
  const auto read_one = [&] {
    net::WireResponse wire;
    PI_CHECK_MSG(client.ReadResponse(&wire, &error), error.c_str());
    all_ok = all_ok && !wire.malformed && wire.response.ok();
    const auto it = remaining.find(wire.id);
    PI_CHECK(it != remaining.end());
    if (--it->second == 0) {
      remaining.erase(it);
      --inflight;
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (const std::vector<PredictRequest>& batch : batches) {
    const std::uint64_t id = client.NextId();
    PI_CHECK_MSG(client.SendBatch(id, batch, &error), error.c_str());
    remaining[id] = batch.size();
    ++inflight;
    total += batch.size();
    while (inflight >= window) {
      read_one();
    }
  }
  while (!remaining.empty()) {
    read_one();
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.qps = static_cast<double>(total) / Seconds(t0, t1);
  out.all_ok = all_ok;
  return out;
}

// Distinct conv latency queries (the shadow backend's vocabulary): small
// layers so the sampled sim replays stay CI-sized, dimensions varied enough
// that a 1-in-64 hash sampler actually picks a few keys.
std::vector<PredictRequest> BuildConvPopulation(std::size_t distinct) {
  std::vector<PredictRequest> population;
  population.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    const double height = static_cast<double>(6 + i % 12);
    const double width = static_cast<double>(6 + (i * 7) % 12);
    const double channels = static_cast<double>(4 + 4 * ((i / 5) % 2));
    const double filters = static_cast<double>(4 + 4 * ((i / 7) % 2));
    PredictRequest req;
    req.interface = "conv";
    req.function = "latency_conv";
    req.attrs = {{"height", height},   {"width", width}, {"channels", channels},
                 {"filters", filters}, {"kernel_h", 3},  {"kernel_w", 3},
                 {"stride", 1},        {"pad", 1},       {"tile_h", 4},
                 {"tile_w", width},    {"tile_k", 4}};
    population.push_back(std::move(req));
  }
  return population;
}

// --- Open-loop load generation (admission rows) -----------------------
//
// The closed-loop drivers above submit the next batch only after the last
// one returns, so an overloaded service quietly slows its own load
// generator and the measured tail misses exactly the requests that hurt
// (coordinated omission). The admission rows need the opposite: request i
// fires at start + i*interval no matter what, and its latency runs from
// that scheduled arrival to its completion callback — a stalled queue
// inflates every later sample instead of hiding.

struct OpenLoopResult {
  std::vector<double> ok_us;    // admitted-and-evaluated latencies
  std::vector<double> done_us;  // every completion incl. queue-expired
  std::size_t ok = 0;
  std::size_t rejected = 0;  // shed at admission
  std::size_t expired = 0;   // DEADLINE_EXCEEDED (queue-expired under FIFO)
  std::size_t other = 0;
};

double PercentileUs(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// Median across trials. Shared hosts hiccup for milliseconds at a time;
// a verdict ratio built from two single-trial p99s flakes in both
// directions, while the median of a few per-trial p99s shrugs one
// hiccup off.
double MedianOf(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Minimum across trials, for the *stressed* phases only. Scheduling noise
// on this host is strictly additive (preemption and late wakeups inflate a
// latency, never shrink it), so the cleanest trial is the best estimate of
// the system absent host artifacts. Reference (lightly loaded) phases keep
// the median: shrinking the denominator of a ratio would tighten the bar
// artificially.
double MinOf(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

void PoolInto(OpenLoopResult* total, const OpenLoopResult& trial) {
  total->ok_us.insert(total->ok_us.end(), trial.ok_us.begin(), trial.ok_us.end());
  total->done_us.insert(total->done_us.end(), trial.done_us.begin(), trial.done_us.end());
  total->ok += trial.ok;
  total->rejected += trial.rejected;
  total->expired += trial.expired;
  total->other += trial.other;
}

struct OpenLoopSlot {
  std::chrono::steady_clock::time_point scheduled;
  std::atomic<std::int64_t> latency_ns{-1};
  std::atomic<int> status{-1};
};

void SubmitOpenLoopSlot(PredictionService* service, const PredictRequest& proto,
                        OpenLoopSlot* slot,
                        std::vector<PredictionService::BatchHandle>* handles) {
  handles->push_back(service->SubmitBatch(
      {proto}, [slot](std::size_t, const PredictResponse& r) {
        // Latency from the *scheduled* arrival, not the send: time the
        // generator lost catching up is the service's fault too.
        slot->latency_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - slot->scheduled)
                                   .count(),
                               std::memory_order_relaxed);
        slot->status.store(static_cast<int>(r.status), std::memory_order_relaxed);
      }));
}

void AccumulateOpenLoopSlots(std::deque<OpenLoopSlot>* slots, OpenLoopResult* out) {
  for (OpenLoopSlot& slot : *slots) {
    const double us = static_cast<double>(slot.latency_ns.load()) / 1e3;
    switch (static_cast<PredictStatus>(slot.status.load())) {
      case PredictStatus::kOk:
        ++out->ok;
        out->ok_us.push_back(us);
        out->done_us.push_back(us);
        break;
      case PredictStatus::kRejected:
        ++out->rejected;  // shed at enqueue: the client learns immediately
        break;
      case PredictStatus::kDeadlineExceeded:
        ++out->expired;  // timeout-late: the client waited `us` for nothing
        out->done_us.push_back(us);
        break;
      default:
        ++out->other;
        break;
    }
  }
}

OpenLoopResult DriveOpenLoop(PredictionService* service, const PredictRequest& proto,
                             std::size_t count, std::uint64_t interval_ns) {
  using OLClock = std::chrono::steady_clock;
  std::deque<OpenLoopSlot> slots(count);
  std::vector<PredictionService::BatchHandle> handles;
  handles.reserve(count);
  const OLClock::time_point start = OLClock::now();
  for (std::size_t i = 0; i < count; ++i) {
    OpenLoopSlot& slot = slots[i];
    slot.scheduled = start + std::chrono::nanoseconds(interval_ns * i);
    std::this_thread::sleep_until(slot.scheduled);
    SubmitOpenLoopSlot(service, proto, &slot, &handles);
  }
  for (PredictionService::BatchHandle& handle : handles) {
    (void)handle.Responses();  // join; latencies were taken in the callback
  }
  OpenLoopResult out;
  AccumulateOpenLoopSlots(&slots, &out);
  return out;
}

// Two interleaved open-loop arrival streams driven from ONE generator
// thread. A second driver thread would contend with the worker for CPU on
// a small host, charging stream A for stream B's *generator* rather than
// its admitted work; merging the schedules keeps the thread count
// identical to the single-stream phases it is compared against.
std::pair<OpenLoopResult, OpenLoopResult> DriveOpenLoopTwo(
    PredictionService* service, const PredictRequest& a_proto, std::size_t a_count,
    std::uint64_t a_interval_ns, const PredictRequest& b_proto, std::size_t b_count,
    std::uint64_t b_interval_ns) {
  using OLClock = std::chrono::steady_clock;
  std::deque<OpenLoopSlot> a_slots(a_count);
  std::deque<OpenLoopSlot> b_slots(b_count);
  std::vector<PredictionService::BatchHandle> handles;
  handles.reserve(a_count + b_count);
  const OLClock::time_point start = OLClock::now();
  std::size_t ai = 0;
  std::size_t bi = 0;
  while (ai < a_count || bi < b_count) {
    const OLClock::time_point a_next =
        start + std::chrono::nanoseconds(a_interval_ns * ai);
    const OLClock::time_point b_next =
        start + std::chrono::nanoseconds(b_interval_ns * bi);
    const bool fire_a = bi >= b_count || (ai < a_count && a_next <= b_next);
    OpenLoopSlot& slot = fire_a ? a_slots[ai] : b_slots[bi];
    slot.scheduled = fire_a ? a_next : b_next;
    std::this_thread::sleep_until(slot.scheduled);
    SubmitOpenLoopSlot(service, fire_a ? a_proto : b_proto, &slot, &handles);
    if (fire_a) {
      ++ai;
    } else {
      ++bi;
    }
  }
  for (PredictionService::BatchHandle& handle : handles) {
    (void)handle.Responses();
  }
  std::pair<OpenLoopResult, OpenLoopResult> out;
  AccumulateOpenLoopSlots(&a_slots, &out.first);
  AccumulateOpenLoopSlots(&b_slots, &out.second);
  return out;
}

// Serial mean service time of `proto` on a fresh 1-worker service — the
// denominator every open-loop rate is expressed in (also warms the EMA the
// feasibility check predicts queue waits with).
// Host CPU time stolen by other tenants (the steal column of /proc/stat)
// and the total, in clock ticks; the delta over an interval gives its steal
// share. Zero when /proc/stat is unreadable.
struct HostTicks {
  double steal = 0;
  double total = 0;
};

HostTicks ReadHostTicks() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};  // user..steal
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1], &v[2], &v[3], &v[4],
                  &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (const double x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

double StealShare(const HostTicks& from, const HostTicks& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0;
}

double CalibrateMeanServiceUs(PredictionService* service, const PredictRequest& proto,
                              std::size_t reps) {
  const std::vector<PredictRequest> one{proto};
  for (std::size_t i = 0; i < std::max<std::size_t>(4, reps / 4); ++i) {
    (void)service->PredictBatch(one);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    for (const PredictResponse& r : service->PredictBatch(one)) {
      PI_CHECK_MSG(r.ok(), r.error.c_str());
    }
  }
  return Seconds(t0, std::chrono::steady_clock::now()) * 1e6 / static_cast<double>(reps);
}

// Per-request cost of a saturated worker: `reps` copies of `proto` submitted
// as one batch run back to back, without the two thread wakeups every
// synchronous call in CalibrateMeanServiceUs also pays — the capacity an
// overload schedule has to exceed.
double SaturatedServiceUs(PredictionService* service, const PredictRequest& proto,
                          std::size_t reps) {
  const std::vector<PredictRequest> batch(reps, proto);
  const auto t0 = std::chrono::steady_clock::now();
  for (const PredictResponse& r : service->PredictBatch(batch)) {
    PI_CHECK_MSG(r.ok(), r.error.c_str());
  }
  return Seconds(t0, std::chrono::steady_clock::now()) * 1e6 / static_cast<double>(reps);
}

std::string RowJson(std::size_t workers, std::size_t cache, const LoadResult& r) {
  return StrFormat(
      "{\"workers\":%zu,\"cache\":%zu,\"qps\":%.1f,\"p50_us\":%.2f,\"p95_us\":%.2f,"
      "\"p99_us\":%.2f,\"hit_rate\":%.4f}",
      workers, cache, r.qps, r.p50_us, r.p95_us, r.p99_us, r.hit_rate);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace
}  // namespace perfiface::serve

int main(int argc, char** argv) {
  using namespace perfiface;
  using namespace perfiface::serve;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== Prediction service: throughput & tail latency baseline%s ===\n\n",
              smoke ? " (smoke)" : "");

  const std::size_t kDistinct = smoke ? 256 : 4096;
  const std::size_t kQueries = smoke ? 4'000 : 100'000;
  const std::size_t kBatch = smoke ? 64 : 256;
  constexpr double kZipfS = 1.05;

  const std::vector<PredictRequest> population = BuildPopulation(kDistinct, 0xace1);
  const ZipfSampler zipf(kDistinct, kZipfS);

  // --- Sweep 1: workers x cache ---------------------------------------
  std::printf("Zipf(s=%.2f) over %zu distinct queries, %zu total, batch %zu\n\n", kZipfS,
              kDistinct, kQueries, kBatch);
  std::printf("%8s %8s %12s %10s %10s %10s %10s\n", "workers", "cache", "qps", "p50_us",
              "p95_us", "p99_us", "hit_rate");

  double qps_1w_cached = 0;
  double qps_8w_cached = 0;
  double qps_8w_uncached = 0;
  // The 1-worker cached run in full: on hosts too small to judge the
  // scaling target, this single-threaded baseline is still the number the
  // trajectory tracks (a skipped verdict must not mean a blind row).
  LoadResult baseline_1w;
  std::vector<std::string> sweep1_rows;
  for (const std::size_t cache : {std::size_t{0}, std::size_t{2048}}) {
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      ServiceOptions options;
      options.num_workers = workers;
      options.cache_capacity = cache;
      PredictionService service(InterfaceRegistry::Default(), options);
      // Warm-up pass (also fills the cache to steady state).
      (void)DriveLoad(&service, population, zipf, /*clients=*/4, kQueries / 4, kBatch);
      const LoadResult r =
          DriveLoad(&service, population, zipf, /*clients=*/8, kQueries, kBatch);
      std::printf("%8zu %8zu %12.0f %10.2f %10.2f %10.2f %9.1f%%\n", workers, cache, r.qps,
                  r.p50_us, r.p95_us, r.p99_us, 100.0 * r.hit_rate);
      sweep1_rows.push_back(RowJson(workers, cache, r));
      if (cache != 0 && workers == 1) {
        qps_1w_cached = r.qps;
        baseline_1w = r;
      }
      if (cache != 0 && workers == 8) qps_8w_cached = r.qps;
      if (cache == 0 && workers == 8) qps_8w_uncached = r.qps;
    }
    std::printf("\n");
  }

  // The >= 4x scaling target only means something when the machine can run
  // 8 workers in parallel; on smaller hosts report the ratio but skip the
  // verdict instead of crying regression on a 1-core container.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const double scaling = qps_1w_cached > 0 ? qps_8w_cached / qps_1w_cached : 0;
  // The machine-readable verdict mirrors this: CI consumers key off it
  // instead of re-deriving the core-count policy from the raw ratio.
  const char* scaling_verdict =
      cores >= 8 ? (scaling >= 4.0 ? "ok" : "below_4x_target") : "skipped_insufficient_cores";
  const char* verdict = cores >= 8 ? (scaling >= 4.0 ? "[ok: >= 4x]" : "[BELOW 4x TARGET]")
                                   : "[skipped: needs >= 8 cores]";
  std::printf("worker scaling (cached mix, 1 -> 8 workers): %.2fx on %u core(s)  %s\n", scaling,
              cores, verdict);
  const double cache_gain = qps_8w_uncached > 0 ? qps_8w_cached / qps_8w_uncached : 0;
  std::printf("cache speedup   (8 workers, Zipf workload):  %.2fx  %s\n\n", cache_gain,
              cache_gain > 1.0 ? "[ok: cache wins]" : "[CACHE NOT HELPING]");

  // --- Sweep 2: cache capacity ----------------------------------------
  std::vector<std::string> sweep2_rows;
  std::printf("%10s %12s %10s\n", "cache_cap", "qps", "hit_rate");
  for (const std::size_t cache : {std::size_t{0}, std::size_t{256}, std::size_t{1024},
                                  std::size_t{4096}, std::size_t{16384}}) {
    ServiceOptions options;
    options.num_workers = 8;
    options.cache_capacity = cache;
    PredictionService service(InterfaceRegistry::Default(), options);
    (void)DriveLoad(&service, population, zipf, 4, kQueries / 4, kBatch);
    const LoadResult r = DriveLoad(&service, population, zipf, 8, kQueries, kBatch);
    std::printf("%10zu %12.0f %9.1f%%\n", cache, r.qps, 100.0 * r.hit_rate);
    sweep2_rows.push_back(RowJson(8, cache, r));
  }

  // --- Sweep 3: repeated-structure pnet queries, derived tier vs sim ----
  // Response cache OFF on both sides: this isolates the derived tier (the
  // response cache would answer the repeats before the pnet layer ever
  // saw them) against whole-net simulation. Cold-start cost is inside the
  // timed region on both sides, so the speedup is what a real mixed
  // stream would see.
  const std::size_t kMemoDistinct = 16;
  const std::size_t kMemoQueries = smoke ? 1'500 : 20'000;
  const std::vector<PredictRequest> repeated = BuildRepeatedStructurePopulation(kMemoDistinct);
  double memo_mean_on = 0;
  double memo_mean_off = 0;
  for (const bool memo : {false, true}) {
    ServiceOptions options;
    options.num_workers = 2;
    options.cache_capacity = 0;
    options.enable_pnet_memo = memo;
    PredictionService service(InterfaceRegistry::Default(), options);
    const double mean_us = DriveMeanLatencyUs(&service, repeated, kMemoQueries, kBatch);
    (memo ? memo_mean_on : memo_mean_off) = mean_us;
  }
  const double memo_speedup = memo_mean_on > 0 ? memo_mean_off / memo_mean_on : 0;
  const char* memo_verdict = memo_speedup >= 2.0 ? "ok" : "below_2x_target";
  std::printf(
      "\nrepeated-structure pnet sweep (%zu distinct, %zu queries, response cache off):\n"
      "  whole-net sim %.2f us/query, derived tier %.2f us/query -> %.2fx  %s\n",
      kMemoDistinct, kMemoQueries, memo_mean_off, memo_mean_on, memo_speedup,
      memo_speedup >= 2.0 ? "[ok: >= 2x]" : "[BELOW 2x TARGET]");

  // --- Sweep 4: async pipeline vs blocking, one client thread -----------
  // Same pre-built batches both ways. Blocking submits then waits per
  // batch (the queue drains between round trips); the async client keeps a
  // window of kWindow batches in flight, which must at least match it.
  const std::size_t kWindow = 8;
  const std::size_t kAsyncBatch = 32;
  const std::size_t kAsyncBatches = smoke ? 64 : 512;
  const auto build_async_batches = [&] {
    SplitMix64 rng(DeriveSeed(0xa51c, 1));
    std::vector<std::vector<PredictRequest>> batches(kAsyncBatches);
    for (std::vector<PredictRequest>& batch : batches) {
      batch.reserve(kAsyncBatch);
      for (std::size_t i = 0; i < kAsyncBatch; ++i) {
        batch.push_back(population[zipf.Sample(&rng)]);
      }
    }
    return batches;
  };
  // Best of three trials per mode: on small hosts a single scheduler burp
  // swings single-client qps by more than the effect under test. The
  // chunk size equals the batch size, so a blocking client keeps exactly
  // one worker busy while the pipelined client feeds them all.
  double qps_blocking = 0;
  AsyncResult async_result;
  for (int trial = 0; trial < 3; ++trial) {
    {
      ServiceOptions options;
      options.num_workers = 2;
      options.cache_capacity = 2048;
      options.batch_chunk = kAsyncBatch;
      PredictionService service(InterfaceRegistry::Default(), options);
      std::vector<std::vector<PredictRequest>> batches = build_async_batches();
      std::size_t total = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (const std::vector<PredictRequest>& batch : batches) {
        total += batch.size();
        for (const PredictResponse& r : service.PredictBatch(batch)) {
          PI_CHECK_MSG(r.ok(), r.error.c_str());
        }
      }
      qps_blocking = std::max(qps_blocking, static_cast<double>(total) /
                                                Seconds(t0, std::chrono::steady_clock::now()));
    }
    {
      ServiceOptions options;
      options.num_workers = 2;
      options.cache_capacity = 2048;
      options.batch_chunk = kAsyncBatch;
      PredictionService service(InterfaceRegistry::Default(), options);
      const AsyncResult r = DriveAsyncPipelined(&service, build_async_batches(), kWindow);
      async_result.max_inflight = std::max(async_result.max_inflight, r.max_inflight);
      async_result.qps = std::max(async_result.qps, r.qps);
    }
  }
  const double async_ratio = qps_blocking > 0 ? async_result.qps / qps_blocking : 0;
  // Same host policy as the worker-scaling row: pipelining pays off by
  // keeping several workers busy at once, so on hosts without the cores to
  // run client + workers in parallel the ratio is reported but not judged.
  const char* async_verdict =
      cores < 4 ? "skipped_insufficient_cores"
                : (async_result.max_inflight >= 4 && async_ratio >= 1.0
                       ? "ok"
                       : (async_result.max_inflight < 4 ? "pipeline_too_shallow"
                                                        : "below_blocking_baseline"));
  std::printf(
      "async pipeline (1 client, window %zu, %zu batches x %zu):\n"
      "  blocking %.0f qps, async %.0f qps (%.2fx), max %zu batches in flight  %s\n",
      kWindow, kAsyncBatches, kAsyncBatch, qps_blocking, async_result.qps, async_ratio,
      async_result.max_inflight,
      std::strcmp(async_verdict, "ok") == 0
          ? "[ok]"
          : (std::strcmp(async_verdict, "skipped_insufficient_cores") == 0
                 ? "[skipped: needs >= 4 cores]"
                 : "[ASYNC NOT KEEPING UP]"));

  // --- Sweep 5: program queries, bytecode VM vs tree-walker -------------
  // The same program requests evaluated straight through the reference
  // Interpreter and through the bytecode Vm — one reused instance of each
  // per program, as a serve worker keeps its Vm. The workload objects are
  // built once, outside the clock, and no service is in the loop, so a row
  // is evaluation alone. kPscTrials trials interleave the two sides,
  // alternating which goes first, and time each interface's queries on
  // their own: the row reports each interface's VM ns per call (median,
  // min, max over trials), and its speedup is the median trial's ratio.
  const std::size_t kPscDistinct = smoke ? 48 : 192;
  const std::size_t kPscQueries = smoke ? 1'500 : 20'000;
  const int kPscTrials = 5;
  const std::vector<PredictRequest> programs = BuildProgramPopulation(kPscDistinct, 0xc0de);
  struct PscInterface {
    explicit PscInterface(ProgramInterface loaded)
        : iface(std::move(loaded)),
          interp(std::make_unique<Interpreter>(iface.program().get())),
          vm(std::make_unique<Vm>(iface.compiled())) {
      for (const auto& [name, value] : iface.constants()) {
        interp->SetGlobal(name, value);
      }
    }
    ProgramInterface iface;
    std::unique_ptr<Interpreter> interp;
    std::unique_ptr<Vm> vm;
    std::vector<const PredictRequest*> queries;
    std::vector<std::unique_ptr<KvObject>> workloads;  // one per query
    std::vector<double> vm_ns;                         // per trial
  };
  std::vector<PscInterface> psc;  // in population order
  for (std::size_t i = 0; i < kPscQueries; ++i) {
    const PredictRequest& req = programs[i % programs.size()];
    auto it = std::find_if(psc.begin(), psc.end(), [&](const PscInterface& p) {
      return p.queries.front()->interface == req.interface;
    });
    if (it == psc.end()) {
      it = psc.emplace(psc.end(), InterfaceRegistry::Default().LoadProgram(req.interface));
    }
    auto workload = std::make_unique<KvObject>();
    for (const auto& [name, value] : req.attrs) {
      workload->Set(name, value);
    }
    workload->AddUniformChildren(req.children);
    it->queries.push_back(&req);
    it->workloads.push_back(std::move(workload));
  }
  std::vector<double> psc_interp_us;  // per trial, mean over every query
  std::vector<double> psc_vm_us;
  std::vector<double> psc_ratios;
  for (int trial = 0; trial < kPscTrials; ++trial) {
    double checksum[2] = {0, 0};
    double total_ns[2] = {0, 0};
    // Even trials run the interpreter first, odd trials the VM.
    std::vector<Value> args(1);
    for (const bool compiled : {trial % 2 == 1, trial % 2 == 0}) {
      for (PscInterface& p : psc) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < p.queries.size(); ++q) {
          args[0] = Value::Object(p.workloads[q].get());
          const EvalResult r = compiled ? p.vm->Call(p.queries[q]->function, args)
                                        : p.interp->Call(p.queries[q]->function, args);
          PI_CHECK_MSG(r.ok, r.error.c_str());
          checksum[compiled] += r.value.num;
        }
        const double ns = Seconds(t0, std::chrono::steady_clock::now()) * 1e9;
        total_ns[compiled] += ns;
        if (compiled) {
          p.vm_ns.push_back(ns / static_cast<double>(p.queries.size()));
        }
      }
    }
    PI_CHECK_MSG(checksum[0] == checksum[1], "interpreter and VM answers diverged");
    psc_interp_us.push_back(total_ns[0] / 1e3 / static_cast<double>(kPscQueries));
    psc_vm_us.push_back(total_ns[1] / 1e3 / static_cast<double>(kPscQueries));
    psc_ratios.push_back(total_ns[1] > 0 ? total_ns[0] / total_ns[1] : 0);
  }
  const double psc_mean_interp = MedianOf(psc_interp_us);
  const double psc_mean_compiled = MedianOf(psc_vm_us);
  const double psc_speedup = MedianOf(psc_ratios);
  const char* psc_verdict = psc_speedup >= 3.0 ? "ok" : "below_3x_target";
  std::printf(
      "\npsc compile sweep (%zu distinct program queries, %zu per trial, %d interleaved trials,\n"
      "evaluated directly):\n"
      "  tree-walk %.2f us/query, bytecode VM %.2f us/query -> %.2fx  %s\n"
      "  VM ns per call, median [min, max]:",
      kPscDistinct, kPscQueries, kPscTrials, psc_mean_interp, psc_mean_compiled, psc_speedup,
      psc_speedup >= 3.0 ? "[ok: >= 3x]" : "[BELOW 3x TARGET]");
  std::string psc_vm_json;
  for (const PscInterface& p : psc) {
    const std::string& name = p.queries.front()->interface;
    const double median = MedianOf(p.vm_ns);
    const double min = *std::min_element(p.vm_ns.begin(), p.vm_ns.end());
    const double max = *std::max_element(p.vm_ns.begin(), p.vm_ns.end());
    std::printf(" %s %.0f [%.0f, %.0f]", name.c_str(), median, min, max);
    psc_vm_json += StrFormat("%s\"%s\": {\"median\": %.1f, \"min\": %.1f, \"max\": %.1f}",
                             psc_vm_json.empty() ? "" : ", ", name.c_str(), median, min, max);
  }
  std::printf("\n");

  // --- Sweep 6: loopback TCP vs in-process async ------------------------
  // The same pipelined batches as sweep 4, driven through the NDJSON
  // server over 127.0.0.1 and through the in-process async client, which
  // is the ceiling; the ratio is what the socket + JSON codec cost per
  // query. The two sides run in interleaved pairs on the same batches,
  // alternating which goes first, so host drift between rows lands on
  // both sides of a pair; the verdict reads the median per-pair ratio. At
  // smoke size a side runs for ~2 ms and one pair's ratio spans 0.3-0.9x
  // on a shared 4-vCPU host, so the median needs ~30 pairs to settle.
  // Verdict "ok" requires every response OK and the wire path within 2x
  // of in-process (loopback round trips dominate on small hosts, so the
  // bar is lenient — the row exists to catch protocol-level regressions,
  // not to win).
  const int kTcpPairs = 31;
  std::vector<double> tcp_ratios;
  std::vector<double> pair_qps_tcp;
  std::vector<double> pair_qps_inprocess;
  bool tcp_all_ok = true;
  for (int pair = 0; pair < kTcpPairs; ++pair) {
    const std::vector<std::vector<PredictRequest>> batches = build_async_batches();
    double qps_inprocess = 0;
    double qps_over_tcp = 0;
    // Even pairs run in-process first, odd pairs over TCP first.
    for (const bool tcp : {pair % 2 == 1, pair % 2 == 0}) {
      ServiceOptions options;
      options.num_workers = 2;
      options.cache_capacity = 2048;
      options.batch_chunk = kAsyncBatch;
      PredictionService service(InterfaceRegistry::Default(), options);
      if (!tcp) {
        qps_inprocess = DriveAsyncPipelined(&service, batches, kWindow).qps;
        continue;
      }
      net::NetServer server(&service);
      std::string error;
      PI_CHECK_MSG(server.Start(&error), error.c_str());
      const TcpResult r = DriveTcpPipelined(server.port(), batches, kWindow);
      server.Stop();
      qps_over_tcp = r.qps;
      tcp_all_ok = tcp_all_ok && r.all_ok;
    }
    pair_qps_inprocess.push_back(qps_inprocess);
    pair_qps_tcp.push_back(qps_over_tcp);
    tcp_ratios.push_back(qps_inprocess > 0 ? qps_over_tcp / qps_inprocess : 0);
  }
  const double tcp_ratio = MedianOf(tcp_ratios);
  const double tcp_ratio_min = *std::min_element(tcp_ratios.begin(), tcp_ratios.end());
  const double tcp_ratio_max = *std::max_element(tcp_ratios.begin(), tcp_ratios.end());
  const double qps_tcp = MedianOf(pair_qps_tcp);
  const double qps_inprocess_paired = MedianOf(pair_qps_inprocess);
  // Same host policy as the other concurrency rows: with < 4 cores the
  // client, the connection reader, and the workers time-share one CPU and
  // the ratio measures the scheduler, so it is reported but not judged.
  // Correctness (every response OK) is judged everywhere.
  const char* tcp_verdict =
      !tcp_all_ok ? "responses_not_ok"
                  : (cores < 4 ? "skipped_insufficient_cores"
                               : (tcp_ratio >= 0.5 ? "ok" : "wire_tax_above_2x"));
  std::printf(
      "\nloopback TCP (1 client, window %zu, %zu batches x %zu, %d interleaved pairs):\n"
      "  in-process async %.0f qps, over TCP %.0f qps (median %.2fx of in-process, "
      "pairs %.2f-%.2fx)  %s\n",
      kWindow, kAsyncBatches, kAsyncBatch, kTcpPairs, qps_inprocess_paired, qps_tcp, tcp_ratio,
      tcp_ratio_min, tcp_ratio_max,
      std::strcmp(tcp_verdict, "ok") == 0
          ? "[ok]"
          : (std::strcmp(tcp_verdict, "skipped_insufficient_cores") == 0
                 ? "[skipped: needs >= 4 cores]"
                 : "[WIRE PATH REGRESSED]"));

  // --- Sweep 7: conv tile autotune, interface vs simulator --------------
  // The paper's "interface replaces the simulator in the inner loop" story
  // at the conv family: exhaustive tile search through the cycle-accurate
  // sim vs the same search through the compiled PerfScript interface. The
  // quality gap is judged by the simulator itself (re-time the interface's
  // pick); verdict "ok" needs the pick within 5% and the search >= 10x
  // faster. Smoke shrinks the layer, not the methodology.
  ConvLayer conv_layer;
  conv_layer.height = smoke ? 14 : 28;
  conv_layer.width = smoke ? 14 : 28;
  conv_layer.channels = smoke ? 8 : 16;
  conv_layer.filters = smoke ? 8 : 16;
  conv_layer.kernel_h = 3;
  conv_layer.kernel_w = 3;
  conv_layer.stride = 1;
  conv_layer.pad = 1;
  ConvSimBackend conv_sim_backend(ConvTiming{}, ConvSim::RecommendedMemoryConfig(), 5);
  ConvProgramBackend conv_program_backend;
  const ConvTuneResult conv_sim_search = TuneConvTiles(conv_layer, &conv_sim_backend);
  const ConvTuneResult conv_iface_search = TuneConvTiles(conv_layer, &conv_program_backend);
  const Cycles conv_iface_pick_simulated =
      conv_sim_backend.EvaluateLatency(conv_layer, conv_iface_search.best_tile);
  const double conv_gap = conv_sim_search.best_latency > 0
                              ? static_cast<double>(conv_iface_pick_simulated) /
                                        static_cast<double>(conv_sim_search.best_latency) -
                                    1.0
                              : 0;
  const double conv_speedup =
      conv_sim_search.wall_seconds / std::max(conv_iface_search.wall_seconds, 1e-9);
  const char* conv_verdict = conv_gap <= 0.05 && conv_speedup >= 10.0
                                 ? "ok"
                                 : (conv_gap > 0.05 ? "pick_gap_above_5pct" : "below_10x_speedup");
  std::printf(
      "\nconv tile autotune (%zux%zux%zu -> %zu filters, %zu candidates):\n"
      "  sim search %.3fs -> %s, interface search %.6fs -> %s\n"
      "  interface pick re-simulated: %.2f%% above sim optimum, search %.0fx faster  %s\n",
      static_cast<std::size_t>(conv_layer.height), static_cast<std::size_t>(conv_layer.width),
      static_cast<std::size_t>(conv_layer.channels),
      static_cast<std::size_t>(conv_layer.filters), conv_sim_search.evaluations,
      conv_sim_search.wall_seconds, conv_sim_search.best_tile.ToString().c_str(),
      conv_iface_search.wall_seconds, conv_iface_search.best_tile.ToString().c_str(),
      100.0 * conv_gap, conv_speedup,
      std::strcmp(conv_verdict, "ok") == 0 ? "[ok: <= 5% at >= 10x]"
                                           : "[INTERFACE SEARCH REGRESSED]");

  // --- Sweep 8: shadow validation overhead ------------------------------
  // Distinct conv latency queries, response cache OFF (hits are never
  // shadow-sampled, so a cached run would measure nothing), sampler off vs
  // 1 in 64. Sampled queries pay a full cycle-level sim replay — orders of
  // magnitude above the interface query itself — so the qps ratio is the
  // amortized price of continuous validation at this rate. Violations must
  // be zero: the shipped conv calibration (max ~7.7% program error) sits
  // well inside the default 15% drift threshold.
  conv::RegisterConvShadowBackend();
  const std::size_t kShadowDistinct = smoke ? 192 : 512;
  const std::size_t kShadowQueries = smoke ? 1'500 : 20'000;
  const std::vector<PredictRequest> conv_population = BuildConvPopulation(kShadowDistinct);
  double shadow_mean_off = 0;
  double shadow_mean_on = 0;
  std::uint64_t shadow_runs = 0;
  std::uint64_t shadow_violations = 0;
  for (const bool shadowed : {false, true}) {
    ServiceOptions options;
    options.num_workers = 2;
    options.cache_capacity = 0;
    options.shadow_sample_every = shadowed ? 64 : 0;
    PredictionService service(InterfaceRegistry::Default(), options);
    const double mean_us = DriveMeanLatencyUs(&service, conv_population, kShadowQueries, kBatch);
    if (shadowed) {
      shadow_mean_on = mean_us;
      for (std::size_t i = 0; i < service.InterfaceInfos().size(); ++i) {
        shadow_runs += service.shadow().runs(i);
      }
      shadow_violations = service.shadow().total_violations();
    } else {
      shadow_mean_off = mean_us;
    }
  }
  const double shadow_qps_off = shadow_mean_off > 0 ? 1e6 / shadow_mean_off : 0;
  const double shadow_qps_on = shadow_mean_on > 0 ? 1e6 / shadow_mean_on : 0;
  const double shadow_ratio = shadow_qps_off > 0 ? shadow_qps_on / shadow_qps_off : 0;
  // The bar is deliberately coarse (sim replays dominate sampled queries);
  // the row exists to keep the amortized cost visible and the drift check
  // honest, not to win a throughput contest.
  const char* shadow_verdict = shadow_runs == 0
                                   ? "sampler_never_fired"
                                   : (shadow_violations != 0
                                          ? "drift_violations_nonzero"
                                          : (shadow_ratio >= 0.2 ? "ok" : "overhead_above_5x"));
  std::printf(
      "\nshadow overhead (%zu distinct conv queries, %zu total, response cache off):\n"
      "  sampler off %.0f qps, 1-in-64 %.0f qps (%.2fx), %llu shadow runs, %llu violations  %s\n",
      kShadowDistinct, kShadowQueries, shadow_qps_off, shadow_qps_on, shadow_ratio,
      static_cast<unsigned long long>(shadow_runs),
      static_cast<unsigned long long>(shadow_violations),
      std::strcmp(shadow_verdict, "ok") == 0 ? "[ok]" : "[SHADOW ROW REGRESSED]");

  // --- Sweep: exact derived tier on jittered near-miss traffic ---------
  // Every request's attributes are unique (the response cache cannot hit)
  // but cluster on Zipf-hot centers. Both configs pay the same
  // warmup; the timed region is fresh jitter from the same centers. The
  // verdict demands >= 1.5x on mean latency AND every timed answer equal
  // to the tiers-off simulation's — speed bought with a single wrong cycle
  // is a regression here, not a win.
  const std::size_t kNearCenters = 16;
  const std::size_t kNearWarmup = smoke ? 768 : 4'096;
  const std::size_t kNearQueries = smoke ? 1'500 : 20'000;
  const std::vector<PredictRequest> near_warmup =
      BuildNearMissPopulation(kNearWarmup, kNearCenters, 0xbeef);
  const std::vector<PredictRequest> near_timed =
      BuildNearMissPopulation(kNearQueries, kNearCenters, 0xfade);
  double near_mean_off = 0;
  double near_mean_on = 0;
  std::uint64_t near_derived_hits = 0;
  std::vector<double> near_values[2];
  for (const bool tiers : {false, true}) {
    ServiceOptions options;
    options.num_workers = 2;
    options.cache_capacity = 0;
    options.enable_pnet_memo = tiers;
    PredictionService service(InterfaceRegistry::Default(), options);
    (void)DriveMeanLatencyUs(&service, near_warmup, kNearWarmup, kBatch);
    const double mean_us = DriveMeanLatencyUs(&service, near_timed, kNearQueries, kBatch,
                                              &near_values[tiers ? 1 : 0]);
    if (tiers) {
      near_mean_on = mean_us;
      near_derived_hits = service.derived_store()->hits();
    } else {
      near_mean_off = mean_us;
    }
  }
  std::size_t near_divergence = 0;
  for (std::size_t i = 0; i < kNearQueries; ++i) {
    near_divergence += near_values[0][i] != near_values[1][i] ? 1 : 0;
  }
  const double near_speedup = near_mean_on > 0 ? near_mean_off / near_mean_on : 0;
  const char* near_verdict =
      near_derived_hits == 0
          ? "exact_tier_never_served"
          : (near_divergence != 0 ? "divergence_nonzero"
                                  : (near_speedup >= 1.5 ? "ok" : "below_1p5x_target"));
  std::printf(
      "\nnear-miss exact sweep (%zu hot centers, %zu jittered queries, cache off):\n"
      "  tiers off %.2f us/query, tiers on %.2f us/query -> %.2fx, %llu derived hits, "
      "%zu of %zu answers diverged  %s\n",
      kNearCenters, kNearQueries, near_mean_off, near_mean_on, near_speedup,
      static_cast<unsigned long long>(near_derived_hits), near_divergence, kNearQueries,
      std::strcmp(near_verdict, "ok") == 0 ? "[ok: >= 1.5x, bit-identical]"
                                           : "[NEAR-MISS ROW REGRESSED]");

  // --- Sweep: exact derived tier over sweep_cold's attribute range -------
  // Unique-attr jpeg pnet queries, bits 64..2^18 and blocks 1..16: no
  // cache of exact answers can hit (no attrs repeat), so tiers-off pays a
  // full simulation per query while tiers-on serves every one from the
  // max-plus program compiled on the first lookup. The verdict demands
  // >= 5x on mean latency AND bit-identical values on every timed query
  // and an audited probe set — the tier's exactness contract
  // (src/petri/distill.h) measured end to end.
  const std::size_t kDerivedQueries = smoke ? 1'000 : 10'000;
  const std::size_t kDerivedProbes = 64;
  const std::vector<PredictRequest> derived_timed =
      BuildDerivedPopulation(kDerivedQueries, 0xdeed);
  std::vector<PredictRequest> derived_probes = BuildDerivedPopulation(kDerivedProbes, 0xface);
  for (PredictRequest& probe : derived_probes) {
    probe.explain = true;
  }
  double derived_mean_off = 0;
  double derived_mean_on = 0;
  std::uint64_t derived_hits_total = 0;
  std::uint64_t derived_models = 0;
  std::size_t derived_probe_hits = 0;
  std::size_t derived_divergence = 0;
  std::vector<double> derived_truth(kDerivedProbes, 0);
  std::vector<double> derived_values[2];
  for (const bool tiers : {false, true}) {
    ServiceOptions options;
    options.num_workers = 2;
    options.cache_capacity = 0;
    options.enable_pnet_memo = tiers;
    PredictionService service(InterfaceRegistry::Default(), options);
    // Seed pass: the first query alone, so tiers-on compiles (and pays its
    // one recording simulation) outside the timed region — the row prices
    // the steady state, not the one-time compile.
    const std::vector<PredictRequest> seed_batch{derived_timed.front()};
    for (const PredictResponse& r : service.PredictBatch(seed_batch)) {
      PI_CHECK_MSG(r.ok(), r.error.c_str());
    }
    const double mean_us = DriveMeanLatencyUs(&service, derived_timed, kDerivedQueries, kBatch,
                                              &derived_values[tiers ? 1 : 0]);
    const std::vector<PredictResponse> probe_responses = service.PredictBatch(derived_probes);
    if (tiers) {
      derived_mean_on = mean_us;
      const DerivedStore& store = *service.derived_store();
      derived_hits_total = store.hits();
      derived_models = store.distilled();
      for (std::size_t i = 0; i < probe_responses.size(); ++i) {
        const PredictResponse& r = probe_responses[i];
        PI_CHECK_MSG(r.ok(), r.error.c_str());
        if (r.explain.derived_hits != 0) {
          ++derived_probe_hits;
        }
        if (r.value != derived_truth[i]) {
          ++derived_divergence;
        }
      }
    } else {
      derived_mean_off = mean_us;
      // The tiers-off pass is ground truth: pure simulation.
      for (std::size_t i = 0; i < probe_responses.size(); ++i) {
        PI_CHECK_MSG(probe_responses[i].ok(), probe_responses[i].error.c_str());
        derived_truth[i] = probe_responses[i].value;
      }
    }
  }
  for (std::size_t i = 0; i < kDerivedQueries; ++i) {
    derived_divergence += derived_values[0][i] != derived_values[1][i] ? 1 : 0;
  }
  const double derived_speedup = derived_mean_on > 0 ? derived_mean_off / derived_mean_on : 0;
  const char* derived_verdict =
      derived_hits_total == 0
          ? "derived_tier_never_served"
          : (derived_divergence != 0
                 ? "derived_divergence_nonzero"
                 : (derived_speedup >= 5.0 ? "ok" : "below_5x_target"));
  std::printf(
      "\nderived interface sweep (%zu unique-attr jpeg pnet queries, all caches cold):\n"
      "  tiers off %.2f us/query, tiers on %.2f us/query -> %.2fx, %llu derived hits, "
      "%llu model(s), probes %zu served derived, %zu answers diverged  %s\n",
      kDerivedQueries, derived_mean_off, derived_mean_on, derived_speedup,
      static_cast<unsigned long long>(derived_hits_total),
      static_cast<unsigned long long>(derived_models), derived_probe_hits, derived_divergence,
      std::strcmp(derived_verdict, "ok") == 0 ? "[ok: >= 5x, bit-identical]"
                                              : "[DERIVED ROW REGRESSED]");

  // --- Tracing overhead -------------------------------------------------
  // Same config twice: tracer off (the shipped default — this is the row
  // later PRs diff against the pre-instrumentation baseline) vs tracer on
  // with 1-in-64 sampling. Enabled tracing may cost a few percent; the
  // disabled row must not.
  double qps_trace_off = 0;
  double qps_trace_on = 0;
  for (const bool traced : {false, true}) {
    ServiceOptions options;
    options.num_workers = 4;
    options.cache_capacity = 2048;
    PredictionService service(InterfaceRegistry::Default(), options);
    (void)DriveLoad(&service, population, zipf, 4, kQueries / 8, kBatch);
    if (traced) {
      obs::TracerOptions trace_options;
      trace_options.sample_every = 64;
      obs::Tracer::Global().Start(trace_options);
    }
    const LoadResult r = DriveLoad(&service, population, zipf, 4, kQueries / 2, kBatch);
    if (traced) {
      obs::Tracer::Global().Stop();
      qps_trace_on = r.qps;
    } else {
      qps_trace_off = r.qps;
    }
  }
  std::printf("\ntracing overhead (4 workers, cached): off %.0f qps, on(1/64) %.0f qps -> %.1f%%\n",
              qps_trace_off, qps_trace_on,
              qps_trace_off > 0 ? 100.0 * (1.0 - qps_trace_on / qps_trace_off) : 0.0);

  // --- Sweep: SLO-aware admission under 2x overload (open loop) ---------
  // One worker, every cache and the derived tier off, so each evaluation pays
  // the same full simulation — the service is a deterministic-ish D/D/1
  // queue and "2x overload" means exactly what it says. Three runs over
  // the same query:
  //   uncontended   admission off, arrivals at ~0.4x capacity -> p99_u
  //   shed-early    admission on, arrivals at 2x capacity, deadline p99_u:
  //                 infeasible requests are REJECTED at enqueue, so the
  //                 admitted tail stays bounded by deadline + service
  //   FIFO          identical schedule, no deadlines, admission off: the
  //                 pre-PR overload behaviour — every request queues and
  //                 completes late as the backlog grows without bound.
  //                 (Tagging this run with deadlines would let the
  //                 expired-at-dequeue path self-regulate the queue around
  //                 the deadline, hiding exactly the blowup this row
  //                 exists to show.)
  // The query is deliberately heavy (~hundreds of us): scheduler and
  // sleep_until jitter is tens of us on a busy host, and the verdict
  // ratios only mean something when service time dominates that noise.
  const std::size_t kAdmCount = smoke ? 160 : 500;
  PredictRequest adm_query;
  adm_query.interface = "jpeg_decoder";
  adm_query.representation = Representation::kPnet;
  adm_query.entry_place = "hdr_in:1,vld_in:256";
  adm_query.attrs = {{"bits", 16'000.0}, {"blocks", 8.0}};
  const auto admission_options = [&](bool shed_deadline) {
    ServiceOptions o;
    o.num_workers = 1;
    o.cache_capacity = 0;
    o.enable_pnet_memo = false;
    o.batch_chunk = 1;
    // Open loop: the generator must never block on a full queue, or the
    // schedule silently closes the loop it exists to keep open.
    o.queue_capacity = kAdmCount + 64;
    o.admission.shed_deadline = shed_deadline;
    return o;
  };

  // The three services are built up front and the phases run round by
  // round (uncontended, shed-early, FIFO), so a host stall lands on every
  // phase alike instead of on whichever one happened to be running. Each
  // round's shed-early deadline is that round's uncontended p99. Over the
  // rounds, reference phases take the median of the per-round p99s,
  // stressed phases the minimum (see MedianOf / MinOf for why the
  // asymmetry is the honest choice); each round's steal share is recorded.
  const int kAdmTrials = 5;
  PredictionService adm_unc_service(InterfaceRegistry::Default(), admission_options(false));
  PredictionService adm_shed_service(InterfaceRegistry::Default(), admission_options(true));
  PredictionService adm_fifo_service(InterfaceRegistry::Default(), admission_options(false));
  const double adm_mean_us =
      CalibrateMeanServiceUs(&adm_unc_service, adm_query, smoke ? 24 : 48);
  // Warm the EMA the feasibility check divides by (a cold controller
  // deliberately never sheds), and the FIFO service alike.
  (void)CalibrateMeanServiceUs(&adm_shed_service, adm_query, 16);
  (void)CalibrateMeanServiceUs(&adm_fifo_service, adm_query, 16);
  // The overload schedule is 2x the capacity of a saturated worker (the
  // median of kAdmTrials measurements, so one stall cannot skew it): a
  // schedule built on the round-trip mean can fall short of overload on a
  // quiet round, and the FIFO minimum then picks that round.
  std::vector<double> adm_saturated;
  for (int t = 0; t < kAdmTrials; ++t) {
    adm_saturated.push_back(SaturatedServiceUs(&adm_fifo_service, adm_query, 16));
  }
  const double adm_saturated_us = MedianOf(adm_saturated);
  const std::uint64_t overload_interval_ns =
      static_cast<std::uint64_t>(adm_saturated_us * 1e3 / 2.0);
  OpenLoopResult adm_uncontended, adm_shed, adm_fifo;
  std::vector<double> adm_unc_p99s, adm_shed_p99s, adm_fifo_p99s, adm_steal;
  for (int t = 0; t < kAdmTrials; ++t) {
    const HostTicks round_start = ReadHostTicks();
    const OpenLoopResult unc = DriveOpenLoop(&adm_unc_service, adm_query, kAdmCount,
                                             static_cast<std::uint64_t>(adm_mean_us * 1e3 / 0.4));
    adm_unc_p99s.push_back(PercentileUs(unc.ok_us, 0.99));
    PoolInto(&adm_uncontended, unc);
    // Deadline = this round's uncontended p99: an admitted request then
    // finishes within ~deadline + one service time <= 2 * p99_u, which is
    // the verdict bar.
    PredictRequest slo_query = adm_query;
    slo_query.deadline_us =
        std::max<std::int64_t>(static_cast<std::int64_t>(adm_unc_p99s.back()), 1);
    const OpenLoopResult shed =
        DriveOpenLoop(&adm_shed_service, slo_query, kAdmCount, overload_interval_ns);
    adm_shed_p99s.push_back(PercentileUs(shed.ok_us, 0.99));
    PoolInto(&adm_shed, shed);
    const OpenLoopResult fifo =
        DriveOpenLoop(&adm_fifo_service, adm_query, kAdmCount, overload_interval_ns);
    adm_fifo_p99s.push_back(PercentileUs(fifo.ok_us, 0.99));
    PoolInto(&adm_fifo, fifo);
    adm_steal.push_back(StealShare(round_start, ReadHostTicks()));
  }
  const double adm_p99_unc = MedianOf(adm_unc_p99s);
  const std::int64_t adm_deadline_us =
      std::max<std::int64_t>(static_cast<std::int64_t>(adm_p99_unc), 1);
  const std::uint64_t adm_shed_deadline_total =
      adm_shed_service.metrics().admission_shed_deadline();
  std::string adm_steal_json;
  for (const double share : adm_steal) {
    adm_steal_json += StrFormat("%s%.4f", adm_steal_json.empty() ? "" : ", ", share);
  }
  const double adm_p99_shed = MinOf(adm_shed_p99s);
  const double adm_p99_fifo = MinOf(adm_fifo_p99s);
  const char* admission_verdict =
      adm_shed_deadline_total == 0 || adm_shed.ok == 0
          ? "never_shed"
          : (adm_p99_shed > 2.0 * adm_p99_unc
                 ? "admitted_tail_above_2x"
                 : (adm_p99_fifo >= 4.0 * adm_p99_unc ? "ok" : "fifo_baseline_not_degraded"));
  std::printf(
      "\nadmission sweep (open loop, 1 worker, mean service %.0f us, median deadline %lld us, "
      "%zu arrivals at 2x capacity x%d interleaved rounds, median-of-round p99s for the "
      "uncontended reference, min for the stressed phases, steal per round [%s]):\n"
      "  uncontended p99 %.0f us; shed-early: admitted %zu / shed %zu, admitted p99 %.0f us "
      "(%.2fx of uncontended); FIFO: all %zu queue, p99 %.0f us (%.2fx)  %s\n",
      adm_mean_us, static_cast<long long>(adm_deadline_us), kAdmCount, kAdmTrials,
      adm_steal_json.c_str(), adm_p99_unc, adm_shed.ok, adm_shed.rejected, adm_p99_shed,
      adm_p99_unc > 0 ? adm_p99_shed / adm_p99_unc : 0, adm_fifo.ok, adm_p99_fifo,
      adm_p99_unc > 0 ? adm_p99_fifo / adm_p99_unc : 0,
      std::strcmp(admission_verdict, "ok") == 0 ? "[ok: shed-early beats timeout-late]"
                                                : "[ADMISSION ROW REGRESSED]");

  // --- Sweep: per-tenant quota isolation --------------------------------
  // Tenant "alpha" (the victim): the heavy deadline-tagged query at ~0.35x
  // capacity, no quota. Tenant "bravo" (the bully): a much cheaper
  // background query (no deadline — it rides the least-urgent band) fired
  // at 3x its token-bucket quota. Quota-only shedding: the bucket, not the
  // feasibility check, is what must contain bravo. The deadline band also
  // matters — alpha overtakes bravo's backlog in the queue, so the worst
  // alpha sees is the bravo evaluation already on the worker.
  PredictRequest iso_bully = adm_query;
  iso_bully.entry_place = "hdr_in:1,vld_in:4";
  iso_bully.attrs = {{"bits", 200.0}, {"blocks", 1.0}};
  iso_bully.tenant = "bravo";
  double iso_bully_mean_us = 0;
  {
    PredictionService service(InterfaceRegistry::Default(), admission_options(false));
    iso_bully_mean_us = CalibrateMeanServiceUs(&service, iso_bully, smoke ? 48 : 96);
  }
  // 0.15x of capacity: enough admitted bully traffic to matter, little
  // enough that the victim's 1.5x-of-isolated bar is judged on isolation
  // (bands + quota), not on raw utilization pushing the whole queue up.
  const double iso_bully_quota_qps = 0.15 * 1e6 / iso_bully_mean_us;
  const auto isolation_options = [&] {
    ServiceOptions o = admission_options(false);
    o.queue_capacity = 1 << 14;
    TenantQuota bully_quota;
    bully_quota.qps = iso_bully_quota_qps;
    bully_quota.burst = 4;
    o.admission.tenant_quotas.emplace_back("bravo", bully_quota);
    return o;
  };
  PredictRequest iso_victim = adm_query;
  iso_victim.tenant = "alpha";
  iso_victim.deadline_us = 1'000'000;  // slack SLO: classifies the band, never expires
  const std::size_t kIsoVictimCount = smoke ? 150 : 350;
  const std::uint64_t iso_victim_interval_ns =
      static_cast<std::uint64_t>(adm_mean_us * 1e3 / 0.35);
  // The bully offers 3x its quota for as long as the victim run lasts.
  const std::uint64_t iso_bully_interval_ns =
      static_cast<std::uint64_t>(1e9 / (3.0 * iso_bully_quota_qps));
  const std::size_t kIsoBullyCount = std::max<std::size_t>(
      1, static_cast<std::size_t>(kIsoVictimCount * iso_victim_interval_ns /
                                  std::max<std::uint64_t>(iso_bully_interval_ns, 1)));

  OpenLoopResult iso_alone;
  std::vector<double> iso_alone_p99s;
  {
    PredictionService service(InterfaceRegistry::Default(), isolation_options());
    (void)CalibrateMeanServiceUs(&service, iso_victim, 16);
    for (int t = 0; t < kAdmTrials; ++t) {
      const OpenLoopResult r =
          DriveOpenLoop(&service, iso_victim, kIsoVictimCount, iso_victim_interval_ns);
      iso_alone_p99s.push_back(PercentileUs(r.ok_us, 0.99));
      PoolInto(&iso_alone, r);
    }
  }
  OpenLoopResult iso_shared;
  std::vector<double> iso_shared_p99s;
  OpenLoopResult iso_bully_result;
  std::uint64_t iso_shed_quota_total = 0;
  {
    PredictionService service(InterfaceRegistry::Default(), isolation_options());
    (void)CalibrateMeanServiceUs(&service, iso_victim, 16);
    for (int t = 0; t < kAdmTrials; ++t) {
      const std::pair<OpenLoopResult, OpenLoopResult> r = DriveOpenLoopTwo(
          &service, iso_victim, kIsoVictimCount, iso_victim_interval_ns, iso_bully,
          kIsoBullyCount, iso_bully_interval_ns);
      iso_shared_p99s.push_back(PercentileUs(r.first.ok_us, 0.99));
      PoolInto(&iso_shared, r.first);
      PoolInto(&iso_bully_result, r.second);
    }
    iso_shed_quota_total = service.metrics().admission_shed_quota();
  }
  const double iso_p99_alone = MedianOf(iso_alone_p99s);
  const double iso_p99_shared = MinOf(iso_shared_p99s);
  const double iso_ratio = iso_p99_alone > 0 ? iso_p99_shared / iso_p99_alone : 0;
  const char* isolation_verdict =
      iso_shared.rejected != 0 ||
              iso_shared.ok != kIsoVictimCount * static_cast<std::size_t>(kAdmTrials)
          ? "victim_tenant_shed"
          : (iso_shed_quota_total == 0
                 ? "quota_never_shed"
                 : (iso_ratio <= 1.5 ? "ok" : "isolation_tail_above_1p5x"));
  std::printf(
      "\ntenant isolation (1 worker; alpha %zu deadline-tagged arrivals, bravo %zu cheap "
      "arrivals at 3x a %.0f qps quota; x%d trials, median isolated / min shared p99):\n"
      "  alpha isolated p99 %.0f us, shared p99 %.0f us (%.2fx); bravo admitted %zu / "
      "shed %zu (quota sheds %llu); alpha sheds %zu  %s\n",
      kIsoVictimCount, kIsoBullyCount, iso_bully_quota_qps, kAdmTrials, iso_p99_alone,
      iso_p99_shared, iso_ratio, iso_bully_result.ok, iso_bully_result.rejected,
      static_cast<unsigned long long>(iso_shed_quota_total), iso_shared.rejected,
      std::strcmp(isolation_verdict, "ok") == 0 ? "[ok: bully contained]"
                                                : "[ISOLATION ROW REGRESSED]");

  // --- Machine-readable dump (BENCH_serve.json, repo root) --------------
  std::string json = "{\n";
  json += StrFormat("  \"bench\": \"serve_throughput\",\n  \"smoke\": %s,\n  \"host_cores\": %u,\n",
                    smoke ? "true" : "false", std::thread::hardware_concurrency());
  json += StrFormat(
      "  \"distinct_queries\": %zu,\n  \"total_queries\": %zu,\n  \"batch\": %zu,\n"
      "  \"zipf_s\": %.2f,\n",
      kDistinct, kQueries, kBatch, kZipfS);
  json += "  \"worker_cache_sweep\": [\n";
  for (std::size_t i = 0; i < sweep1_rows.size(); ++i) {
    json += "    " + sweep1_rows[i] + (i + 1 == sweep1_rows.size() ? "\n" : ",\n");
  }
  json += "  ],\n  \"cache_capacity_sweep\": [\n";
  for (std::size_t i = 0; i < sweep2_rows.size(); ++i) {
    json += "    " + sweep2_rows[i] + (i + 1 == sweep2_rows.size() ? "\n" : ",\n");
  }
  json += "  ],\n";
  json += StrFormat("  \"worker_scaling_1_to_8_cached\": %.3f,\n", scaling);
  json += StrFormat(
      "  \"worker_scaling\": {\"ratio\": %.3f, \"cores\": %u, \"verdict\": \"%s\", "
      "\"baseline_1_worker\": {\"qps\": %.1f, \"p50_us\": %.2f, \"p95_us\": %.2f, "
      "\"p99_us\": %.2f}},\n",
      scaling, cores, scaling_verdict, baseline_1w.qps, baseline_1w.p50_us, baseline_1w.p95_us,
      baseline_1w.p99_us);
  json += StrFormat("  \"cache_speedup_8_workers\": %.3f,\n", cache_gain);
  json += StrFormat(
      "  \"memo_sweep\": {\"distinct\": %zu, \"queries\": %zu, \"mean_us_memo_off\": %.2f, "
      "\"mean_us_memo_on\": %.2f, \"speedup\": %.3f, \"verdict\": \"%s\"},\n",
      kMemoDistinct, kMemoQueries, memo_mean_off, memo_mean_on, memo_speedup, memo_verdict);
  json += StrFormat(
      "  \"async_pipeline\": {\"window\": %zu, \"batches\": %zu, \"batch\": %zu, "
      "\"qps_blocking\": %.1f, \"qps_async\": %.1f, \"ratio\": %.3f, "
      "\"max_inflight_observed\": %zu, \"verdict\": \"%s\"},\n",
      kWindow, kAsyncBatches, kAsyncBatch, qps_blocking, async_result.qps, async_ratio,
      async_result.max_inflight, async_verdict);
  json += StrFormat(
      "  \"psc_compile_sweep\": {\"distinct\": %zu, \"queries\": %zu, \"trials\": %d, "
      "\"mean_us_interp\": %.2f, \"mean_us_compiled\": %.2f, \"speedup\": %.3f, "
      "\"vm_ns_per_call\": {%s}, \"verdict\": \"%s\"},\n",
      kPscDistinct, kPscQueries, kPscTrials, psc_mean_interp, psc_mean_compiled, psc_speedup,
      psc_vm_json.c_str(), psc_verdict);
  json += StrFormat(
      "  \"net_loopback\": {\"window\": %zu, \"batches\": %zu, \"batch\": %zu, "
      "\"pairs\": %d, \"qps_tcp\": %.1f, \"qps_inprocess_async\": %.1f, \"ratio\": %.3f, "
      "\"ratio_min\": %.3f, \"ratio_max\": %.3f, \"verdict\": \"%s\"},\n",
      kWindow, kAsyncBatches, kAsyncBatch, kTcpPairs, qps_tcp, qps_inprocess_paired, tcp_ratio,
      tcp_ratio_min, tcp_ratio_max, tcp_verdict);
  json += StrFormat(
      "  \"conv_autotune\": {\"layer\": \"%s\", \"candidates\": %zu, "
      "\"sim_wall_s\": %.4f, \"iface_wall_s\": %.6f, \"speedup\": %.1f, "
      "\"sim_best_tile\": \"%s\", \"iface_best_tile\": \"%s\", \"gap_pct\": %.3f, "
      "\"verdict\": \"%s\"},\n",
      conv_layer.ToString().c_str(), conv_sim_search.evaluations, conv_sim_search.wall_seconds,
      conv_iface_search.wall_seconds, conv_speedup, conv_sim_search.best_tile.ToString().c_str(),
      conv_iface_search.best_tile.ToString().c_str(), 100.0 * conv_gap, conv_verdict);
  json += StrFormat(
      "  \"shadow_overhead\": {\"distinct\": %zu, \"queries\": %zu, \"sample_every\": 64, "
      "\"qps_shadow_off\": %.1f, \"qps_shadow_1_in_64\": %.1f, \"ratio\": %.3f, "
      "\"shadow_runs\": %llu, \"shadow_violations\": %llu, \"verdict\": \"%s\"},\n",
      kShadowDistinct, kShadowQueries, shadow_qps_off, shadow_qps_on, shadow_ratio,
      static_cast<unsigned long long>(shadow_runs),
      static_cast<unsigned long long>(shadow_violations), shadow_verdict);
  json += StrFormat(
      "  \"nearmiss_exact_sweep\": {\"centers\": %zu, \"warmup\": %zu, \"queries\": %zu, "
      "\"mean_us_tiers_off\": %.2f, \"mean_us_tiers_on\": %.2f, \"speedup\": %.3f, "
      "\"derived_hits\": %llu, \"divergence\": %zu, \"verdict\": \"%s\"},\n",
      kNearCenters, kNearWarmup, kNearQueries, near_mean_off, near_mean_on, near_speedup,
      static_cast<unsigned long long>(near_derived_hits), near_divergence, near_verdict);
  json += StrFormat(
      "  \"derived_iface_sweep\": {\"queries\": %zu, \"mean_us_tiers_off\": %.2f, "
      "\"mean_us_tiers_on\": %.2f, \"speedup\": %.3f, \"derived_hits\": %llu, "
      "\"models\": %llu, \"probe_derived_hits\": %zu, \"divergence\": %zu, "
      "\"verdict\": \"%s\"},\n",
      kDerivedQueries, derived_mean_off, derived_mean_on, derived_speedup,
      static_cast<unsigned long long>(derived_hits_total),
      static_cast<unsigned long long>(derived_models), derived_probe_hits, derived_divergence,
      derived_verdict);
  json += StrFormat(
      "  \"admission_sweep\": {\"count\": %zu, \"trials\": %d, \"mean_service_us\": %.2f, "
      "\"deadline_us\": %lld, \"p99_uncontended_us\": %.2f, \"p99_admitted_us\": %.2f, "
      "\"p999_admitted_us\": %.2f, \"p50_admitted_us\": %.2f, \"p99_fifo_us\": %.2f, "
      "\"admitted\": %zu, \"shed\": %zu, \"shed_deadline_total\": %llu, "
      "\"fifo_completed\": %zu, \"saturated_service_us\": %.2f, \"steal_share\": [%s], "
      "\"verdict\": \"%s\"},\n",
      kAdmCount, kAdmTrials, adm_mean_us, static_cast<long long>(adm_deadline_us), adm_p99_unc,
      adm_p99_shed, PercentileUs(adm_shed.ok_us, 0.999), PercentileUs(adm_shed.ok_us, 0.50),
      adm_p99_fifo, adm_shed.ok, adm_shed.rejected,
      static_cast<unsigned long long>(adm_shed_deadline_total), adm_fifo.ok,
      adm_saturated_us, adm_steal_json.c_str(), admission_verdict);
  json += StrFormat(
      "  \"tenant_isolation\": {\"victim_count\": %zu, \"bully_count\": %zu, \"trials\": %d, "
      "\"bully_quota_qps\": %.1f, \"p99_victim_isolated_us\": %.2f, "
      "\"p99_victim_shared_us\": %.2f, \"ratio\": %.3f, \"victim_shed\": %zu, "
      "\"bully_admitted\": %zu, \"bully_shed\": %zu, \"shed_quota_total\": %llu, "
      "\"verdict\": \"%s\"},\n",
      kIsoVictimCount, kIsoBullyCount, kAdmTrials, iso_bully_quota_qps, iso_p99_alone,
      iso_p99_shared, iso_ratio, iso_shared.rejected, iso_bully_result.ok,
      iso_bully_result.rejected,
      static_cast<unsigned long long>(iso_shed_quota_total), isolation_verdict);
  json += StrFormat(
      "  \"trace_overhead\": {\"qps_disabled\": %.1f, \"qps_enabled_1_in_64\": %.1f}\n",
      qps_trace_off, qps_trace_on);
  json += "}\n";
  const std::string out_path = std::string(PERFIFACE_SOURCE_DIR) + "/BENCH_serve.json";
  if (WriteFile(out_path, json)) {
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
