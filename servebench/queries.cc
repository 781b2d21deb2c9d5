// Seeded request streams for the three workloads (README.md "Workloads").
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "servebench/bench.h"
#include "src/common/rng.h"
#include "src/net/wire.h"

namespace servebench {

namespace {

using perfiface::SplitMix64;
using perfiface::serve::Representation;

// Share of sweep_cold requests that repeat an earlier request, and the
// largest distance back (in requests) a repeat reaches. Distances are
// log-uniform over [1, kMaxRevisitDistance], so most repeats land inside
// the 4096-entry response cache and the rest miss it but find their
// components in the 65536-entry sub-net memo.
constexpr double kRevisitShare = 0.25;
constexpr double kMaxRevisitDistance = 32768;

constexpr std::uint64_t kWirePopulation = 1024;
constexpr double kWireZipf = 1.05;
constexpr std::uint64_t kOnlinePopulation = 16384;
constexpr double kOnlineZipf = 1.0;

// Salts keep the per-request draw, the fresh-attribute draw and the
// population draw independent for one seed.
constexpr std::uint64_t kRequestSalt = 0x5eed0001;
constexpr std::uint64_t kFreshSalt = 0x5eed0002;
constexpr std::uint64_t kPopulationSalt = 0x5eed0003;

double Below(SplitMix64* rng, std::uint64_t bound) {
  return static_cast<double>(rng->NextBelow(bound));
}

// A design-space sweep query with fresh attributes, from the fixed mix of
// protoacc serializer trees, the deserializer model, conv layers and
// 32-stripe jpeg Petri-net decodes.
PredictRequest SweepQuery(std::uint64_t key) {
  SplitMix64 rng(key);
  PredictRequest req;
  const std::uint64_t kind = rng.NextBelow(10);
  if (kind < 3) {
    req.interface = "protoacc";
    req.function = "tput_protoacc_ser";
    req.attrs = {{"num_fields", 1 + Below(&rng, 64)}, {"num_writes", 1 + Below(&rng, 4096)}};
    req.children = static_cast<int>(20 + rng.NextBelow(201));
  } else if (kind < 5) {
    req.interface = "protoacc_deser";
    req.function = "tput_protoacc_deser";
    req.attrs = {{"wire_bytes", 64 + Below(&rng, 65536)},
                 {"total_fields", 1 + Below(&rng, 512)},
                 {"total_nodes", 1 + Below(&rng, 64)},
                 {"varint_extra", Below(&rng, 128)}};
  } else if (kind < 7) {
    const double height = 6 + Below(&rng, 59);
    const double width = 6 + Below(&rng, 59);
    req.interface = "conv";
    req.function = "latency_conv";
    req.attrs = {{"height", height},
                 {"width", width},
                 {"channels", 4 * (1 + Below(&rng, 16))},
                 {"filters", 4 + Below(&rng, 61)},
                 {"kernel_h", 3},
                 {"kernel_w", 3},
                 {"stride", 1},
                 {"pad", 1},
                 {"tile_h", 1 + Below(&rng, 8)},
                 {"tile_w", 1 + Below(&rng, static_cast<std::uint64_t>(width))},
                 {"tile_k", 1 + Below(&rng, 16)}};
  } else {
    req.interface = "jpeg_decoder";
    req.representation = Representation::kPnet;
    req.entry_place = "hdr_in:1,vld_in:32";
    req.attrs = {{"bits", 64 + Below(&rng, 1 << 18)}, {"blocks", 1 + Below(&rng, 8)}};
  }
  return req;
}

// Upper bound on the 16-byte words the protoacc shadow backend's message
// for (num_fields, children) occupies before its filler field grows: tags
// of at most 2 bytes, one-byte varints, length prefixes of at most 2 bytes.
double ProtoaccMinWordsBound(double fields, double children) {
  const double sub_message = 2 + 2 + 3 * fields;
  const double bytes = children * sub_message + 3 * (fields - children - 1) + 4;
  return std::ceil(bytes / 16) + 1;
}

// A run-time offload query: only interfaces with a shadow backend, and only
// inside each backend's replayable range, so sampled replays run.
PredictRequest OnlineQuery(std::uint64_t key) {
  SplitMix64 rng(key);
  PredictRequest req;
  switch (rng.NextBelow(4)) {
    case 0:
      // Full 8-block stripes: the jpeg backend replays any stripe count.
      req.interface = "jpeg_decoder";
      req.representation = Representation::kPnet;
      req.entry_place = "hdr_in:1,vld_in:" + std::to_string(1 + rng.NextBelow(32));
      req.attrs = {{"bits", 64 + Below(&rng, 8192)}, {"blocks", 8}};
      break;
    case 1:
      // Whole 8x8 blocks (orig_size a multiple of 512).
      req.interface = "jpeg_decoder";
      req.function = "latency_jpeg_decode";
      req.attrs = {{"orig_size", 512 * (64 + Below(&rng, 961))},
                   {"compress_rate", 0.1 + 0.01 * Below(&rng, 61)}};
      break;
    case 2: {
      // children < num_fields, num_writes at or above the structural minimum.
      const double fields = 2 + Below(&rng, 47);
      const auto max_children = static_cast<std::uint64_t>(std::min(fields - 1, 24.0));
      const double children = Below(&rng, max_children + 1);
      req.interface = "protoacc";
      req.function = "tput_protoacc_ser";
      req.attrs = {{"num_fields", fields},
                   {"num_writes", ProtoaccMinWordsBound(fields, children) + Below(&rng, 64)}};
      req.children = static_cast<int>(children);
      break;
    }
    default: {
      // Small layers keep each cycle-level conv replay short.
      const double width = 6 + Below(&rng, 19);
      req.interface = "conv";
      req.function = "latency_conv";
      req.attrs = {{"height", 6 + Below(&rng, 19)},
                   {"width", width},
                   {"channels", 4 + 4 * Below(&rng, 2)},
                   {"filters", 4 + 4 * Below(&rng, 2)},
                   {"kernel_h", 3},
                   {"kernel_w", 3},
                   {"stride", 1},
                   {"pad", 1},
                   {"tile_h", 2 + 2 * Below(&rng, 2)},
                   {"tile_w", width},
                   {"tile_k", 2 + 2 * Below(&rng, 2)}};
      break;
    }
  }
  req.deadline_us = kOnlineDeadlineUs;
  return req;
}

std::vector<double> ZipfCdf(std::uint64_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) {
    c /= total;
  }
  return cdf;
}

std::uint64_t ZipfRank(const std::vector<double>& cdf, double u) {
  std::uint64_t lo = 0;
  std::uint64_t hi = cdf.size() - 1;
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi) / 2;
    if (cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

}  // namespace

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

QueryStream::QueryStream(Workload workload, std::uint64_t seed)
    : workload_(workload), seed_(seed), hash_(kFnvOffset) {
  if (workload_ == Workload::kWireHot) {
    zipf_cdf_ = ZipfCdf(kWirePopulation, kWireZipf);
  } else if (workload_ == Workload::kOnlineDeadline) {
    zipf_cdf_ = ZipfCdf(kOnlinePopulation, kOnlineZipf);
  }
}

std::uint64_t QueryStream::population() const { return zipf_cdf_.size(); }

PredictRequest QueryStream::PopulationQuery(std::uint64_t rank) const {
  const std::uint64_t key = Mix(seed_ ^ kPopulationSalt, rank);
  return workload_ == Workload::kOnlineDeadline ? OnlineQuery(key) : SweepQuery(key);
}

PredictRequest QueryStream::At(std::uint64_t i) const {
  SplitMix64 rng(Mix(seed_ ^ kRequestSalt, i));
  if (workload_ != Workload::kSweepCold) {
    return PopulationQuery(ZipfRank(zipf_cdf_, rng.NextDouble()));
  }
  // Walk back through repeats to the fresh request they reproduce.
  while (rng.NextDouble() < kRevisitShare) {
    const auto distance = static_cast<std::uint64_t>(
        std::exp(rng.NextDouble() * std::log(kMaxRevisitDistance)));
    if (distance == 0 || distance > i) {
      break;
    }
    i -= distance;
    rng = SplitMix64(Mix(seed_ ^ kRequestSalt, i));
  }
  return SweepQuery(Mix(seed_ ^ kFreshSalt, i));
}

PredictRequest QueryStream::Next() {
  PredictRequest req = At(next_);
  if (next_ < kHashedRequests) {
    std::string bytes;
    perfiface::net::EncodeRequestFrame(next_, {req}, &bytes);
    for (const char c : bytes) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  ++next_;
  return req;
}

std::string QueryStream::StreamHash() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

}  // namespace servebench
