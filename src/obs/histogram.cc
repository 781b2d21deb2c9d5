#include "src/obs/histogram.h"

#include <bit>
#include <cmath>
#include <memory>

namespace perfiface::obs {

namespace {

constexpr int kSubBits = 5;                      // 32 sub-buckets per octave
constexpr std::uint64_t kExact = 2u << kSubBits;  // 0..64 are exact buckets
constexpr std::size_t kBuckets = kExact + 1 + (64 - kSubBits - 1) * (1u << kSubBits);

std::size_t Index(std::uint64_t v) {
  if (v <= kExact) {
    return static_cast<std::size_t>(v);
  }
  const int k = std::bit_width(v - 1) - 1;  // 2^k < v <= 2^(k+1), k > kSubBits
  const std::uint64_t sub = ((v - 1) >> (k - kSubBits)) - (1u << kSubBits);
  return kExact + 1 + (static_cast<std::size_t>(k - kSubBits - 1) << kSubBits) + sub;
}

// Smallest value of bucket i.
std::uint64_t Lower(std::size_t i) {
  if (i <= kExact) {
    return i;
  }
  const std::size_t j = i - kExact - 1;
  const int k = static_cast<int>(j >> kSubBits) + kSubBits + 1;
  const std::uint64_t sub = j & ((1u << kSubBits) - 1);
  return (((1u << kSubBits) + sub) << (k - kSubBits)) + 1;
}

// Largest value of bucket i.
std::uint64_t Upper(std::size_t i) { return i + 1 < kBuckets ? Lower(i + 1) - 1 : UINT64_MAX; }

}  // namespace

// Line-aligned, so two histograms' hot fields never share a cache line.
struct alignas(64) Histogram::Storage {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> buckets[kBuckets] = {};
};

Histogram::~Histogram() { delete storage_.load(std::memory_order_acquire); }

Histogram::Storage* Histogram::Allocate() {
  auto fresh = std::make_unique<Storage>();
  Storage* current = nullptr;
  if (storage_.compare_exchange_strong(current, fresh.get(), std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    return fresh.release();
  }
  return current;  // another thread's first Record won
}

void Histogram::Record(std::uint64_t value) {
  Storage* s = storage_.load(std::memory_order_acquire);
  if (s == nullptr) [[unlikely]] {
    s = Allocate();
  }
  s->buckets[Index(value)].fetch_add(1, std::memory_order_relaxed);
  s->count.fetch_add(1, std::memory_order_relaxed);
  s->sum.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::RecordExclusive(std::uint64_t value) {
  Storage* s = storage_.load(std::memory_order_acquire);
  if (s == nullptr) [[unlikely]] {
    s = Allocate();
  }
  const auto bump = [](std::atomic<std::uint64_t>& field, std::uint64_t delta) {
    field.store(field.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  };
  bump(s->buckets[Index(value)], 1);
  bump(s->count, 1);
  bump(s->sum, value);
}

void Histogram::Merge(const Histogram& other) {
  const Storage* from = other.storage_.load(std::memory_order_acquire);
  if (from == nullptr) {
    return;
  }
  Storage* s = storage_.load(std::memory_order_acquire);
  if (s == nullptr) {
    s = Allocate();
  }
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = from->buckets[i].load(std::memory_order_relaxed);
    if (n != 0) {
      s->buckets[i].fetch_add(n, std::memory_order_relaxed);
    }
  }
  s->count.fetch_add(from->count.load(std::memory_order_relaxed), std::memory_order_relaxed);
  s->sum.fetch_add(from->sum.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  const Storage* s = storage_.load(std::memory_order_acquire);
  return s == nullptr ? 0 : s->count.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::sum() const {
  const Storage* s = storage_.load(std::memory_order_acquire);
  return s == nullptr ? 0 : s->sum.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

double Histogram::Percentile(double q) const {
  const Storage* s = storage_.load(std::memory_order_acquire);
  if (s == nullptr) {
    return 0;
  }
  // Rank against the buckets themselves, not the separately bumped count,
  // so a concurrent Record cannot leave the rank past the last sample.
  std::uint64_t total = 0;
  for (const std::atomic<std::uint64_t>& b : s->buckets) {
    total += b.load(std::memory_order_relaxed);
  }
  if (total == 0) {
    return 0;
  }
  const double rank = (q > 1 ? 1.0 : (q > 0 ? q : 0.0)) * static_cast<double>(total);
  double before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double n = static_cast<double>(s->buckets[i].load(std::memory_order_relaxed));
    if (n == 0 || before + n < rank) {
      before += n;
      continue;
    }
    const double lower = static_cast<double>(Lower(i));
    return lower + static_cast<double>(Upper(i) - Lower(i)) * (rank - before) / n;
  }
  return static_cast<double>(UINT64_MAX);  // unreachable: the loads above saw `total`
}

std::array<std::uint64_t, Histogram::kOctaves> Histogram::Octaves() const {
  std::array<std::uint64_t, kOctaves> octaves{};
  const Storage* s = storage_.load(std::memory_order_acquire);
  if (s == nullptr) {
    return octaves;
  }
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t upper = Upper(i);
    octaves[upper <= 1 ? 0 : std::bit_width(upper - 1)] +=
        s->buckets[i].load(std::memory_order_relaxed);
  }
  return octaves;
}

std::uint64_t ErrorUnits(double err) {
  constexpr double kSaturated = 0x1p40;
  const double units = std::ceil(std::abs(err) / kErrorUnit);
  return units < kSaturated ? static_cast<std::uint64_t>(units)
                            : static_cast<std::uint64_t>(kSaturated);
}

}  // namespace perfiface::obs
