// The one histogram behind every distribution the service exports: request
// latency, queue wait, shadow-validation error and parametric-fit error
// (docs/observability.md "Histograms").
//
// Log-linear geometry over the full uint64 range, nothing clamped: values
// 0..64 each own a bucket, and above 64 every power-of-two octave
// (2^k, 2^(k+1)] is split into 32 linear sub-buckets, so a bucket is at most
// 1/32 (3.125%) as wide as the values it holds. Buckets are closed above: a
// value equal to a power of two lands in the bucket that ends at it, which
// is what the Prometheus `le` (less-or-equal) edge of the same value counts.
// Percentiles interpolate linearly inside their bucket, so a median is a
// measured number, not a bucket edge.
//
// Record is wait-free: relaxed fetch_adds on the bucket, the count and the
// sum. A histogram that only one thread records into (a worker's shard of
// the service metrics) uses RecordExclusive instead: a relaxed load and
// store per field, no read-modify-write. The ~15 KB of buckets are
// allocated by the first record (one pointer CAS), so an idle series costs
// one pointer. Reads are relaxed: under concurrent records they may miss
// the newest samples, never invent one. Merge adds one histogram's samples
// to another, so per-thread histograms read as one.
#ifndef SRC_OBS_HISTOGRAM_H_
#define SRC_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace perfiface::obs {

class Histogram {
 public:
  // Octave k of Octaves(): k = 0 holds the values 0 and 1, k in [1, 63] the
  // values in (2^(k-1), 2^k], and k = 64 everything above 2^63.
  static constexpr std::size_t kOctaves = 65;

  Histogram() = default;
  ~Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(std::uint64_t value);
  // Record for a histogram no other thread records into concurrently.
  void RecordExclusive(std::uint64_t value);
  // Adds every sample of `other` to this histogram: afterwards every read
  // equals that of one histogram that recorded both sets of samples.
  void Merge(const Histogram& other);

  std::uint64_t count() const;
  // Sum of the recorded values, modulo 2^64.
  std::uint64_t sum() const;
  double mean() const;
  // The q-quantile, q in [0, 1] (clamped); 0 when empty.
  double Percentile(double q) const;
  // Samples per power-of-two octave: what the exposition's `le` edges count.
  std::array<std::uint64_t, kOctaves> Octaves() const;

 private:
  struct Storage;
  Storage* Allocate();

  std::atomic<Storage*> storage_{nullptr};
};

// Relative errors are recorded in units of 2^-30, so error families keep
// power-of-two `le` edges like the duration families (recorded in ns).
inline constexpr double kErrorUnit = 0x1p-30;

// |err| in kErrorUnit units, rounded up so an error above an edge never
// counts at it. Errors of 1024 and above — infinities and NaN included —
// saturate at 1024 (2^40 units): the uint64 sum then cannot wrap before
// 2^24 saturated samples.
std::uint64_t ErrorUnits(double err);

}  // namespace perfiface::obs

#endif  // SRC_OBS_HISTOGRAM_H_
