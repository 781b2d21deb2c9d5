// Always-on recent-request rings behind GET /tracez.
//
// The Tracer records nothing unless a tool explicitly Start()s it, which
// makes it useless for "what just happened on this server?" debugging. A
// SpanRing fills that gap: a fixed-size ring of coarse per-request records
// (one per served request / network frame, never per-firing), plus a
// separate capture of the slowest requests seen since start, so tail
// outliers survive even when the ring has long since wrapped past them.
// Recording is a mutex-guarded copy of a few small strings — cheap next to
// a queue hop — and is independent of Tracer state.
//
// Rings belong to their writers: a PredictionService keeps one per worker
// and a NetServer one for its frames, so a worker's record touches only
// its own ring. Every ring stamps with one process clock (NowNs), and
// DumpSpanRingsJson merges any set of rings into the /tracez body.
#ifndef SRC_OBS_SPAN_RING_H_
#define SRC_OBS_SPAN_RING_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfiface::obs {

// Line-aligned: one worker's records write no line another ring uses.
class alignas(64) SpanRing {
 public:
  struct Entry {
    const char* cat = "";   // static string (layer name)
    const char* name = "";  // static string (span name)
    std::string trace_id;
    std::string detail;  // free-form: "interface status", request counts, ...
    std::uint64_t start_ns = 0;  // NowNs() when the span started
    std::uint64_t dur_ns = 0;
  };

  static constexpr std::size_t kRingCapacity = 256;
  static constexpr std::size_t kSlowCapacity = 16;

  SpanRing();

  // Nanoseconds since the process's first call; callers stamp
  // Entry::start_ns with this so entries of every ring share one clock.
  static std::uint64_t NowNs();

  // Copies `entry` into the oldest slot, assigning into the slot's own
  // strings, so a warm ring records without allocating.
  void Record(const Entry& entry);

  // Oldest-to-newest snapshot of the ring (up to `max` newest entries).
  std::vector<Entry> Recent(std::size_t max = kRingCapacity) const;
  // The slowest requests since the ring was made, by descending dur_ns.
  std::vector<Entry> Slowest() const;

  std::uint64_t total_recorded() const;

 private:
  mutable std::mutex mu_;
  std::vector<Entry> ring_;   // size kRingCapacity once warm
  std::size_t next_ = 0;      // ring write cursor
  std::vector<Entry> slow_;   // kept sorted by descending dur_ns
  std::uint64_t total_ = 0;
};

// The /tracez body over `rings`:
// {"recorded_total":N,"recent":[...],"slowest":[...]}. recorded_total sums
// the rings; recent holds the `max_recent` newest entries of all rings by
// end time (start + duration), oldest first; slowest the kSlowCapacity
// slowest of all rings, slowest first.
std::string DumpSpanRingsJson(std::span<const SpanRing* const> rings,
                              std::size_t max_recent = 64);

}  // namespace perfiface::obs

#endif  // SRC_OBS_SPAN_RING_H_
