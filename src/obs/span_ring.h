// Always-on recent-request ring behind GET /tracez.
//
// The Tracer records nothing unless a tool explicitly Start()s it, which
// makes it useless for "what just happened on this server?" debugging. The
// SpanRing fills that gap: a process-wide fixed-size ring of coarse
// per-request records (one per served request / network frame, never
// per-firing), plus a separate capture of the slowest requests seen since
// start, so tail outliers survive even when the ring has long since wrapped
// past them. Recording is a mutex-guarded copy of a few small strings —
// cheap next to a queue hop — and is independent of Tracer state.
#ifndef SRC_OBS_SPAN_RING_H_
#define SRC_OBS_SPAN_RING_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfiface::obs {

class SpanRing {
 public:
  struct Entry {
    const char* cat = "";   // static string (layer name)
    const char* name = "";  // static string (span name)
    std::string trace_id;
    std::string detail;  // free-form: "interface status", request counts, ...
    std::uint64_t start_ns = 0;  // since process SpanRing epoch
    std::uint64_t dur_ns = 0;
  };

  static constexpr std::size_t kRingCapacity = 256;
  static constexpr std::size_t kSlowCapacity = 16;

  static SpanRing& Global();

  // Nanoseconds since the ring's (process-lifetime) epoch; callers stamp
  // Entry::start_ns with this so /tracez timestamps share one clock.
  std::uint64_t NowNs() const;

  // Copies `entry` into the oldest slot, assigning into the slot's own
  // strings, so a warm ring records without allocating.
  void Record(const Entry& entry);

  // Oldest-to-newest snapshot of the ring (up to `max` newest entries).
  std::vector<Entry> Recent(std::size_t max = kRingCapacity) const;
  // The slowest requests since process start, sorted by descending dur_ns.
  std::vector<Entry> Slowest() const;

  std::uint64_t total_recorded() const;

  // {"recorded_total":N,"recent":[...],"slowest":[...]} — the /tracez body.
  std::string DumpJson(std::size_t max_recent = 64) const;

 private:
  SpanRing();

  mutable std::mutex mu_;
  std::vector<Entry> ring_;   // size kRingCapacity once warm
  std::size_t next_ = 0;      // ring write cursor
  std::vector<Entry> slow_;   // kept sorted by descending dur_ns
  std::uint64_t total_ = 0;
  std::uint64_t epoch_ns_ = 0;  // steady_clock at construction
};

}  // namespace perfiface::obs

#endif  // SRC_OBS_SPAN_RING_H_
