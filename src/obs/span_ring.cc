#include "src/obs/span_ring.h"

#include <algorithm>
#include <chrono>

#include "src/common/strings.h"

namespace perfiface::obs {

namespace {

void AppendEntryJson(std::string* out, const SpanRing::Entry& e) {
  *out += "{\"cat\":";
  AppendJsonString(out, e.cat);
  *out += ",\"name\":";
  AppendJsonString(out, e.name);
  *out += ",\"trace_id\":";
  AppendJsonString(out, e.trace_id);
  *out += ",\"detail\":";
  AppendJsonString(out, e.detail);
  *out += StrFormat(",\"start_us\":%.3f,\"dur_us\":%.3f}",
                    static_cast<double>(e.start_ns) / 1e3, static_cast<double>(e.dur_ns) / 1e3);
}

}  // namespace

SpanRing::SpanRing() {
  ring_.reserve(kRingCapacity);
  slow_.reserve(kSlowCapacity + 1);
  epoch_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanRing& SpanRing::Global() {
  static SpanRing* ring = new SpanRing();  // never destroyed: recorders may
  return *ring;                            // outlive static destruction order
}

std::uint64_t SpanRing::NowNs() const {
  const std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch_ns_;
}

void SpanRing::Record(const Entry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (slow_.size() < kSlowCapacity || entry.dur_ns > slow_.back().dur_ns) {
    const auto pos = std::upper_bound(
        slow_.begin(), slow_.end(), entry,
        [](const Entry& a, const Entry& b) { return a.dur_ns > b.dur_ns; });
    if (slow_.size() < kSlowCapacity) {
      slow_.insert(pos, entry);
    } else {
      // The outlier it displaces lends its storage.
      slow_.back() = entry;
      std::rotate(pos, slow_.end() - 1, slow_.end());
    }
  }
  if (ring_.size() < kRingCapacity) {
    ring_.push_back(entry);
  } else {
    ring_[next_] = entry;
  }
  next_ = (next_ + 1) % kRingCapacity;
}

std::vector<SpanRing::Entry> SpanRing::Recent(std::size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  const std::size_t n = std::min(max, ring_.size());
  out.reserve(n);
  // Oldest-to-newest: walk forward from the write cursor (when warm) or
  // from index 0 (while still filling).
  const std::size_t start = ring_.size() < kRingCapacity ? ring_.size() - n
                                                         : (next_ + kRingCapacity - n) % kRingCapacity;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<SpanRing::Entry> SpanRing::Slowest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slow_;
}

std::uint64_t SpanRing::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::string SpanRing::DumpJson(std::size_t max_recent) const {
  const std::vector<Entry> recent = Recent(max_recent);
  const std::vector<Entry> slowest = Slowest();
  std::string out = StrFormat("{\"recorded_total\":%llu,\"recent\":[",
                              static_cast<unsigned long long>(total_recorded()));
  for (std::size_t i = 0; i < recent.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    AppendEntryJson(&out, recent[i]);
  }
  out += "],\"slowest\":[";
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    AppendEntryJson(&out, slowest[i]);
  }
  out += "]}";
  return out;
}

}  // namespace perfiface::obs
