#include "src/obs/span_ring.h"

#include <algorithm>
#include <chrono>
#include <iterator>

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
}

std::uint64_t SpanRing::NowNs() {
  const auto steady_ns = [] {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
  };
  static const std::uint64_t epoch = steady_ns();
  return steady_ns() - epoch;
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

std::string DumpSpanRingsJson(std::span<const SpanRing* const> rings, std::size_t max_recent) {
  std::uint64_t total = 0;
  std::vector<SpanRing::Entry> recent;
  std::vector<SpanRing::Entry> slowest;
  for (const SpanRing* ring : rings) {
    total += ring->total_recorded();
    // Each ring's newest max_recent hold every entry of the merged newest.
    std::vector<SpanRing::Entry> r = ring->Recent(max_recent);
    recent.insert(recent.end(), std::make_move_iterator(r.begin()),
                  std::make_move_iterator(r.end()));
    std::vector<SpanRing::Entry> s = ring->Slowest();
    slowest.insert(slowest.end(), std::make_move_iterator(s.begin()),
                   std::make_move_iterator(s.end()));
  }
  std::stable_sort(recent.begin(), recent.end(),
                   [](const SpanRing::Entry& a, const SpanRing::Entry& b) {
                     return a.start_ns + a.dur_ns < b.start_ns + b.dur_ns;
                   });
  if (recent.size() > max_recent) {
    recent.erase(recent.begin(), recent.end() - static_cast<std::ptrdiff_t>(max_recent));
  }
  std::stable_sort(slowest.begin(), slowest.end(),
                   [](const SpanRing::Entry& a, const SpanRing::Entry& b) {
                     return a.dur_ns > b.dur_ns;
                   });
  if (slowest.size() > SpanRing::kSlowCapacity) {
    slowest.resize(SpanRing::kSlowCapacity);
  }

  std::string out =
      StrFormat("{\"recorded_total\":%llu,\"recent\":[", static_cast<unsigned long long>(total));
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
