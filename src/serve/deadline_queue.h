// Deadline-bucketed bounded MPMC queue for the worker pool.
//
// An EDF approximation: items are classified at enqueue into a small set
// of slack bands by remaining deadline, each band is FIFO, and Pop always
// drains the most urgent non-empty band. Within a band, earlier-enqueued
// items tend to have earlier deadlines, so band-FIFO tracks true EDF
// closely while keeping Push/Pop O(1) — no heap, no per-item comparator
// under the lock. Items without a deadline land in the least urgent band
// so background traffic never delays SLO-bound requests.
//
// Bounded and blocking: one total capacity shared across bands, Push blocks
// while full (TryPush fails instead), Pop blocks while empty. Close wakes
// every waiter and rejects later pushes, but Pop keeps draining accepted
// items — most urgent band first, FIFO within a band — so shutdown never
// drops accepted work. A mutex and two condition variables: simple, clean
// under ThreadSanitizer, and not the bottleneck, since producers enqueue
// request chunks.
#ifndef SRC_SERVE_DEADLINE_QUEUE_H_
#define SRC_SERVE_DEADLINE_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace perfiface::serve {

// Slack bands, most urgent first. Kept small: classification is a couple
// of compares, and the metrics layer labels queue-wait histograms by band.
enum class DeadlineBucket : std::uint8_t {
  kLt1ms = 0,    // remaining deadline < 1 ms
  kLt10ms = 1,   // < 10 ms
  kLt100ms = 2,  // < 100 ms
  kGte100ms = 3, // >= 100 ms
  kNone = 4,     // no deadline: background band
};

inline constexpr std::size_t kDeadlineBucketCount = 5;

inline const char* DeadlineBucketName(DeadlineBucket bucket) {
  switch (bucket) {
    case DeadlineBucket::kLt1ms:
      return "lt1ms";
    case DeadlineBucket::kLt10ms:
      return "lt10ms";
    case DeadlineBucket::kLt100ms:
      return "lt100ms";
    case DeadlineBucket::kGte100ms:
      return "gte100ms";
    case DeadlineBucket::kNone:
      return "none";
  }
  return "none";
}

// Classifies a remaining deadline (microseconds; <= 0 means none) into its
// slack band.
inline DeadlineBucket ClassifyDeadline(std::int64_t remaining_us) {
  if (remaining_us <= 0) {
    return DeadlineBucket::kNone;
  }
  if (remaining_us < 1'000) {
    return DeadlineBucket::kLt1ms;
  }
  if (remaining_us < 10'000) {
    return DeadlineBucket::kLt10ms;
  }
  if (remaining_us < 100'000) {
    return DeadlineBucket::kLt100ms;
  }
  return DeadlineBucket::kGte100ms;
}

template <typename T>
class DeadlineQueue {
 public:
  explicit DeadlineQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  // Blocks while full. Returns false (item dropped) if the queue is closed.
  bool Push(T item, DeadlineBucket bucket) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] { return closed_ || size_ < capacity_; });
    if (closed_) {
      return false;
    }
    bands_[static_cast<std::size_t>(bucket)].push_back(std::move(item));
    ++size_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  // Non-blocking push; false if full or closed.
  bool TryPush(T item, DeadlineBucket bucket) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || size_ >= capacity_) {
        return false;
      }
      bands_[static_cast<std::size_t>(bucket)].push_back(std::move(item));
      ++size_;
    }
    not_empty_.notify_one();
    return true;
  }

  // Blocks while empty; takes the front of the most urgent non-empty band.
  // Returns false only when closed *and* drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || size_ > 0; });
    if (size_ == 0) {
      return false;
    }
    for (std::deque<T>& band : bands_) {
      if (!band.empty()) {
        *out = std::move(band.front());
        band.pop_front();
        --size_;
        break;
      }
    }
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> bands_[kDeadlineBucketCount];
  std::size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace perfiface::serve

#endif  // SRC_SERVE_DEADLINE_QUEUE_H_
