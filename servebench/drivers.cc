// Load drivers: the in-process closed loop, the wire closed loop and the
// wire open loop, plus the per-phase tally they record into.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "servebench/bench.h"
#include "src/net/wire.h"

namespace servebench {

void Fatal(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

void Tally::Record(std::uint64_t index, const PredictResponse& response, std::int64_t sent_ns,
                   std::int64_t done_ns, const char* layer) {
  ++answered;
  ++statuses[perfiface::serve::PredictStatusName(response.status)];
  const std::int64_t round_trip = done_ns - sent_ns;
  if (response.ok()) {
    ++ok;
    latency.Record(round_trip);
    if (deadline_ns == 0 || round_trip <= deadline_ns) {
      ++deadline_met;
    }
    Sample(Mix(sample_seed, index), index, response.value);
  }
  const perfiface::serve::ExplainInfo& ex = response.explain;
  if (!ex.filled) {
    return;
  }
  const auto queue_ns = static_cast<std::int64_t>(ex.queue_wait_ns);
  const auto eval_ns = static_cast<std::int64_t>(ex.eval_ns);
  queue_wait.Record(queue_ns);
  eval_by_rep[ex.representation].Record(eval_ns);
  client_self.Record(round_trip - queue_ns - eval_ns);
  if (ex.representation.rfind("pnet", 0) == 0) {
    ++pnet_evals;
  }
  if (ex.shadowed) {
    shadowed.push_back(index);
  }
  if (spans != nullptr && span_budget > 0) {
    --span_budget;
    char args[256];
    std::snprintf(args, sizeof(args),
                  "{\"index\":%llu,\"status\":\"%s\",\"representation\":\"%s\",\"cache\":\"%s\","
                  "\"queue_wait_us\":%.3f,\"eval_us\":%.3f,\"self_us\":%.3f}",
                  static_cast<unsigned long long>(index),
                  perfiface::serve::PredictStatusName(response.status),
                  ex.representation.c_str(), ex.cache.c_str(), static_cast<double>(queue_ns) / 1e3,
                  static_cast<double>(eval_ns) / 1e3,
                  static_cast<double>(round_trip - queue_ns - eval_ns) / 1e3);
    spans->Add(layer, std::string(layer) + ".request", sent_ns, round_trip, args);
  }
}

void Tally::Sample(std::uint64_t hash, std::uint64_t index, double value) {
  if (value_sample.size() == kValueSample && hash >= value_sample.front().first) {
    return;
  }
  if (value_sample.size() == kValueSample) {
    std::pop_heap(value_sample.begin(), value_sample.end());
    value_sample.pop_back();
  }
  value_sample.push_back({hash, {index, value}});
  std::push_heap(value_sample.begin(), value_sample.end());
}

void Tally::Merge(const Tally& other) {
  sent += other.sent;
  answered += other.answered;
  ok += other.ok;
  deadline_met += other.deadline_met;
  for (const auto& [status, n] : other.statuses) {
    statuses[status] += n;
  }
  latency.Merge(other.latency);
  lateness.Merge(other.lateness);
  queue_wait.Merge(other.queue_wait);
  for (const auto& [rep, h] : other.eval_by_rep) {
    eval_by_rep[rep].Merge(h);
  }
  client_self.Merge(other.client_self);
  pnet_evals += other.pnet_evals;
  shadowed.insert(shadowed.end(), other.shadowed.begin(), other.shadowed.end());
  for (const auto& [hash, sample] : other.value_sample) {
    Sample(hash, sample.first, sample.second);
  }
}

namespace {

using perfiface::net::WireResponse;

// How long the server may send nothing before a run is abandoned.
constexpr int kStallTimeoutMs = 30'000;

// The untraced closed loop decodes ~100k lines a second on one thread, and
// the full JSON decoder alone would make the load thread the busiest thread
// of the run. OK lines without `explain` only need four fields of the
// documented response line (docs/serving.md "Wire protocol"), read here;
// every other line goes through DecodeResponseLine. Keys are matched with
// their opening quote, so "trace_id" and escaped text inside strings
// cannot match.
bool DecodeOkLine(const std::string& line, WireResponse* out) {
  const auto after = [&line](std::string_view key) -> const char* {
    const std::size_t at = line.find(key);
    return at == std::string::npos ? nullptr : line.c_str() + at + key.size();
  };
  const char* id = after("\"id\":");
  const char* index = after("\"index\":");
  const char* status = after("\"status\":\"OK\"");
  const char* value = after("\"value\":");
  if (id == nullptr || index == nullptr || status == nullptr || value == nullptr ||
      line.find("\"explain\"") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  *out = WireResponse();
  out->id = std::strtoull(id, &end, 10);
  out->index = std::strtoull(index, &end, 10);
  out->response.status = perfiface::serve::PredictStatus::kOk;
  out->response.value = std::strtod(value, &end);
  return end != value;
}

// One NDJSON connection driven from a single thread: sends never block
// (bytes the socket refuses wait in out_), and Pump hands every complete
// response line to the caller with the time it was read.
class WireConn {
 public:
  explicit WireConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      Fatal(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~WireConn() { ::close(fd_); }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  void Send(std::string_view bytes) {
    out_.append(bytes);
    Flush();
  }

  // Waits up to timeout_ms (0: not at all) for the socket, then reads what
  // is there.
  template <class OnResponse>
  void Pump(int timeout_ms, OnResponse&& on_response) {
    if (timeout_ms != 0) {
      pollfd pfd{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc == 0 && timeout_ms >= kStallTimeoutMs) {
        Fatal("no answer from the server within the stall timeout");
      }
    }
    Flush();
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        reader_.Append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {
        Fatal("server closed the connection");
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      Fatal(std::string("recv: ") + std::strerror(errno));
    }
    const std::int64_t now = NowNs();
    for (;;) {
      const auto next = reader_.Pop(&line_);
      if (next == perfiface::net::FrameReader::Next::kNeedMore) {
        break;
      }
      std::string error;
      if (next == perfiface::net::FrameReader::Next::kOversized ||
          (!DecodeOkLine(line_, &wire_) &&
           (!perfiface::net::DecodeResponseLine(line_, &wire_, &error) || wire_.malformed))) {
        Fatal("bad response line: " + (error.empty() ? wire_.response.error : error));
      }
      on_response(wire_, now);
    }
  }

 private:
  void Flush() {
    while (!out_.empty()) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        out_.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      Fatal(std::string("send: ") + std::strerror(errno));
    }
  }

  int fd_ = -1;
  std::string out_;
  perfiface::net::FrameReader reader_{1 << 20};
  std::string line_;
  WireResponse wire_;
};

class InProcessDriver : public Driver {
 public:
  InProcessDriver(perfiface::serve::PredictionService* service, QueryStream* stream)
      : service_(service), stream_(stream) {}

  void RunPhase(Tally* tally, double seconds, bool explain) override {
    const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
    for (;;) {
      while (flights_.size() < kInflight) {
        if (NowNs() >= end) {
          return;
        }
        Submit(tally, explain);
      }
      CompleteFront();
    }
  }

  void Finish() override {
    while (!flights_.empty()) {
      CompleteFront();
    }
  }

 private:
  static constexpr std::size_t kBatch = 128;
  static constexpr std::size_t kInflight = 2;

  struct Flight {
    perfiface::serve::PredictionService::BatchHandle handle;
    Tally* tally = nullptr;
    std::uint64_t first = 0;
    std::int64_t sent_ns = 0;
    std::vector<std::int64_t> done_ns;  // written by the completion callback
  };

  void Submit(Tally* tally, bool explain) {
    auto flight = std::make_unique<Flight>();
    flight->tally = tally;
    flight->first = stream_->next_index();
    flight->done_ns.assign(kBatch, 0);
    std::vector<PredictRequest> batch;
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(stream_->Next());
      batch.back().explain = explain;
    }
    tally->sent += kBatch;
    std::int64_t* done = flight->done_ns.data();
    flight->sent_ns = NowNs();
    flight->handle = service_->SubmitBatch(
        std::move(batch), [done](std::size_t i, const PredictResponse&) { done[i] = NowNs(); });
    flights_.push_back(std::move(flight));
  }

  void CompleteFront() {
    const Flight& f = *flights_.front();
    // Responses() waits; every completion callback has returned after it.
    const std::vector<PredictResponse>& responses = f.handle.Responses();
    for (std::size_t i = 0; i < responses.size(); ++i) {
      Count(responses[i]);
      f.tally->Record(f.first + i, responses[i], f.sent_ns, f.done_ns[i], "serve");
    }
    flights_.pop_front();
  }

  perfiface::serve::PredictionService* service_;
  QueryStream* stream_;
  std::deque<std::unique_ptr<Flight>> flights_;
};

class WireClosedDriver : public Driver {
 public:
  WireClosedDriver(std::uint16_t port, QueryStream* stream) : conn_(port), stream_(stream) {}

  void RunPhase(Tally* tally, double seconds, bool explain) override {
    const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
    for (;;) {
      while (frames_.size() < kInflight) {
        if (NowNs() >= end) {
          return;
        }
        SendFrame(tally, explain);
      }
      PumpOnce();
    }
  }

  void Finish() override {
    while (!frames_.empty()) {
      PumpOnce();
    }
  }

 private:
  static constexpr std::size_t kFrame = 32;
  static constexpr std::size_t kInflight = 8;

  struct Frame {
    Tally* tally = nullptr;
    std::uint64_t first = 0;
    std::int64_t sent_ns = 0;
    std::size_t remaining = 0;
  };

  void SendFrame(Tally* tally, bool explain) {
    Frame frame{tally, stream_->next_index(), 0, kFrame};
    std::vector<PredictRequest> requests;
    requests.reserve(kFrame);
    for (std::size_t i = 0; i < kFrame; ++i) {
      requests.push_back(stream_->Next());
      requests.back().explain = explain;
    }
    tally->sent += kFrame;
    const std::uint64_t id = next_id_++;
    buf_.clear();
    perfiface::net::EncodeRequestFrame(id, requests, &buf_);
    frame.sent_ns = NowNs();
    frames_.emplace(id, frame);
    conn_.Send(buf_);
  }

  void PumpOnce() {
    conn_.Pump(kStallTimeoutMs, [this](const WireResponse& wire, std::int64_t now) {
      const auto it = frames_.find(wire.id);
      if (it == frames_.end()) {
        Fatal("answer for an unknown frame id");
      }
      Frame& frame = it->second;
      Count(wire.response);
      frame.tally->Record(frame.first + wire.index, wire.response, frame.sent_ns, now, "net");
      if (--frame.remaining == 0) {
        frames_.erase(it);
      }
    });
  }

  WireConn conn_;
  QueryStream* stream_;
  std::unordered_map<std::uint64_t, Frame> frames_;
  std::uint64_t next_id_ = 1;
  std::string buf_;
};

class WireOpenDriver : public Driver {
 public:
  WireOpenDriver(std::uint16_t port, QueryStream* stream) : conn_(port), stream_(stream) {}

  void RunPhase(Tally* tally, double seconds, bool explain) override {
    const auto interval_ns = static_cast<std::int64_t>(1e9 / kOnlineRate);
    if (next_send_ns_ == 0) {
      next_send_ns_ = NowNs();
    }
    const auto sends = static_cast<std::uint64_t>(std::llround(seconds * kOnlineRate));
    const auto drain = [this](const WireResponse& wire, std::int64_t now) {
      OnResponse(wire, now);
    };
    for (std::uint64_t k = 0; k < sends; ++k) {
      const std::int64_t due = next_send_ns_;
      next_send_ns_ += interval_ns;
      while (NowNs() < due) {
        conn_.Pump(0, drain);
      }
      const std::uint64_t id = next_id_++;
      PredictRequest request = stream_->Next();
      request.explain = explain;
      pending_.emplace(id, Pending{tally, due, stream_->next_index() - 1});
      ++tally->sent;
      buf_.clear();
      perfiface::net::EncodeRequestFrame(id, {request}, &buf_);
      tally->lateness.Record(NowNs() - due);
      conn_.Send(buf_);
    }
  }

  void Finish() override {
    const std::int64_t give_up = NowNs() + static_cast<std::int64_t>(kStallTimeoutMs) * 1'000'000;
    while (!pending_.empty() && NowNs() < give_up) {
      conn_.Pump(100,
                 [this](const WireResponse& wire, std::int64_t now) { OnResponse(wire, now); });
    }
  }

 private:
  struct Pending {
    Tally* tally = nullptr;
    std::int64_t due_ns = 0;
    std::uint64_t index = 0;
  };

  void OnResponse(const WireResponse& wire, std::int64_t now) {
    const auto it = pending_.find(wire.id);
    if (it == pending_.end()) {
      Fatal("answer for an unknown frame id");
    }
    const Pending& p = it->second;
    Count(wire.response);
    // Timed from the scheduled send: a stall delays every later request too.
    p.tally->Record(p.index, wire.response, p.due_ns, now, "net");
    pending_.erase(it);
  }

  WireConn conn_;
  QueryStream* stream_;
  std::unordered_map<std::uint64_t, Pending> pending_;  // by frame id
  std::uint64_t next_id_ = 1;
  std::int64_t next_send_ns_ = 0;
  std::string buf_;
};

}  // namespace

std::unique_ptr<Driver> MakeInProcessDriver(perfiface::serve::PredictionService* service,
                                            QueryStream* stream) {
  return std::make_unique<InProcessDriver>(service, stream);
}

std::unique_ptr<Driver> MakeWireClosedDriver(std::uint16_t port, QueryStream* stream) {
  return std::make_unique<WireClosedDriver>(port, stream);
}

std::unique_ptr<Driver> MakeWireOpenDriver(std::uint16_t port, QueryStream* stream) {
  return std::make_unique<WireOpenDriver>(port, stream);
}

void PrewarmOverWire(std::uint16_t port, const QueryStream& stream) {
  constexpr std::uint64_t kFrame = 32;
  WireConn conn(port);
  std::uint64_t answered = 0;
  for (std::uint64_t first = 0; first < stream.population(); first += kFrame) {
    std::vector<PredictRequest> frame;
    for (std::uint64_t rank = first; rank < std::min(first + kFrame, stream.population()); ++rank) {
      frame.push_back(stream.PopulationQuery(rank));
    }
    std::string buf;
    perfiface::net::EncodeRequestFrame(first, frame, &buf);
    conn.Send(buf);
    while (answered < first + frame.size()) {
      conn.Pump(kStallTimeoutMs, [&answered](const WireResponse& wire, std::int64_t) {
        if (!wire.response.ok()) {
          Fatal("pre-warm query failed: " + wire.response.error);
        }
        ++answered;
      });
    }
  }
}

}  // namespace servebench
