// NetServer: the TCP front end of the prediction service.
//
// One listener, one port, two protocols told apart by the first byte of a
// connection:
//  - '{' — newline-delimited JSON (src/net/wire.h): the client pipelines
//    request frames and the server streams response lines back through the
//    async SubmitBatch path, tagged with the client's frame id, one socket
//    write per worker chunk. One connection can keep many batches in
//    flight.
//  - anything else — HTTP/1.1, one request per connection: GET /metrics
//    (the service's Prometheus scrape, then this server's network
//    families),
//    GET /healthz, POST /predict (a request frame in the body, response
//    lines in the body back).
//
// Robustness contract (docs/serving.md "Wire protocol"):
//  - per-connection read/write timeouts (a stalled peer cannot pin a
//    thread or buffer forever; a write timeout marks the connection dead),
//  - a max-connections cap (excess accepts are closed immediately),
//  - a max frame size (an oversized frame earns one error line and the
//    stream resynchronizes at the next newline),
//  - backpressure: more than max_inflight_batches unanswered frames on one
//    connection earns per-request REJECTED lines instead of buffering,
//  - malformed frames earn an error line and never kill the connection,
//  - Stop() drains: in-flight batches finish and their responses flush
//    before the connection threads are joined.
//
// Thread-safety: Start/Stop/port/open_connections/counts are safe from any
// thread. The server never outlives the PredictionService it fronts; call
// Stop() before shutting the service down.
#ifndef SRC_NET_SERVER_H_
#define SRC_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/obs/span_ring.h"
#include "src/serve/service.h"

namespace perfiface::net {

// The request line and body length of one HTTP/1.1 request head.
struct HttpHead {
  int status = 0;  // 0: well formed; else the status to answer (400 or 413)
  std::string method;
  std::string path;
  std::size_t content_length = 0;
};

// Parses `head`, the bytes before the blank line that ends an HTTP/1.1
// header block (NetServer answers 431 before one grows past its frame
// limit). The request line is METHOD SP PATH SP VERSION; fewer than two
// spaces is 400. Content-Length (any case) must be digits between optional
// whitespace, else 400; above `max_body_bytes` it is 413, and repeated
// with a different value it is 400. No header means no body.
HttpHead ParseHttpHead(std::string_view head, std::size_t max_body_bytes);

// One server's traffic since construction: the perfiface_net_* counters
// GET /metrics renders (docs/observability.md "Pull endpoint").
struct NetCounts {
  std::uint64_t connections = 0;           // accepted, rejected ones included
  std::uint64_t connections_rejected = 0;  // closed at once: max_connections
  std::uint64_t bytes_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t writes = 0;  // send() calls
  std::uint64_t frames_malformed = 0;
  std::uint64_t batches_rejected = 0;  // frames past the pipelining window
};

struct NetServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the bound port with port()
  // Accepted connections beyond this are closed immediately (counted in
  // perfiface_net_connections_rejected_total).
  std::size_t max_connections = 64;
  // Frames (and HTTP requests) longer than this earn an error and are
  // discarded without buffering.
  std::size_t max_frame_bytes = 1 << 20;
  // Per-connection pipelining window: unanswered frames beyond this earn
  // REJECTED response lines instead of entering the service queue.
  std::size_t max_inflight_batches = 32;
  // Requests per frame; larger frames are answered with an error line.
  std::size_t max_batch_requests = 1024;
  // Read timeout when a connection is idle (no batches in flight) and
  // write timeout for response lines. A connection with batches in flight
  // is never idle-closed — its reader waits for the responses to flush.
  int io_timeout_ms = 30'000;
};

class NetServer {
 public:
  // The service must outlive the server (Stop() before service Shutdown()).
  explicit NetServer(serve::PredictionService* service, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens, and starts the accept loop. False (with *error set) if
  // the address cannot be bound; the server is then inert.
  bool Start(std::string* error);

  // The bound port (useful with options.port == 0). 0 before Start.
  std::uint16_t port() const { return port_; }

  // Graceful shutdown: stop accepting, half-close every connection, let
  // in-flight batches finish and flush, join every thread. Idempotent.
  void Stop();

  std::size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

  NetCounts counts() const;

 private:
  struct Connection;

  // One NDJSON frame's requests, lent to the service while it is answered.
  struct Frame {
    Connection* conn = nullptr;
    std::vector<serve::PredictRequest> requests;
    // Requests whose response lines are not written yet.
    std::atomic<std::size_t> unanswered{0};
  };

  // One accepted connection; owned by conns_. Its thread drains every
  // batch it submitted before exiting, so response callbacks never outlive
  // it.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};  // thread done; reapable

    // Serializes writes: chunk flushes from worker callbacks and the
    // reader's error and REJECTED lines. Held only for the send itself.
    std::mutex write_mu;
    // Set when a write times out or fails: subsequent writes become
    // no-ops that drop their lines, so stuck peers cannot stall the worker
    // pool.
    std::atomic<bool> dead{false};

    // Batches submitted but not yet fully answered on this connection.
    std::mutex inflight_mu;
    std::condition_variable inflight_cv;
    std::size_t inflight = 0;
    // Each frame decodes into a Frame taken from here (or a new one) and
    // lends its requests to the service; the on_flush that answers the
    // frame's last request puts it back (ReturnFrame). They die with the
    // connection.
    std::vector<std::unique_ptr<Frame>> spare_frames;
  };

  void AcceptLoop();
  void HandleConnection(const std::shared_ptr<Connection>& conn);
  void ServeNdjson(const std::shared_ptr<Connection>& conn);
  void ServeHttp(const std::shared_ptr<Connection>& conn);
  // Writes all of `data`, respecting io_timeout_ms per poll; on failure
  // marks the connection dead and half-closes it so the reader unblocks.
  void TimedWrite(Connection* conn, std::string_view data);
  // Puts a frame back among its connection's spares, counting the frame
  // answered when its requests were lent to the service. It is kept only
  // while the spares number fewer than max_inflight_batches and its
  // storage is at most max_frame_bytes, so one connection's spares hold at
  // most a full window of frames; otherwise it is freed.
  void ReturnFrame(std::unique_ptr<Frame> frame, bool lent);
  // Blocks until every batch submitted on this connection has resolved.
  static void DrainInflight(Connection* conn);
  void ReapFinished(bool all);
  // The perfiface_net_* families: counts() and the open-connections gauge.
  void AppendPrometheus(std::string* out) const;

  static void Add(std::atomic<std::uint64_t>& counter, std::uint64_t delta) {
    counter.fetch_add(delta, std::memory_order_relaxed);
  }

  serve::PredictionService* service_;
  NetServerOptions options_;

  int listen_fd_ = -1;
  std::atomic<std::uint16_t> port_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::mutex stop_mu_;
  bool stopped_ = false;  // guarded by stop_mu_
  std::thread accept_thread_;

  std::mutex conns_mu_;
  std::list<std::shared_ptr<Connection>> conns_;
  std::atomic<std::size_t> open_connections_{0};
  // The /tracez entries of accepted NDJSON frames, one per frame.
  obs::SpanRing frame_ring_;

  // NetCounts, by writer: the accept and connection threads count
  // connections, received bytes and refused frames; TimedWrite, mostly on
  // the workers' chunk flushes, counts sends on a cache line of its own.
  alignas(64) std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> connections_rejected_{0};
  std::atomic<std::uint64_t> bytes_rx_{0};
  std::atomic<std::uint64_t> frames_malformed_{0};
  std::atomic<std::uint64_t> batches_rejected_{0};
  alignas(64) std::atomic<std::uint64_t> bytes_tx_{0};
  std::atomic<std::uint64_t> writes_{0};
};

}  // namespace perfiface::net

#endif  // SRC_NET_SERVER_H_
