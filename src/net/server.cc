#include "src/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <vector>

#include "src/common/strings.h"
#include "src/net/wire.h"
#include "src/obs/exposition.h"
#include "src/obs/span_ring.h"
#include "src/obs/trace.h"

namespace perfiface::net {

namespace {

// True if `header` names `name` (HTTP header names are case-insensitive).
bool HeaderNameIs(std::string_view header, std::string_view name) {
  if (header.size() < name.size() + 1 || header[name.size()] != ':') {
    return false;
  }
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(header[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return true;
}

// Every request entering the service carries a trace_id from here on:
// client-supplied ids pass through untouched, the rest are minted at the
// network edge, into the request's own string, so queue flow events and
// response lines share one id. `ids` is the connection's own block.
void FillTraceIds(std::vector<serve::PredictRequest>* requests, serve::TraceIdBlock* ids) {
  for (serve::PredictRequest& request : *requests) {
    if (request.trace_id.empty()) {
      serve::GenerateTraceId(&request.trace_id, ids);
    }
  }
}

// Response lines of the chunk this thread is running: the completion
// callback encodes into it and the flush callback sends it in one write.
// The service runs a chunk's completions and its flush on one thread with
// no other callback between them, so lines of different chunks (or
// connections) never mix here.
thread_local std::string chunk_lines;

std::string HttpResponse(int status, const char* reason, const char* content_type,
                         std::string_view body) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", status, reason);
  out += StrFormat("Content-Type: %s\r\n", content_type);
  out += StrFormat("Content-Length: %zu\r\n", body.size());
  out += "Connection: close\r\n\r\n";
  out.append(body);
  return out;
}

}  // namespace

HttpHead ParseHttpHead(std::string_view head, std::size_t max_body_bytes) {
  const auto refuse = [](int status) {
    HttpHead refused;
    refused.status = status;
    return refused;
  };
  const std::size_t line_end = std::min(head.find("\r\n"), head.size());
  const std::string_view request_line = head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) {
    return refuse(400);
  }
  HttpHead out;
  out.method = request_line.substr(0, sp1);
  out.path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  bool has_length = false;
  for (const std::string& line : SplitString(head.substr(line_end), '\n')) {
    const std::string_view header = StripWhitespace(line);
    if (!HeaderNameIs(header, "content-length")) {
      continue;
    }
    const std::string_view value = StripWhitespace(header.substr(header.find(':') + 1));
    const char* end = value.data() + value.size();
    std::uint64_t length = 0;
    const auto [ptr, ec] = std::from_chars(value.data(), end, length);
    if (ptr != end || ec == std::errc::invalid_argument) {
      return refuse(400);  // not all decimal digits
    }
    if (ec == std::errc::result_out_of_range || length > max_body_bytes) {
      return refuse(413);
    }
    if (has_length && length != out.content_length) {
      return refuse(400);  // which body length to trust is ambiguous
    }
    has_length = true;
    out.content_length = static_cast<std::size_t>(length);
  }
  return out;
}

NetServer::NetServer(serve::PredictionService* service, NetServerOptions options)
    : service_(service), options_(std::move(options)) {}

NetServer::~NetServer() { Stop(); }

bool NetServer::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = StrFormat("socket: %s", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    *error = StrFormat("bad listen address '%s'", options_.host.c_str());
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = StrFormat("bind %s:%u: %s", options_.host.c_str(),
                       static_cast<unsigned>(options_.port), std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    *error = StrFormat("listen: %s", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0) {
    port_.store(ntohs(bound.sin_port), std::memory_order_relaxed);
  }
  started_.store(true, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void NetServer::AcceptLoop() {
  for (;;) {
    // The timeout paces the reaping of finished connections; Stop() ends
    // the wait by shutting the listening socket down.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (stopping_.load(std::memory_order_relaxed)) {
      return;
    }
    ReapFinished(/*all=*/false);
    if (pr <= 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    obs::SpanGuard accept_span("net", "accept");
    Add(connections_, 1);
    if (open_connections_.load(std::memory_order_relaxed) >= options_.max_connections) {
      // Cap exceeded: refuse now instead of queueing work the pool cannot
      // keep up with. The peer sees a clean close.
      Add(connections_rejected_, 1);
      if (accept_span.active()) {
        accept_span.SetArg("rejected", 1.0);
      }
      ::close(fd);
      continue;
    }
    // Responses must hit the wire promptly: predictions are latency-bound
    // and lines are small, so Nagle only adds delay.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Write timeout: send() blocks at most this long, so a peer that stops
    // reading cannot pin a worker (the write marks the connection dead).
    timeval tv{};
    tv.tv_sec = options_.io_timeout_ms / 1000;
    tv.tv_usec = (options_.io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    conn->thread = std::thread([this, conn] {
      HandleConnection(conn);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      conn->finished.store(true, std::memory_order_release);
    });
  }
}

void NetServer::ReapFinished(bool all) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = **it;
    if (!all && !conn.finished.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    if (conn.thread.joinable()) {
      conn.thread.join();
    }
    // The thread drained its in-flight batches before exiting, so no
    // callback can still be writing to this fd.
    ::close(conn.fd);
    it = conns_.erase(it);
  }
}

void NetServer::Stop() {
  // Serialize concurrent Stop calls: the first does the work, later ones
  // block until it finishes and then return (fully stopped either way).
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!started_.load(std::memory_order_relaxed) || stopped_) {
    return;
  }
  stopped_ = true;
  stopping_.store(true, std::memory_order_relaxed);
  // On Linux this wakes the accept loop's poll at once (POLLHUP).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  {
    // Half-close every connection: readers see EOF, drain their in-flight
    // batches (responses still flow — only the read side is shut), and
    // exit.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const std::shared_ptr<Connection>& conn : conns_) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
  ReapFinished(/*all=*/true);
  ::close(listen_fd_);
  listen_fd_ = -1;
}

NetCounts NetServer::counts() const {
  const auto read = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  return NetCounts{read(connections_), read(connections_rejected_), read(bytes_rx_),
                   read(bytes_tx_), read(writes_), read(frames_malformed_),
                   read(batches_rejected_)};
}

void NetServer::AppendPrometheus(std::string* out) const {
  const NetCounts c = counts();
  obs::AppendCounter(out, "perfiface_net_connections_total",
                     "Client connections accepted by the TCP front end", c.connections);
  obs::AppendCounter(out, "perfiface_net_connections_rejected_total",
                     "Connections closed immediately because max_connections was reached",
                     c.connections_rejected);
  obs::AppendCounter(out, "perfiface_net_bytes_rx_total", "Bytes received by the TCP front end",
                     c.bytes_rx);
  obs::AppendCounter(out, "perfiface_net_bytes_tx_total", "Bytes sent by the TCP front end",
                     c.bytes_tx);
  obs::AppendCounter(out, "perfiface_net_writes_total",
                     "Socket send() calls made by the TCP front end", c.writes);
  obs::AppendCounter(out, "perfiface_net_frames_malformed_total",
                     "Request frames rejected as malformed or oversized", c.frames_malformed);
  obs::AppendCounter(
      out, "perfiface_net_batches_rejected_total",
      "Frames answered with REJECTED lines because the connection's pipelining window was full",
      c.batches_rejected);
  obs::AppendGauge(out, "perfiface_net_open_connections", "Currently open client connections",
                   static_cast<double>(open_connections()));
}

void NetServer::TimedWrite(Connection* conn, std::string_view data) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->dead.load(std::memory_order_relaxed)) {
    return;
  }
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(conn->fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    Add(writes_, 1);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // Timeout (SO_SNDTIMEO -> EAGAIN) or hard error: mark the connection
    // dead and shut it down fully so the reader unblocks too. Later
    // writes become no-ops (their lines are dropped) — a stuck peer costs
    // one timeout, not one timeout per chunk.
    conn->dead.store(true, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);
    break;
  }
  Add(bytes_tx_, sent);
}

void NetServer::ReturnFrame(std::unique_ptr<Frame> frame, bool lent) {
  // Heap bytes the requests keep for the next decode (SSO buffers count
  // too: the bound only needs to hold from above).
  std::size_t bytes = frame->requests.capacity() * sizeof(serve::PredictRequest);
  for (const serve::PredictRequest& r : frame->requests) {
    bytes += r.interface.capacity() + r.function.capacity() + r.entry_place.capacity() +
             r.trace_id.capacity() + r.tenant.capacity() +
             r.attrs.capacity() * sizeof(r.attrs.front());
    for (const auto& attr : r.attrs) {
      bytes += attr.first.capacity();
    }
  }
  Connection* conn = frame->conn;
  std::lock_guard<std::mutex> lock(conn->inflight_mu);
  if (bytes <= options_.max_frame_bytes &&
      conn->spare_frames.size() < options_.max_inflight_batches) {
    conn->spare_frames.push_back(std::move(frame));
  }
  if (lent) {
    --conn->inflight;
    conn->inflight_cv.notify_all();
  }
}

void NetServer::DrainInflight(Connection* conn) {
  std::unique_lock<std::mutex> lock(conn->inflight_mu);
  conn->inflight_cv.wait(lock, [conn] { return conn->inflight == 0; });
}

void NetServer::HandleConnection(const std::shared_ptr<Connection>& conn) {
  // Protocol sniff: NDJSON frames start with '{'; everything else is
  // treated as HTTP/1.1. MSG_PEEK leaves the byte for the real parser.
  pollfd pfd{conn->fd, POLLIN, 0};
  if (::poll(&pfd, 1, options_.io_timeout_ms) <= 0) {
    return;
  }
  char first = 0;
  if (::recv(conn->fd, &first, 1, MSG_PEEK) != 1) {
    return;
  }
  if (first == '{') {
    ServeNdjson(conn);
  } else {
    ServeHttp(conn);
    // The answer said Connection: close, so end it now: a client reading
    // to EOF must not wait for the reaper to close the fd.
    ::shutdown(conn->fd, SHUT_WR);
  }
}

void NetServer::ServeNdjson(const std::shared_ptr<Connection>& conn) {
  FrameReader reader(options_.max_frame_bytes);
  std::vector<char> buf(64 * 1024);
  std::string frame;
  obs::SpanRing::Entry frame_entry;  // the /tracez entry, rebuilt per frame
  frame_entry.cat = "net";
  frame_entry.name = "frame";
  serve::TraceIdBlock trace_ids;

  const auto handle_frame = [&] {
    obs::SpanGuard request_span("net", "request");
    const std::uint64_t frame_start_ns = obs::SpanRing::NowNs();
    std::unique_ptr<Frame> pending;
    {
      std::lock_guard<std::mutex> lock(conn->inflight_mu);
      if (!conn->spare_frames.empty()) {
        pending = std::move(conn->spare_frames.back());
        conn->spare_frames.pop_back();
      }
    }
    if (pending == nullptr) {
      pending = std::make_unique<Frame>();
      pending->conn = conn.get();
    }
    std::vector<serve::PredictRequest>& requests = pending->requests;
    std::uint64_t id = 0;
    std::string error;
    if (!DecodeRequestFrame(frame, &id, &requests, &error)) {
      ReturnFrame(std::move(pending), /*lent=*/false);
      Add(frames_malformed_, 1);
      std::string line;
      EncodeMalformedLine(id, error, &line);
      TimedWrite(conn.get(), line);
      return;
    }
    if (requests.size() > options_.max_batch_requests) {
      const std::size_t size = requests.size();
      ReturnFrame(std::move(pending), /*lent=*/false);
      Add(frames_malformed_, 1);
      std::string line;
      EncodeMalformedLine(
          id, StrFormat("frame has %zu requests; limit is %zu", size,
                        options_.max_batch_requests),
          &line);
      TimedWrite(conn.get(), line);
      return;
    }
    FillTraceIds(&requests, &trace_ids);
    if (request_span.active()) {
      request_span.SetArg("requests", static_cast<double>(requests.size()));
      request_span.SetTraceId(requests.front().trace_id);
    }

    // Backpressure: past the pipelining window the frame is answered
    // immediately with per-request REJECTED lines — the client's
    // line-counting logic stays uniform, and nothing buffers unboundedly.
    {
      std::unique_lock<std::mutex> lock(conn->inflight_mu);
      if (conn->inflight >= options_.max_inflight_batches) {
        lock.unlock();
        Add(batches_rejected_, 1);
        std::string lines;
        for (std::size_t i = 0; i < requests.size(); ++i) {
          EncodeResponseLine(id, i,
                             serve::UnevaluatedResponse(
                                 requests[i], serve::PredictStatus::kRejected,
                                 "too many batches in flight on this connection"),
                             &lines);
        }
        ReturnFrame(std::move(pending), /*lent=*/false);
        TimedWrite(conn.get(), lines);
        return;
      }
      ++conn->inflight;
    }

    frame_entry.trace_id = requests.front().trace_id;
    frame_entry.detail = std::to_string(requests.size());
    frame_entry.detail += " requests";
    // Lines go out one write per chunk (so a one-request frame is written
    // the moment it resolves), and the frame counts as answered only after
    // its last chunk's write: DrainInflight then means every line has been
    // flushed or, on a dead connection, dropped. The service reads the lent
    // requests only before that last flush, which hands the frame back.
    pending->unanswered.store(requests.size(), std::memory_order_relaxed);
    Frame* lent = pending.release();
    service_->SubmitBatch(
        std::span<const serve::PredictRequest>(lent->requests),
        [id](std::size_t index, const serve::PredictResponse& response) {
          EncodeResponseLine(id, index, response, &chunk_lines);
        },
        [this, lent](std::size_t n) {
          TimedWrite(lent->conn, chunk_lines);
          chunk_lines.clear();
          if (lent->unanswered.fetch_sub(n, std::memory_order_acq_rel) == n) {
            ReturnFrame(std::unique_ptr<Frame>(lent), /*lent=*/true);
          }
        });
    // /tracez provenance: one ring entry per accepted frame, covering
    // decode + enqueue (responses stream asynchronously and are timed by
    // their own serve/eval entries).
    frame_entry.start_ns = frame_start_ns;
    frame_entry.dur_ns = obs::SpanRing::NowNs() - frame_start_ns;
    frame_ring_.Record(frame_entry);
  };

  for (;;) {
    pollfd pfd{conn->fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, options_.io_timeout_ms);
    if (pr == 0) {
      // Idle timeout — but only when truly idle: a connection waiting on
      // in-flight responses is working, not stuck.
      std::lock_guard<std::mutex> lock(conn->inflight_mu);
      if (conn->inflight == 0) {
        break;
      }
      continue;
    }
    if (pr < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n == 0) {
      break;  // EOF: the client is done sending; drain and close
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    Add(bytes_rx_, static_cast<std::uint64_t>(n));
    reader.Append(buf.data(), static_cast<std::size_t>(n));

    for (;;) {
      const FrameReader::Next next = reader.Pop(&frame);
      if (next == FrameReader::Next::kNeedMore) {
        break;
      }
      if (next == FrameReader::Next::kOversized) {
        Add(frames_malformed_, 1);
        std::string line;
        EncodeMalformedLine(
            0, StrFormat("frame exceeds max_frame_bytes (%zu)", options_.max_frame_bytes),
            &line);
        TimedWrite(conn.get(), line);
        continue;
      }
      handle_frame();
    }
    if (conn->dead.load(std::memory_order_relaxed)) {
      break;
    }
  }
  // Every submitted batch must resolve (and its responses flush) before
  // the fd can be closed: callbacks write to it.
  DrainInflight(conn.get());
}

void NetServer::ServeHttp(const std::shared_ptr<Connection>& conn) {
  obs::SpanGuard request_span("net", "request");
  // Read the request head (and body, if Content-Length says so). One
  // request per connection; we always answer Connection: close.
  std::string data;
  std::vector<char> buf(16 * 1024);
  std::size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    if (data.size() > options_.max_frame_bytes) {
      TimedWrite(conn.get(), HttpResponse(431, "Request Header Fields Too Large", "text/plain",
                                          "header too large\n"));
      return;
    }
    pollfd pfd{conn->fd, POLLIN, 0};
    if (::poll(&pfd, 1, options_.io_timeout_ms) <= 0) {
      return;
    }
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return;
    }
    Add(bytes_rx_, static_cast<std::uint64_t>(n));
    data.append(buf.data(), static_cast<std::size_t>(n));
    header_end = data.find("\r\n\r\n");
  }

  const HttpHead head = ParseHttpHead(std::string_view(data).substr(0, header_end),
                                      options_.max_frame_bytes);
  if (head.status != 0) {
    TimedWrite(conn.get(),
               head.status == 413
                   ? HttpResponse(413, "Payload Too Large", "text/plain", "body too large\n")
                   : HttpResponse(400, "Bad Request", "text/plain", "bad request head\n"));
    return;
  }
  const std::string& method = head.method;
  const std::string& path = head.path;
  if (request_span.active()) {
    request_span.SetArg("path", path);
  }

  std::string body = data.substr(header_end + 4);
  while (body.size() < head.content_length) {
    pollfd pfd{conn->fd, POLLIN, 0};
    if (::poll(&pfd, 1, options_.io_timeout_ms) <= 0) {
      return;
    }
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return;
    }
    Add(bytes_rx_, static_cast<std::uint64_t>(n));
    body.append(buf.data(), static_cast<std::size_t>(n));
  }
  body.resize(head.content_length);  // drop pipelined bytes past the declared body

  if (method == "GET" && path == "/metrics") {
    std::string scrape = service_->StatsPrometheus();
    AppendPrometheus(&scrape);
    TimedWrite(conn.get(),
               HttpResponse(200, "OK", "text/plain; version=0.0.4; charset=utf-8", scrape));
    return;
  }
  if (method == "GET" && path == "/healthz") {
    TimedWrite(conn.get(), HttpResponse(200, "OK", "text/plain", "ok\n"));
    return;
  }
  if (method == "GET" && path == "/statusz") {
    // Live service status: uptime, build info, effective options, and
    // per-interface traffic/latency/shadow summaries (docs/observability.md
    // "/statusz").
    TimedWrite(conn.get(),
               HttpResponse(200, "OK", "application/json", service_->StatuszJson() + "\n"));
    return;
  }
  if (method == "GET" && path == "/tracez") {
    // Recent spans + slowest-since-start outliers from the always-on
    // rings: the service's, one per worker, merged with this server's
    // frame ring (docs/observability.md "/tracez").
    std::vector<const obs::SpanRing*> rings = service_->span_rings();
    rings.push_back(&frame_ring_);
    TimedWrite(conn.get(), HttpResponse(200, "OK", "application/json",
                                        obs::DumpSpanRingsJson(rings) + "\n"));
    return;
  }
  if (method == "GET" && path == "/interfaces") {
    // Discovery: every interface the service answers for, with the
    // representations it ships ("program" = compiled PerfScript,
    // "pnet" = compiled Petri net). Registry order.
    std::string json = "[";
    bool first_entry = true;
    for (const auto& info : service_->InterfaceInfos()) {
      if (!first_entry) {
        json += ',';
      }
      first_entry = false;
      json += "{\"name\":";
      AppendJsonString(&json, info.name);
      json += ",\"representations\":[";
      if (info.has_program) {
        json += "\"program\"";
      }
      if (info.has_pnet) {
        json += info.has_program ? ",\"pnet\"" : "\"pnet\"";
      }
      json += "]}";
    }
    json += "]\n";
    TimedWrite(conn.get(), HttpResponse(200, "OK", "application/json", json));
    return;
  }
  if (method == "POST" && path == "/predict") {
    // Body: one request frame (same schema as the NDJSON protocol, the
    // trailing newline optional). Response body: the response lines.
    std::uint64_t id = 0;
    std::vector<serve::PredictRequest> requests;
    std::string error;
    std::string_view frame(body);
    while (!frame.empty() && (frame.back() == '\n' || frame.back() == '\r')) {
      frame.remove_suffix(1);
    }
    if (!DecodeRequestFrame(frame, &id, &requests, &error)) {
      Add(frames_malformed_, 1);
      TimedWrite(conn.get(), HttpResponse(400, "Bad Request", "text/plain", error + "\n"));
      return;
    }
    if (requests.size() > options_.max_batch_requests) {
      Add(frames_malformed_, 1);
      TimedWrite(conn.get(), HttpResponse(400, "Bad Request", "text/plain",
                                          "too many requests in frame\n"));
      return;
    }
    serve::TraceIdBlock trace_ids;
    FillTraceIds(&requests, &trace_ids);
    if (!requests.empty()) {
      request_span.SetTraceId(requests.front().trace_id);
    }
    const std::vector<serve::PredictResponse> responses = service_->PredictBatch(requests);
    std::string lines;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      EncodeResponseLine(id, i, responses[i], &lines);
    }
    TimedWrite(conn.get(), HttpResponse(200, "OK", "application/x-ndjson", lines));
    return;
  }
  TimedWrite(conn.get(), HttpResponse(404, "Not Found", "text/plain", "not found\n"));
}

}  // namespace perfiface::net
