#include "src/net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/strings.h"

namespace perfiface::net {

namespace {

int ConnectTcp(const std::string& host, std::uint16_t port, int timeout_ms, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = StrFormat("socket: %s", std::strerror(errno));
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = StrFormat("bad address '%s'", host.c_str());
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = StrFormat("connect %s:%u: %s", host.c_str(), static_cast<unsigned>(port),
                       std::strerror(errno));
    ::close(fd);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, std::string_view data, std::string* error) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    *error = StrFormat("send: %s", std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace

bool NetClient::Connect(const std::string& host, std::uint16_t port, std::string* error,
                        int timeout_ms) {
  Close();
  fd_ = ConnectTcp(host, port, timeout_ms, error);
  return fd_ >= 0;
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader(1 << 20);
}

bool NetClient::SendBatch(std::uint64_t id, const std::vector<serve::PredictRequest>& requests,
                          std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  std::string frame;
  EncodeRequestFrame(id, requests, &frame);
  return SendAll(fd_, frame, error);
}

bool NetClient::SendRaw(const std::string& bytes, std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  return SendAll(fd_, bytes, error);
}

bool NetClient::ReadResponse(WireResponse* out, std::string* error) {
  if (fd_ < 0) {
    *error = "not connected";
    return false;
  }
  std::string line;
  char buf[64 * 1024];
  for (;;) {
    const FrameReader::Next next = reader_.Pop(&line);
    if (next == FrameReader::Next::kFrame) {
      return DecodeResponseLine(line, out, error);
    }
    if (next == FrameReader::Next::kOversized) {
      *error = "oversized response line";
      return false;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) {
      *error = "connection closed by server";
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = StrFormat("recv: %s", std::strerror(errno));
      return false;
    }
    reader_.Append(buf, static_cast<std::size_t>(n));
  }
}

bool NetClient::Call(const std::vector<serve::PredictRequest>& requests,
                     std::vector<serve::PredictResponse>* responses, std::string* error) {
  const std::uint64_t id = NextId();
  if (!SendBatch(id, requests, error)) {
    return false;
  }
  responses->assign(requests.size(), serve::PredictResponse());
  for (std::size_t received = 0; received < requests.size(); ++received) {
    WireResponse wire;
    if (!ReadResponse(&wire, error)) {
      return false;
    }
    if (wire.malformed) {
      *error = StrFormat("server rejected frame: %s", wire.response.error.c_str());
      return false;
    }
    if (wire.id != id || wire.index >= responses->size()) {
      *error = StrFormat("unexpected response (id %llu index %zu)",
                         static_cast<unsigned long long>(wire.id), wire.index);
      return false;
    }
    (*responses)[wire.index] = wire.response;
  }
  return true;
}

bool HttpGet(const std::string& host, std::uint16_t port, const std::string& path, int* status,
             std::string* body, std::string* error, int timeout_ms) {
  const int fd = ConnectTcp(host, port, timeout_ms, error);
  if (fd < 0) {
    return false;
  }
  const std::string request = StrFormat("GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n",
                                        path.c_str(), host.c_str());
  if (!SendAll(fd, request, error)) {
    ::close(fd);
    return false;
  }
  std::string data;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      break;  // server closes after the response (Connection: close)
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      *error = StrFormat("recv: %s", std::strerror(errno));
      ::close(fd);
      return false;
    }
    data.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.1 200 OK": the status is the three digits after the version.
  if (!StartsWith(data, "HTTP/1.1 ") || data.size() < 12 ||
      ParseDecimal(std::string_view(data).substr(9, 3), status) != std::errc()) {
    *error = "bad HTTP response";
    return false;
  }
  const std::size_t header_end = data.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    *error = "truncated HTTP response";
    return false;
  }
  *body = data.substr(header_end + 4);
  return true;
}

}  // namespace perfiface::net
