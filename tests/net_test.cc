// Tests for the TCP front end: the JSON wire codec (exact integer
// round-trips, hostile strings), the frame reader (splits across recv
// boundaries, oversized frames, resynchronization), and the server itself
// over loopback (pipelined batches, malformed frames, backpressure, the
// HTTP endpoints, graceful drain). This binary runs under ThreadSanitizer
// in CI alongside serve_test.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/strings.h"
#include "src/core/registry.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/obs/exposition.h"
#include "src/obs/span_ring.h"
#include "src/obs/trace.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"
#include "src/serve/service.h"
#include "tests/exposition_parser.h"
#include "tests/wire_oracle.h"

namespace perfiface::net {
namespace {

using oracle::JsonValue;
using oracle::ParseJson;
using serve::PredictRequest;
using serve::PredictResponse;
using serve::PredictStatus;
using serve::Representation;

PredictRequest JpegRequest(double orig_size, double compress_rate) {
  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.function = "latency_jpeg_decode";
  req.attrs = {{"orig_size", orig_size}, {"compress_rate", compress_rate}};
  return req;
}

PredictRequest PnetRequest(const std::string& iface, const std::string& entry_place) {
  PredictRequest req;
  req.interface = iface;
  req.representation = Representation::kPnet;
  req.entry_place = entry_place;
  req.attrs = {{"bits", 800.0}, {"blocks", 8.0}, {"words", 64.0}, {"num_fields", 6.0}};
  return req;
}

// A service + server pair bound to an ephemeral loopback port.
struct TestServer {
  explicit TestServer(serve::ServiceOptions sopts = {}, NetServerOptions nopts = {})
      : service(InterfaceRegistry::Default(), sopts), server(&service, nopts) {
    std::string error;
    ok = server.Start(&error);
    EXPECT_TRUE(ok) << error;
  }
  ~TestServer() {
    server.Stop();
    service.Shutdown();
  }

  serve::PredictionService service;
  NetServer server;
  bool ok = false;
};

serve::ServiceOptions TwoWorkers() {
  serve::ServiceOptions o;
  o.num_workers = 2;
  return o;
}

// A raw TCP connection to 127.0.0.1:port; -1 on failure.
int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends a raw HTTP/1.1 request to 127.0.0.1:port and returns the whole
// response (headers + body). Empty string on any socket failure.
std::string RawHttp(std::uint16_t port, const std::string& request) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// --- JSON parser -----------------------------------------------------------

TEST(JsonParser, ParsesNestedDocument) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(R"({"a":[1,2.5,-3e2],"b":{"c":"x\nyA"},"d":true,"e":null})", &v,
                        &error))
      << error;
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  ASSERT_NE(v.Find("a"), nullptr);
  EXPECT_EQ(v.Find("a")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.Find("a")->array[1]->number, 2.5);
  EXPECT_EQ(v.Find("a")->array[2]->raw_number, "-3e2");
  EXPECT_EQ(v.Find("b")->Find("c")->str, "x\nyA");
  EXPECT_TRUE(v.Find("d")->bool_value);
  EXPECT_EQ(v.Find("e")->kind, JsonValue::Kind::kNull);
}

TEST(JsonParser, RejectsTrailingGarbage) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson(R"({"a":1} {"b":2})", &v, &error));
  EXPECT_NE(error.find("trailing garbage"), std::string::npos) << error;
}

TEST(JsonParser, RejectsHostileInput) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("", &v, &error));
  EXPECT_FALSE(ParseJson("{", &v, &error));
  EXPECT_FALSE(ParseJson(R"({"a")", &v, &error));
  EXPECT_FALSE(ParseJson(R"("unterminated)", &v, &error));
  EXPECT_FALSE(ParseJson(R"({"a":01x})", &v, &error));
  // Deep nesting must fail cleanly, not blow the stack.
  EXPECT_FALSE(ParseJson(std::string(10'000, '[') + std::string(10'000, ']'), &v, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

// --- FrameReader -----------------------------------------------------------

TEST(FrameReader, ReassemblesAcrossArbitrarySplits) {
  // Feed the same three frames one byte at a time: every recv boundary is a
  // potential split point, and the reader must be insensitive to all of
  // them.
  const std::string stream = "{\"id\":1}\n{\"id\":2}\r\n{\"id\":3}\n";
  FrameReader reader(1024);
  std::vector<std::string> frames;
  for (const char c : stream) {
    reader.Append(&c, 1);
    std::string frame;
    while (reader.Pop(&frame) == FrameReader::Next::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "{\"id\":1}");
  EXPECT_EQ(frames[1], "{\"id\":2}");  // CRLF stripped
  EXPECT_EQ(frames[2], "{\"id\":3}");
}

TEST(FrameReader, ManyFramesInOneAppend) {
  FrameReader reader(1024);
  const std::string stream = "a\nb\nc\n";
  reader.Append(stream.data(), stream.size());
  std::string frame;
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, "a");
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, "b");
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, "c");
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kNeedMore);
}

TEST(FrameReader, OversizedFrameWithNewlineResynchronizes) {
  FrameReader reader(8);
  const std::string stream = "0123456789abcdef\nok\n";
  reader.Append(stream.data(), stream.size());
  std::string frame;
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kOversized);
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, "ok");
}

TEST(FrameReader, OversizedFrameWithoutNewlineDoesNotBuffer) {
  // The newline never arrives within the cap: the reader must drop what it
  // has (bounded memory), skip to the next newline, and resynchronize.
  FrameReader reader(8);
  std::string frame;
  for (int i = 0; i < 100; ++i) {
    const std::string chunk(16, 'x');
    reader.Append(chunk.data(), chunk.size());
    EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kNeedMore);
    EXPECT_LE(reader.buffered(), 32u);  // never the full 1600 bytes
  }
  const std::string tail = "tail\nok\n";
  reader.Append(tail.data(), tail.size());
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kOversized);
  EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, "ok");
}

// --- Request/response codec ------------------------------------------------

TEST(WireCodec, RequestFrameRoundTripsExactly) {
  std::vector<PredictRequest> requests;
  PredictRequest full;
  full.interface = "jpeg_decoder";
  full.representation = Representation::kPnet;
  full.function = "latency_jpeg_decode";
  full.attrs = {{"orig_size", 65536.0}, {"compress_rate", 0.2}, {"weird \"name\"", 1.25}};
  full.children = 3;
  full.entry_place = "hdr_in:1,vld_in:8";
  full.tokens = 9;
  // Values a double cannot represent: the codec must round-trip them
  // bit-exactly through raw digit text.
  full.max_steps = 18'446'744'073'709'551'613ULL;
  full.deadline_us = INT64_MAX - 1;
  requests.push_back(full);
  requests.push_back(JpegRequest(1024, 0.5));

  std::string frame;
  EncodeRequestFrame(77, requests, &frame);
  ASSERT_EQ(frame.back(), '\n');

  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestFrame(std::string_view(frame).substr(0, frame.size() - 1), &id,
                                 &decoded, &error))
      << error;
  EXPECT_EQ(id, 77u);
  ASSERT_EQ(decoded.size(), 2u);
  const PredictRequest& d = decoded[0];
  EXPECT_EQ(d.interface, full.interface);
  EXPECT_EQ(d.representation, Representation::kPnet);
  EXPECT_EQ(d.function, full.function);
  // attrs decode into name-sorted order (JSON objects are unordered);
  // compare as sets.
  ASSERT_EQ(d.attrs.size(), full.attrs.size());
  for (const auto& kv : full.attrs) {
    bool found = false;
    for (const auto& dk : d.attrs) {
      if (dk.first == kv.first && dk.second == kv.second) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << kv.first;
  }
  EXPECT_EQ(d.children, full.children);
  EXPECT_EQ(d.entry_place, full.entry_place);
  EXPECT_EQ(d.tokens, full.tokens);
  EXPECT_EQ(d.max_steps, full.max_steps);
  EXPECT_EQ(d.deadline_us, full.deadline_us);
}

TEST(WireCodec, SingleObjectShorthand) {
  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestFrame(
      R"({"id":3,"requests":{"interface":"jpeg_decoder","function":"f"}})", &id, &decoded,
      &error))
      << error;
  EXPECT_EQ(id, 3u);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].interface, "jpeg_decoder");
}

TEST(WireCodec, RejectsBadFrames) {
  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  EXPECT_FALSE(DecodeRequestFrame("not json", &id, &decoded, &error));
  EXPECT_FALSE(DecodeRequestFrame("[1,2]", &id, &decoded, &error));
  EXPECT_FALSE(DecodeRequestFrame(R"({"id":1})", &id, &decoded, &error));
  EXPECT_FALSE(DecodeRequestFrame(R"({"id":1,"requests":[]})", &id, &decoded, &error));
  EXPECT_FALSE(DecodeRequestFrame(R"({"id":1,"requests":[{}]})", &id, &decoded, &error));
  EXPECT_FALSE(DecodeRequestFrame(R"({"id":1,"requests":[{"interface":""}]})", &id, &decoded,
                                  &error));
  EXPECT_FALSE(DecodeRequestFrame(
      R"({"id":1,"requests":[{"interface":"x","rep":"quantum"}]})", &id, &decoded, &error));
  EXPECT_FALSE(DecodeRequestFrame(
      R"({"id":1,"requests":[{"interface":"x","attrs":{"a":"str"}}]})", &id, &decoded, &error));
  EXPECT_FALSE(DecodeRequestFrame(
      R"({"id":1,"requests":[{"interface":"x","deadline_us":1.5}]})", &id, &decoded, &error));
  // An id that parsed must be reported even when the frame is bad, so the
  // server's error line can echo it.
  EXPECT_FALSE(DecodeRequestFrame(R"({"id":42,"requests":[{}]})", &id, &decoded, &error));
  EXPECT_EQ(id, 42u);
}

// A number past the double range used to decode to +-inf, and the frame
// then re-encoded as invalid JSON ("inf"). Such numbers are refused; ones
// that underflow, and the range's extremes, still decode and round-trip.
TEST(WireCodec, NumbersPastTheDoubleRangeAreRefused) {
  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  for (const char* number : {"1e999", "-1e999", "1.8e308"}) {
    const std::string frame =
        StrFormat(R"({"id":1,"requests":[{"interface":"x","attrs":{"a":%s}}]})", number);
    EXPECT_FALSE(DecodeRequestFrame(frame, &id, &decoded, &error)) << number;
    EXPECT_NE(error.find("number out of range"), std::string::npos) << number << ": " << error;
  }
  WireResponse response;
  EXPECT_FALSE(DecodeResponseLine(R"({"id":1,"index":0,"status":"OK","value":1e999})",
                                  &response, &error));
  EXPECT_NE(error.find("number out of range"), std::string::npos) << error;

  ASSERT_TRUE(DecodeRequestFrame(
      R"({"id":1,"requests":[{"interface":"x","attrs":{"a":1e-999,"b":1.7976931348623157e308}}]})",
      &id, &decoded, &error))
      << error;
  std::string encoded;
  EncodeRequestFrame(id, decoded, &encoded);
  EXPECT_EQ(encoded,
            "{\"id\":1,\"requests\":[{\"interface\":\"x\",\"rep\":\"auto\",\"attrs\":{\"a\":0,"
            "\"b\":1.7976931348623157e+308}}]}\n");
}

TEST(WireCodec, ResponseLineRoundTripsEveryStatus) {
  for (const PredictStatus status :
       {PredictStatus::kOk, PredictStatus::kError, PredictStatus::kNotFound,
        PredictStatus::kDeadlineExceeded, PredictStatus::kResourceExhausted,
        PredictStatus::kRejected}) {
    PredictResponse resp;
    resp.status = status;
    resp.error = status == PredictStatus::kOk ? "" : "oops \"quoted\"\nnewline\\slash";
    resp.value = 1.25e6;
    resp.throughput = 0.125;
    resp.cache_hit = true;
    resp.eval_ns = 18'446'744'073'709'551'610ULL;

    std::string line;
    EncodeResponseLine(9, 4, resp, &line);
    ASSERT_EQ(line.back(), '\n');
    WireResponse wire;
    std::string error;
    ASSERT_TRUE(DecodeResponseLine(std::string_view(line).substr(0, line.size() - 1), &wire,
                                   &error))
        << error;
    EXPECT_EQ(wire.id, 9u);
    EXPECT_EQ(wire.index, 4u);
    EXPECT_FALSE(wire.malformed);
    EXPECT_EQ(wire.response.status, status);
    EXPECT_EQ(wire.response.error, resp.error);
    EXPECT_DOUBLE_EQ(wire.response.value, resp.value);
    EXPECT_DOUBLE_EQ(wire.response.throughput, resp.throughput);
    EXPECT_TRUE(wire.response.cache_hit);
    EXPECT_EQ(wire.response.eval_ns, resp.eval_ns);
  }
}

TEST(WireCodec, MalformedLineRoundTrips) {
  std::string line;
  EncodeMalformedLine(13, "bad \"frame\"\n", &line);
  WireResponse wire;
  std::string error;
  ASSERT_TRUE(DecodeResponseLine(std::string_view(line).substr(0, line.size() - 1), &wire,
                                 &error))
      << error;
  EXPECT_TRUE(wire.malformed);
  EXPECT_EQ(wire.id, 13u);
  EXPECT_EQ(wire.response.error, "bad \"frame\"\n");
}

// --- The single-pass reader against the DOM oracle ---------------------------

// Decodes `frame` with the reader, requiring the DOM oracle's outcome byte
// for byte (verdict, error, id, every field); returns the reader's verdict.
bool DecodeLikeTheOracle(std::string_view frame, std::uint64_t* id,
                         std::vector<PredictRequest>* requests, std::string* error) {
  const auto [decoded, oracle] = oracle::DecodeRequestFrameBothWays(frame);
  EXPECT_EQ(decoded, oracle) << frame;
  return DecodeRequestFrame(frame, id, requests, error);
}

// A frame of one request whose fields after "interface" are `fields`.
std::string OneRequest(const std::string& fields) {
  return R"({"id":1,"requests":[{"interface":"x",)" + fields + "}]}";
}

// Every frame and line the WireCodec tests decode, plus encoder output for
// every field, decodes as the DOM decodes it.
TEST(WireDecoder, GoldenFramesDecodeAsTheDomDecodes) {
  PredictRequest full;
  full.interface = "jpeg_decoder";
  full.representation = Representation::kPnet;
  full.function = "latency_jpeg_decode";
  full.attrs = {{"orig_size", 65536.0}, {"compress_rate", 0.2}, {"weird \"name\"", 1.25}};
  full.children = 3;
  full.entry_place = "hdr_in:1,vld_in:8";
  full.tokens = 9;
  full.max_steps = 18'446'744'073'709'551'613ULL;
  full.deadline_us = INT64_MAX - 1;
  full.trace_id = "t1";
  full.explain = true;
  full.tenant = "acme-prod";
  std::string encoded;
  EncodeRequestFrame(77, {full, JpegRequest(1024, 0.5)}, &encoded);
  encoded.pop_back();
  std::vector<std::string> frames = {
      encoded,
      R"({"id":3,"requests":{"interface":"jpeg_decoder","function":"f"}})",
      "not json",
      "[1,2]",
      R"({"id":1})",
      R"({"id":1,"requests":[]})",
      R"({"id":1,"requests":[{}]})",
      R"({"id":1,"requests":[{"interface":""}]})",
      R"({"id":1,"requests":[{"interface":"x","rep":"quantum"}]})",
      R"({"id":1,"requests":[{"interface":"x","attrs":{"a":"str"}}]})",
      R"({"id":1,"requests":[{"interface":"x","deadline_us":1.5}]})",
      R"({"id":42,"requests":[{}]})",
      R"({"id":1,"requests":[{"interface":"x","attrs":{"a":1e-999,"b":1.7976931348623157e308}}]})",
      "{\"id\":1,\"requests\":[{\"interface\":\"x\",\"tenant\":\"" + std::string(65, 't') +
          "\"}]}",
      R"({"id":4,"requests":{"interface":"jpeg_decoder","function":"f",)"
      R"("tenant":"acme","trace_id":"cafe0123"}})",
      R"({"a":1} {"b":2})",
      "",
      "{",
      R"({"a")",
      R"("unterminated)",
      R"({"a":01x})",
      std::string(10'000, '[') + std::string(10'000, ']'),
  };
  for (const char* number : {"1e999", "-1e999", "1.8e308"}) {
    frames.push_back(StrFormat(R"({"id":1,"requests":[{"interface":"x","attrs":{"a":%s}}]})",
                               number));
  }
  // Each check against the next, duplicates, and every field's bounds.
  for (const char* frame : {
           R"({"id":"x"})",
           R"({"requests":[{"interface":"x"}],"id":1.5})",
           R"({"id":18446744073709551616,"requests":[{"interface":"x"}]})",
           R"({"id":1,"requests":[{"interface":"x"}],"requests":{"interface":""}})",
           R"({"id":1,"requests":{"interface":""},"requests":[{"interface":"x"}]})",
           R"({"id":1,"requests":[{"interface":"x"},5,{"rep":1}]})",
           R"({"id":1,"requests":"x"})",
           R"({"id":1,"requests":null})",
           R"({"id":1,"requests":[{"interface":"x","attrs":[]}]})",
           R"({"id":1,"requests":[{"interface":"x","attrs":{"a":1},"attrs":5}]})",
           R"({"id":1,"requests":[{"interface":"x","tokens":1e9,"children":-1}]})",
           R"({"id":1,"requests":[{"interface":"x","tokens":1000000001}]})",
           R"({"id":1,"requests":[{"interface":"x","children":1000001}]})",
           R"({"id":1,"requests":[{"interface":"x","max_steps":-0,"deadline_us":-0}]})",
           R"({"id":1,"requests":[{"interface":"x","deadline_us":9223372036854775808}]})",
           R"({"id":1,"requests":[{"interface":"x","explain":1,"function":2}]})",
           R"({"id":1,"requests":[{"interface":"x","entry_place":[],"tenant":{}}]})",
       }) {
    frames.emplace_back(frame);
  }
  frames.push_back(OneRequest(R"("trace_id":")" + std::string(129, 't') + "\""));
  for (const std::string& frame : frames) {
    const auto [decoded, oracle] = oracle::DecodeRequestFrameBothWays(frame);
    EXPECT_EQ(decoded, oracle) << frame;
  }

  PredictResponse resp;
  resp.status = PredictStatus::kError;
  resp.error = "oops \"quoted\"\nnewline\\slash";
  resp.value = 1.25e6;
  resp.throughput = 0.125;
  resp.cache_hit = true;
  resp.eval_ns = 18'446'744'073'709'551'610ULL;
  resp.trace_id = "cafe0123";
  resp.tenant = "acme-prod";
  resp.explain.filled = true;
  resp.explain.representation = "pnet-derived";
  resp.explain.cache = "miss";
  resp.explain.queue_wait_ns = 7;
  resp.explain.steps = 9;
  resp.explain.shadowed = true;
  resp.explain.shadow_truth = 1e-320;
  resp.explain.shadow_rel_err = -0.0;
  std::vector<std::string> lines(2);
  EncodeResponseLine(9, 4, resp, &lines[0]);
  EncodeMalformedLine(13, "bad \"frame\"\n", &lines[1]);
  for (std::string& line : lines) {
    line.pop_back();
  }
  for (const char* line : {
           R"({"id":1,"index":0,"status":"OK","value":1e999})",
           R"({"id":1,"index":0,"status":"OK","explain":{"steps":5},"explain":{"cache":"hit"}})",
           R"({"id":1,"index":0,"status":"OK","explain":{"steps":5},"explain":7})",
           R"({"id":1,"malformed":true,"malformed":false,"index":2,"status":"ERROR","error":5})",
           R"({"id":1,"malformed":true,"error":["x"]})",
           R"({"id":1,"index":-1,"status":"OK"})",
           R"({"id":1,"index":0,"status":"OKAY"})",
           R"({"id":1,"index":0,"status":"OK","eval_ns":1.5,"value":2,"error":"e"})",
           R"({"id":1,"index":0,"status":"OK","value":"x","throughput":true,"cache_hit":1,)"
           R"("trace_id":5,"tenant":null})",
           R"({"id":1,"index":0,"status":"OK","explain":{"queue_wait_ns":-1,"eval_ns":1.5,)"
           R"("steps":"x","deadline_limited":1,"shadowed":true,"shadow_truth":"x",)"
           R"("shadow_rel_err":-0,"representation":7}})",
           R"({"id":"x"})",
           "[1]",
           "5",
       }) {
    lines.emplace_back(line);
  }
  for (const std::string& line : lines) {
    const auto [decoded, oracle] = oracle::DecodeResponseLineBothWays(line);
    EXPECT_EQ(decoded, oracle) << line;
  }
}

// Numbers where std::from_chars and the strtod/strtoll the DOM read with
// differ: a leading '+', magnitudes past either end of the double range,
// subnormals, and the forms strtod takes beyond JSON's grammar.
TEST(WireDecoder, NumbersReadAsStrtodReadThem) {
  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  ASSERT_TRUE(DecodeLikeTheOracle(OneRequest(R"("children":+5,"attrs":{"a":+1})"), &id,
                                  &decoded, &error))
      << error;
  EXPECT_EQ(decoded[0].children, 5);
  EXPECT_EQ(decoded[0].attrs[0].second, 1.0);

  // Past the bottom of the range strtod reads a signed zero, where
  // from_chars reports result_out_of_range; subnormals read exactly.
  ASSERT_TRUE(DecodeLikeTheOracle(
      OneRequest(R"("attrs":{"a":1e-400,"b":-1e-400,"c":4e-320,"d":.5,"e":1.,"f":00012})"),
      &id, &decoded, &error))
      << error;
  ASSERT_EQ(decoded[0].attrs.size(), 6u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[0].attrs[0].second), 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[0].attrs[1].second),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(decoded[0].attrs[2].second, std::strtod("4e-320", nullptr));
  EXPECT_EQ(decoded[0].attrs[3].second, 0.5);
  EXPECT_EQ(decoded[0].attrs[4].second, 1.0);
  EXPECT_EQ(decoded[0].attrs[5].second, 12.0);

  for (const char* number : {"1e400", "1.5e+3088"}) {
    EXPECT_FALSE(DecodeLikeTheOracle(OneRequest(StrFormat(R"("attrs":{"a":%s})", number)), &id,
                                     &decoded, &error));
    EXPECT_NE(error.find("number out of range"), std::string::npos) << number << ": " << error;
  }
  EXPECT_FALSE(DecodeLikeTheOracle(OneRequest(R"("attrs":{"a":1e})"), &id, &decoded, &error));
  EXPECT_EQ(error, "bad number at byte 52");
  EXPECT_FALSE(DecodeLikeTheOracle(OneRequest(R"("attrs":{"a":0x10})"), &id, &decoded, &error));
  EXPECT_EQ(error, "expected ',' or '}' in object at byte 51");

  // An id is unsigned: "-0" is refused, though strtoull would read 0.
  EXPECT_FALSE(DecodeLikeTheOracle(R"({"id":-0,"requests":[{"interface":"x"}]})", &id, &decoded,
                                   &error));
  EXPECT_EQ(error, "'id' must be a non-negative integer");
  EXPECT_EQ(id, 0u);
}

TEST(WireDecoder, KeysEscapesDuplicatesAndNestingDecodeAsTheDomDecodes) {
  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  // An escaped key names the same field.
  ASSERT_TRUE(DecodeLikeTheOracle(R"({"id":2,"requests":[{"inter\u0066ace":"jpeg_decoder"}]})",
                                  &id, &decoded, &error))
      << error;
  EXPECT_EQ(decoded[0].interface, "jpeg_decoder");

  // Of a key given twice the last counts, so an invalid value followed by
  // a valid one is accepted, and the reverse refused.
  ASSERT_TRUE(DecodeLikeTheOracle(
      OneRequest(R"("tokens":0,"tokens":4,"attrs":{"a":"x","a":2},"attrs":{"b":3,"b":"y","b":5})"),
      &id, &decoded, &error))
      << error;
  EXPECT_EQ(decoded[0].tokens, 4);
  ASSERT_EQ(decoded[0].attrs.size(), 1u);
  EXPECT_EQ(decoded[0].attrs[0], (std::pair<std::string, double>{"b", 5.0}));
  EXPECT_FALSE(
      DecodeLikeTheOracle(OneRequest(R"("tokens":4,"tokens":0)"), &id, &decoded, &error));
  EXPECT_EQ(error, "requests[0]: 'tokens' must be an integer in [1, 1e9]");

  // Fields are checked in a fixed order, wherever they stand.
  EXPECT_FALSE(DecodeLikeTheOracle(OneRequest(R"("tenant":7,"attrs":{"z":true,"m":null})"), &id,
                                   &decoded, &error));
  EXPECT_EQ(error, "requests[0]: attr 'm' must be a number");
  // A syntax error anywhere outranks a bad field.
  EXPECT_FALSE(DecodeLikeTheOracle(R"({"id":1,"requests":[{"interface":""},{"interface":"x",]})",
                                   &id, &decoded, &error));
  EXPECT_EQ(error, "expected object key at byte 54");

  // \u0000 decodes to a NUL byte (an error message names the attribute up
  // to it); surrogate escapes pass through as 3-byte sequences.
  ASSERT_TRUE(DecodeLikeTheOracle(OneRequest(R"("tenant":"a\u0000b\ud800\udc00")"), &id,
                                  &decoded, &error))
      << error;
  EXPECT_EQ(decoded[0].tenant, std::string("a\0b\xed\xa0\x80\xed\xb0\x80", 9));
  EXPECT_FALSE(DecodeLikeTheOracle(OneRequest(R"("attrs":{"n\u0000m":[]})"), &id, &decoded,
                                   &error));
  EXPECT_EQ(error, "requests[0]: attr 'n' must be a number");

  // An unknown field's value is skipped, under the 64-level nesting cap.
  for (const std::size_t levels : {63, 64, 65}) {
    // The root object is level 0 and "x"'s outermost array level 1.
    const std::string deep = std::string(levels, '[') + std::string(levels, ']');
    const bool at_root = DecodeLikeTheOracle(
        R"({"id":1,"x":)" + deep + R"(,"requests":[{"interface":"x"}]})", &id, &decoded, &error);
    EXPECT_EQ(at_root, levels <= 64) << levels << ": " << error;
    // Inside a request the field's value starts at level 3.
    const std::string inner = std::string(levels - 2, '[') + std::string(levels - 2, ']');
    const bool in_request = DecodeLikeTheOracle(OneRequest(R"("x":)" + inner), &id, &decoded,
                                                &error);
    EXPECT_EQ(in_request, levels <= 64) << levels << ": " << error;
    if (levels > 64) {
      EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
    }
  }

  // The single-object shorthand decodes through the same fields, and names
  // a bad one without an index.
  ASSERT_TRUE(DecodeLikeTheOracle(R"({"id":5,"requests":{"interface":"x","children":+2}})", &id,
                                  &decoded, &error))
      << error;
  EXPECT_EQ(decoded[0].children, 2);
  EXPECT_FALSE(DecodeLikeTheOracle(R"({"requests":{"interface":"x","rep":1},"id":6})", &id,
                                   &decoded, &error));
  EXPECT_EQ(error, "'rep' must be \"auto\", \"program\", or \"pnet\"");
  EXPECT_EQ(id, 6u);
}

// --- Server over loopback --------------------------------------------------

TEST(NetServer, RoundTripMatchesInProcessService) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);

  std::vector<PredictRequest> requests;
  requests.push_back(JpegRequest(65536, 0.2));
  requests.push_back(JpegRequest(1024, 0.5));
  requests.push_back(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8"));
  PredictRequest unknown;
  unknown.interface = "no_such_accelerator";
  requests.push_back(unknown);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  std::vector<PredictResponse> over_wire;
  ASSERT_TRUE(client.Call(requests, &over_wire, &error)) << error;

  const std::vector<PredictResponse> in_process =
      ts.service.SubmitBatch(requests).Responses();
  ASSERT_EQ(over_wire.size(), in_process.size());
  for (std::size_t i = 0; i < in_process.size(); ++i) {
    EXPECT_EQ(over_wire[i].status, in_process[i].status) << i;
    EXPECT_DOUBLE_EQ(over_wire[i].value, in_process[i].value) << i;
    EXPECT_DOUBLE_EQ(over_wire[i].throughput, in_process[i].throughput) << i;
  }
}

TEST(NetServer, PipelinesManyBatchesOnOneConnection) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;

  // Send every frame before reading anything: responses interleave across
  // batches in completion order and must demultiplex by (id, index).
  constexpr int kBatches = 16;
  constexpr int kPerBatch = 4;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<PredictRequest> batch;
    for (int i = 0; i < kPerBatch; ++i) {
      batch.push_back(JpegRequest(1000.0 + b * kPerBatch + i, 0.2));
    }
    ASSERT_TRUE(client.SendBatch(static_cast<std::uint64_t>(b + 1), batch, &error)) << error;
  }

  std::set<std::pair<std::uint64_t, std::size_t>> seen;
  for (int i = 0; i < kBatches * kPerBatch; ++i) {
    WireResponse wire;
    ASSERT_TRUE(client.ReadResponse(&wire, &error)) << error;
    ASSERT_FALSE(wire.malformed) << wire.response.error;
    EXPECT_EQ(wire.response.status, PredictStatus::kOk) << wire.response.error;
    EXPECT_TRUE(seen.emplace(wire.id, wire.index).second)
        << "duplicate response " << wire.id << "/" << wire.index;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kBatches * kPerBatch));
}

// One connection, 72 pipelined frames of mixed shapes: 1 or 32 requests,
// program and pnet queries, explain, tenant and trace_id each present or
// absent, with a malformed frame and a frame past a full window between
// them. Every frame decodes into a request vector an earlier frame of
// another shape left behind, so a field carried over shows up as a wrong
// answer, echo or explain block. Each answer must equal an in-process
// PredictBatch of the same request.
TEST(NetServer, MixedShapeFramesReuseRequestStorage) {
  constexpr std::size_t kWindow = 8;
  NetServerOptions nopts;
  nopts.max_inflight_batches = kWindow;
  TestServer ts(TwoWorkers(), nopts);
  ASSERT_TRUE(ts.ok);
  serve::ServiceOptions reference_options = TwoWorkers();
  reference_options.cache_capacity = 0;
  serve::PredictionService reference(InterfaceRegistry::Default(), reference_options);

  std::mt19937_64 rng(24);
  const auto pick = [&rng](std::uint64_t n) { return static_cast<std::size_t>(rng() % n); };
  std::uint64_t made = 0;
  const auto make_request = [&] {
    ++made;
    PredictRequest req;
    switch (pick(4)) {
      case 0:
        req = JpegRequest(512.0 * static_cast<double>(64 + pick(960)), 0.1 + 0.05 * pick(8));
        break;
      case 1:
        req.interface = "protoacc";
        req.function = "tput_protoacc_ser";
        req.attrs = {{"num_writes", 1.0 + pick(64)}, {"num_fields", 2.0 + pick(30)}};
        req.children = static_cast<int>(pick(20));
        break;
      case 2:
        req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:" + std::to_string(1 + pick(8)));
        req.attrs = {{"bits", 64.0 + pick(4096)}, {"blocks", 1.0 + pick(8)}};
        break;
      default:
        req = PnetRequest("conv", "st_cmd:" + std::to_string(1 + pick(8)));
        req.attrs = {{"words", 16.0 * (1 + pick(8))}, {"op", 4.0}};
        break;
    }
    req.explain = pick(3) == 0;
    if (pick(3) == 0) {
      req.tenant = "tenant-" + std::to_string(pick(4));
    }
    if (pick(2) == 0) {
      req.trace_id = "mixed-" + std::to_string(made);
    }
    return req;
  };

  struct Frame {
    std::vector<PredictRequest> requests;
    std::vector<PredictResponse> want;
    std::size_t answered = 0;
    bool rejected = false;
  };
  std::vector<Frame> frames(1);  // ids start at 1
  std::set<std::string> minted;  // every minted trace id is new
  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;

  const auto send = [&](bool rejected) {
    Frame frame;
    const std::size_t size = frames.size() % 2 == 0 ? 32 : 1;
    for (std::size_t i = 0; i < size; ++i) {
      frame.requests.push_back(make_request());
    }
    frame.rejected = rejected;
    frame.want = rejected ? std::vector<PredictResponse>() : reference.PredictBatch(frame.requests);
    ASSERT_TRUE(client.SendBatch(frames.size(), frame.requests, &error)) << error;
    frames.push_back(std::move(frame));
  };
  std::size_t unanswered_frames = 0;
  bool saw_malformed = false;
  const auto read_one = [&] {
    WireResponse wire;
    ASSERT_TRUE(client.ReadResponse(&wire, &error)) << error;
    if (wire.malformed) {
      EXPECT_EQ(wire.id, 0u);
      EXPECT_NE(wire.response.error.find("expected"), std::string::npos) << wire.response.error;
      saw_malformed = true;
      return;
    }
    ASSERT_GE(wire.id, 1u);
    ASSERT_LT(wire.id, frames.size());
    Frame& frame = frames[wire.id];
    ASSERT_LT(wire.index, frame.requests.size());
    const PredictRequest& req = frame.requests[wire.index];
    const PredictResponse& got = wire.response;
    const std::string where = StrFormat("frame %llu request %zu",
                                        static_cast<unsigned long long>(wire.id), wire.index);
    if (frame.rejected) {
      EXPECT_EQ(got.status, PredictStatus::kRejected) << where;
      EXPECT_EQ(got.error, "too many batches in flight on this connection") << where;
      EXPECT_EQ(got.explain.representation, req.explain ? "rejected" : "") << where;
    } else {
      const PredictResponse& want = frame.want[wire.index];
      EXPECT_EQ(got.status, want.status) << where << ": " << got.error;
      EXPECT_EQ(got.error, want.error) << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value), std::bit_cast<std::uint64_t>(want.value))
          << where;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.throughput),
                std::bit_cast<std::uint64_t>(want.throughput))
          << where;
    }
    EXPECT_EQ(got.explain.filled, req.explain) << where;
    EXPECT_EQ(got.tenant, req.tenant) << where;
    if (req.trace_id.empty()) {
      EXPECT_EQ(got.trace_id.size(), 16u) << where;
      EXPECT_TRUE(minted.insert(got.trace_id).second) << where << ": " << got.trace_id;
    } else {
      EXPECT_EQ(got.trace_id, req.trace_id) << where;
    }
    if (++frame.answered == frame.requests.size()) {
      --unanswered_frames;
    }
  };
  // Closed loop with at most kWindow frames unanswered, so none is refused.
  const auto send_frames = [&](std::size_t n) {
    for (std::size_t f = 0; f < n; ++f) {
      while (unanswered_frames >= kWindow) {
        read_one();
      }
      send(false);
      ++unanswered_frames;
    }
  };
  const auto drain = [&] {
    while (unanswered_frames > 0) {
      read_one();
    }
  };

  send_frames(30);
  ASSERT_TRUE(client.SendRaw("{\"id\":0,\"requests\":[{\"interface\":}]}\n", &error)) << error;
  send_frames(10);
  drain();
  ASSERT_TRUE(saw_malformed);

  // Park both workers in completion callbacks, fill the window, and send
  // one frame past it: it is answered REJECTED at once.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::size_t parked = 0;
  std::vector<serve::PredictionService::BatchHandle> blockers;
  for (std::size_t w = 0; w < ts.service.num_workers(); ++w) {
    blockers.push_back(ts.service.SubmitBatch(
        std::vector<PredictRequest>{JpegRequest(65536, 0.2)},
        [&](std::size_t, const PredictResponse&) {
          std::unique_lock<std::mutex> lock(mu);
          ++parked;
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        }));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == ts.service.num_workers(); });
  }
  send_frames(kWindow);
  send(/*rejected=*/true);
  ++unanswered_frames;
  while (frames.back().answered < frames.back().requests.size()) {
    read_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (const serve::PredictionService::BatchHandle& blocker : blockers) {
    blocker.Wait();
  }
  drain();

  send_frames(72 - frames.size() + 1);
  drain();
  EXPECT_EQ(frames.size(), 73u);
  for (std::size_t id = 1; id < frames.size(); ++id) {
    EXPECT_EQ(frames[id].answered, frames[id].requests.size()) << "frame " << id;
  }
}

TEST(NetServer, MalformedFramesNeverKillTheConnection) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;

  // Hand-written hostile frames interleaved with real batches on ONE
  // connection. Each earns exactly one error line; none kill the loop.
  const std::vector<std::string> hostile = {
      "{not json at all\n",
      "{\"id\":8,\"requests\":[]}\n",
      "{\"id\":9,\"requests\":[{\"interface\":\"x\",\"rep\":\"bogus\"}]}\n",
  };
  ASSERT_TRUE(client.SendBatch(1, {JpegRequest(65536, 0.2)}, &error)) << error;
  WireResponse wire;
  ASSERT_TRUE(client.ReadResponse(&wire, &error)) << error;
  EXPECT_FALSE(wire.malformed);
  EXPECT_EQ(wire.id, 1u);

  for (const std::string& frame : hostile) {
    ASSERT_TRUE(client.SendRaw(frame, &error)) << error;
    WireResponse bad;
    ASSERT_TRUE(client.ReadResponse(&bad, &error)) << error;
    EXPECT_TRUE(bad.malformed) << frame;
    // The connection survived: a valid frame still round-trips.
    std::vector<PredictResponse> responses;
    ASSERT_TRUE(client.Call({JpegRequest(2048, 0.3)}, &responses, &error)) << frame << ": " << error;
    EXPECT_EQ(responses[0].status, PredictStatus::kOk);
  }
}

// The cache key's regression over the wire, where a forged attribute name
// arrives escaped: B's one attribute is named after the text key A once
// built, and B after A on one connection must answer what B answers on a
// fresh server.
TEST(NetServer, AttributeNameCannotForgeAnotherRequestsCacheKey) {
  const std::string a =
      R"({"id":1,"requests":{"interface":"jpeg_decoder","function":"latency_jpeg_decode",)"
      R"("attrs":{"compress_rate":0.2,"orig_size":65536}}})" "\n";
  const std::string b =
      R"({"id":2,"requests":{"interface":"jpeg_decoder","function":"latency_jpeg_decode",)"
      R"("attrs":{"compress_rate=0.20000000000000001\u001forig_size":65536}}})" "\n";
  const auto last_answer = [](const std::vector<std::string>& frames) {
    TestServer ts;
    EXPECT_TRUE(ts.ok);
    NetClient client;
    std::string error;
    EXPECT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
    WireResponse wire;
    for (const std::string& frame : frames) {
      EXPECT_TRUE(client.SendRaw(frame, &error)) << error;
      EXPECT_TRUE(client.ReadResponse(&wire, &error)) << error;
      EXPECT_FALSE(wire.malformed) << wire.response.error;
    }
    return wire.response;
  };
  const PredictResponse alone = last_answer({b});
  EXPECT_EQ(alone.status, PredictStatus::kError);
  EXPECT_NE(alone.error.find("has no attribute 'orig_size'"), std::string::npos) << alone.error;
  const PredictResponse after = last_answer({a, b});
  EXPECT_EQ(after.status, alone.status);
  EXPECT_EQ(after.error, alone.error);
  EXPECT_FALSE(after.cache_hit);
}

// A request whose net delay divides by zero (jpeg vld with the attributes
// left at 0) used to abort the server process. Over the wire it must earn
// an ERROR line naming the transition, and the same connection must answer
// the next request.
TEST(NetServer, NetExpressionErrorEarnsErrorLineAndConnectionSurvives) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  ASSERT_TRUE(client.SendRaw("{\"id\":1,\"requests\":{\"interface\":\"jpeg_decoder\","
                             "\"rep\":\"pnet\",\"entry_place\":\"hdr_in:1,vld_in:1\"}}\n",
                             &error))
      << error;
  WireResponse failed;
  ASSERT_TRUE(client.ReadResponse(&failed, &error)) << error;
  EXPECT_FALSE(failed.malformed);
  EXPECT_EQ(failed.id, 1u);
  EXPECT_EQ(failed.response.status, PredictStatus::kError);
  EXPECT_NE(failed.response.error.find("transition 'vld'"), std::string::npos)
      << failed.response.error;

  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call({PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8"),
                           JpegRequest(65536, 0.2)},
                          &responses, &error))
      << error;
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, PredictStatus::kOk) << responses[0].error;
  EXPECT_EQ(responses[1].status, PredictStatus::kOk) << responses[1].error;
}

// max_steps is a client field that decodes up to UINT64_MAX, so it cannot
// be what bounds an injection plan: a plan past the fixed cap earns a
// RESOURCE_EXHAUSTED line before any token is allocated, and the
// connection keeps answering.
TEST(NetServer, PlanPastTheCapEarnsResourceExhaustedAndConnectionSurvives) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  ASSERT_TRUE(client.SendRaw("{\"id\":1,\"requests\":{\"interface\":\"jpeg_decoder\","
                             "\"rep\":\"pnet\",\"entry_place\":\"vld_in:2147483647\","
                             "\"max_steps\":18446744073709551615}}\n",
                             &error))
      << error;
  WireResponse capped;
  ASSERT_TRUE(client.ReadResponse(&capped, &error)) << error;
  EXPECT_FALSE(capped.malformed);
  EXPECT_EQ(capped.id, 1u);
  EXPECT_EQ(capped.response.status, PredictStatus::kResourceExhausted)
      << capped.response.error;
  EXPECT_NE(capped.response.error.find("exceeds the cap"), std::string::npos)
      << capped.response.error;

  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call({PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8"),
                           JpegRequest(65536, 0.2)},
                          &responses, &error))
      << error;
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, PredictStatus::kOk) << responses[0].error;
  EXPECT_EQ(responses[1].status, PredictStatus::kOk) << responses[1].error;
}

TEST(NetServer, OversizedFrameEarnsErrorLineAndResync) {
  NetServerOptions nopts;
  nopts.max_frame_bytes = 256;
  TestServer ts(TwoWorkers(), nopts);
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  std::string huge = "{\"id\":1,\"junk\":\"" + std::string(4096, 'x') + "\"}\n";
  ASSERT_TRUE(client.SendRaw(huge, &error)) << error;
  WireResponse wire;
  ASSERT_TRUE(client.ReadResponse(&wire, &error)) << error;
  EXPECT_TRUE(wire.malformed);
  EXPECT_NE(wire.response.error.find("max_frame_bytes"), std::string::npos)
      << wire.response.error;
  // The stream resynchronized: the next (valid) frame round-trips.
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call({JpegRequest(65536, 0.2)}, &responses, &error)) << error;
  EXPECT_EQ(responses[0].status, PredictStatus::kOk);
}

TEST(NetServer, BackpressureSurfacesAsRejectedLines) {
  NetServerOptions nopts;
  nopts.max_inflight_batches = 0;  // every frame is over the window
  TestServer ts(TwoWorkers(), nopts);
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  const std::vector<PredictRequest> batch = {JpegRequest(65536, 0.2), JpegRequest(1024, 0.5)};
  ASSERT_TRUE(client.SendBatch(5, batch, &error)) << error;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    WireResponse wire;
    ASSERT_TRUE(client.ReadResponse(&wire, &error)) << error;
    EXPECT_FALSE(wire.malformed);
    EXPECT_EQ(wire.id, 5u);
    EXPECT_EQ(wire.response.status, PredictStatus::kRejected);
    EXPECT_NE(wire.response.error.find("in flight"), std::string::npos);
  }
}

// Regression: the oversized check ran against the newline offset before
// the CRLF strip, so a frame of exactly max_frame_bytes was kOversized
// when CRLF-terminated but kFrame when LF-terminated. The boundary must
// be on *payload* bytes for both terminators, at every split point.
TEST(FrameReader, FrameOfExactlyMaxBytesPopsForBothTerminators) {
  const std::string payload(8, 'a');
  for (const char* terminator : {"\n", "\r\n"}) {
    FrameReader reader(8);
    const std::string stream = payload + terminator;
    std::vector<std::string> frames;
    for (const char c : stream) {  // byte-at-a-time: every recv split
      reader.Append(&c, 1);
      std::string frame;
      while (reader.Pop(&frame) == FrameReader::Next::kFrame) {
        frames.push_back(frame);
      }
    }
    ASSERT_EQ(frames.size(), 1u) << "terminator " << (terminator[0] == '\n' ? "LF" : "CRLF");
    EXPECT_EQ(frames[0], payload);
  }
}

TEST(FrameReader, FrameOfMaxPlusOneBytesIsOversizedForBothTerminators) {
  const std::string payload(9, 'a');
  for (const char* terminator : {"\n", "\r\n"}) {
    FrameReader reader(8);
    const std::string stream = payload + terminator + "ok\n";
    std::size_t oversized = 0;
    std::vector<std::string> frames;
    for (const char c : stream) {
      reader.Append(&c, 1);
      std::string frame;
      for (;;) {
        const FrameReader::Next next = reader.Pop(&frame);
        if (next == FrameReader::Next::kOversized) {
          ++oversized;
        } else if (next == FrameReader::Next::kFrame) {
          frames.push_back(frame);
        } else {
          break;
        }
      }
    }
    EXPECT_EQ(oversized, 1u);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "ok");  // resynchronized after the bad frame
  }
}

TEST(FrameReader, PendingCarriageReturnAtCapIsNotCountedAgainstPayload) {
  // max_frame_bytes of payload plus a buffered '\r' with no '\n' yet: the
  // CR may turn out to be CRLF framing, so the reader must keep waiting
  // instead of entering oversized-skip mode and eating the frame.
  FrameReader reader(8);
  const std::string head = std::string(8, 'b') + "\r";
  std::string frame;
  for (const char c : head) {
    reader.Append(&c, 1);
    EXPECT_EQ(reader.Pop(&frame), FrameReader::Next::kNeedMore);
  }
  reader.Append("\n", 1);
  ASSERT_EQ(reader.Pop(&frame), FrameReader::Next::kFrame);
  EXPECT_EQ(frame, std::string(8, 'b'));
}

// A seeded 4096-line stream (LF and CRLF lines, stray CRs, lines just past
// the cap, one line several reads long) fed at random split points must
// pop exactly what a straight split of the whole stream gives: each line
// as a frame with one trailing '\r' stripped, or one kOversized report when
// that content is over the cap. After every drained Append, buffered() is
// the unterminated tail, or 0 once that tail has outgrown the cap (it is
// being skipped).
TEST(FrameReader, SeededStreamMatchesReferenceSplitterAtRandomSplits) {
  constexpr std::size_t kMax = 64;
  constexpr std::size_t kLines = 4096;
  std::mt19937_64 rng(15);
  std::string stream;
  for (std::size_t line = 0; line < kLines; ++line) {
    std::string content;
    if (line == kLines / 4) {
      content.assign(5 * kMax, 'o');
    } else {
      content.resize(rng() % (kMax + 3));  // a few lines land past the cap
      for (char& c : content) {
        c = rng() % 16 == 0 ? '\r' : static_cast<char>('!' + rng() % 90);
      }
    }
    stream += content;
    stream += rng() % 2 == 0 ? "\n" : "\r\n";
  }

  // (oversized, frame) per line of the reference split.
  std::vector<std::pair<bool, std::string>> expected;
  for (std::size_t begin = 0; begin < stream.size();) {
    const std::size_t nl = stream.find('\n', begin);
    std::string content = stream.substr(begin, nl - begin);
    if (!content.empty() && content.back() == '\r') {
      content.pop_back();
    }
    if (content.size() > kMax) {
      expected.emplace_back(true, "");
    } else {
      expected.emplace_back(false, content);
    }
    begin = nl + 1;
  }
  ASSERT_EQ(expected.size(), kLines);

  FrameReader reader(kMax);
  std::vector<std::pair<bool, std::string>> popped;
  std::size_t fed = 0;
  std::size_t tail_start = 0;  // first byte of the unterminated line
  bool tail_skipped = false;
  while (fed < stream.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng() % 300, stream.size() - fed);
    reader.Append(stream.data() + fed, n);
    fed += n;
    std::string frame;
    for (;;) {
      const FrameReader::Next next = reader.Pop(&frame);
      if (next == FrameReader::Next::kNeedMore) {
        break;
      }
      popped.emplace_back(next == FrameReader::Next::kOversized, frame);
    }
    const std::size_t last_nl = stream.rfind('\n', fed - 1);
    const std::size_t line_start = last_nl == std::string::npos ? 0 : last_nl + 1;
    if (line_start != tail_start) {
      tail_start = line_start;
      tail_skipped = false;
    }
    const std::size_t tail = fed - line_start;
    // The cap gets one byte of headroom while the tail ends in a '\r' that
    // may yet be CRLF framing.
    if (tail > kMax + (tail > 0 && stream[fed - 1] == '\r' ? 1 : 0)) {
      tail_skipped = true;
    }
    ASSERT_EQ(reader.buffered(), tail_skipped ? 0 : tail) << "after " << fed << " bytes";
  }
  ASSERT_EQ(popped.size(), expected.size());
  std::size_t oversized = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(popped[i], expected[i]) << "line " << i;
    oversized += expected[i].first ? 1 : 0;
  }
  EXPECT_GT(oversized, 1u);
}

// The encoders append in one pass (std::to_chars for integers and
// doubles), and their bytes must be exactly what the printf
// formats of the wire spec ("%llu", "%lld", "%.17g") print. Golden lines
// pin every field; the seeded doubles pin "%.17g" across the whole range.
TEST(WireCodec, EncodersAreByteIdenticalToPrintf) {
  for (const auto& [status, name] : std::vector<std::pair<PredictStatus, std::string>>{
           {PredictStatus::kOk, "OK"},
           {PredictStatus::kError, "ERROR"},
           {PredictStatus::kNotFound, "NOT_FOUND"},
           {PredictStatus::kDeadlineExceeded, "DEADLINE_EXCEEDED"},
           {PredictStatus::kResourceExhausted, "RESOURCE_EXHAUSTED"},
           {PredictStatus::kRejected, "REJECTED"}}) {
    PredictResponse resp;
    resp.status = status;
    resp.value = 1.25e6;
    resp.throughput = 0.125;
    resp.cache_hit = true;
    resp.eval_ns = 42;
    std::string line;
    EncodeResponseLine(9, 4, resp, &line);
    EXPECT_EQ(line, "{\"id\":9,\"index\":4,\"status\":\"" + name +
                        "\",\"value\":1250000,\"throughput\":0.125,\"cache_hit\":true,"
                        "\"eval_ns\":42}\n");
  }

  PredictResponse full;
  full.status = PredictStatus::kError;
  full.error = "bad \"x\"\n\x01";
  full.value = 0.1;
  full.throughput = 0;
  full.eval_ns = UINT64_MAX;
  full.trace_id = "cafe0123";
  full.tenant = "acme";
  full.explain.filled = true;
  full.explain.representation = "pnet-derived";
  full.explain.cache = "miss";
  full.explain.queue_wait_ns = 7;
  full.explain.eval_ns = 8;
  full.explain.steps = 9;
  full.explain.memo_components = 3;
  full.explain.derived_hits = 1;
  full.explain.deadline_limited = true;
  full.explain.shadowed = true;
  full.explain.shadow_truth = 1e-320;
  full.explain.shadow_rel_err = -0.0;
  std::string line = "prefix:";  // encoders append
  EncodeResponseLine(UINT64_MAX, 1023, full, &line);
  EXPECT_EQ(line,
            "prefix:{\"id\":18446744073709551615,\"index\":1023,\"status\":\"ERROR\","
            "\"error\":\"bad \\\"x\\\"\\n\\u0001\",\"value\":0.10000000000000001,"
            "\"throughput\":0,\"cache_hit\":false,\"eval_ns\":18446744073709551615,"
            "\"trace_id\":\"cafe0123\",\"tenant\":\"acme\",\"explain\":{"
            "\"representation\":\"pnet-derived\",\"cache\":\"miss\",\"queue_wait_ns\":7,"
            "\"eval_ns\":8,\"steps\":9,\"memo_components\":3,"
            "\"derived_hits\":1,\"deadline_limited\":true,\"shadowed\":true,"
            "\"shadow_truth\":9.9998886718268301e-321,\"shadow_rel_err\":-0}}\n");

  line.clear();
  EncodeMalformedLine(13, "bad \"frame\"\n", &line);
  EXPECT_EQ(line, "{\"id\":13,\"malformed\":true,\"error\":\"bad \\\"frame\\\"\\n\"}\n");

  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.representation = Representation::kPnet;
  req.function = "latency_jpeg_decode";
  req.attrs = {{"orig_size", 65536.0}, {"compress_rate", 0.2}, {"weird \"name\"", 1.25}};
  req.children = 3;
  req.entry_place = "hdr_in:1,vld_in:8";
  req.tokens = 9;
  req.max_steps = 18'446'744'073'709'551'613ULL;
  req.deadline_us = INT64_MAX - 1;
  req.trace_id = "t1";
  req.explain = true;
  req.tenant = "acme";
  line.clear();
  EncodeRequestFrame(77, {req, JpegRequest(1024, 0.5)}, &line);
  EXPECT_EQ(line,
            "{\"id\":77,\"requests\":[{\"interface\":\"jpeg_decoder\",\"rep\":\"pnet\","
            "\"function\":\"latency_jpeg_decode\",\"attrs\":{\"orig_size\":65536,"
            "\"compress_rate\":0.20000000000000001,\"weird \\\"name\\\"\":1.25},"
            "\"children\":3,\"entry_place\":\"hdr_in:1,vld_in:8\",\"tokens\":9,"
            "\"max_steps\":18446744073709551613,\"deadline_us\":9223372036854775806,"
            "\"trace_id\":\"t1\",\"explain\":true,\"tenant\":\"acme\"},"
            "{\"interface\":\"jpeg_decoder\",\"rep\":\"auto\",\"function\":\"latency_jpeg_decode\","
            "\"attrs\":{\"orig_size\":1024,\"compress_rate\":0.5}}]}\n");

  // Integers: the extremes, then seeded values of every width and sign,
  // through the signed and unsigned request fields.
  std::vector<std::pair<std::uint64_t, std::int64_t>> ints = {
      {UINT64_MAX, INT64_MIN}, {1, -1}, {0, INT64_MAX}};
  std::mt19937_64 rng(7);
  while (ints.size() < 10'000) {
    const std::uint64_t u = rng() >> (rng() % 64);
    ints.emplace_back(u, static_cast<std::int64_t>(rng()) >> (rng() % 64));
  }
  for (const auto& [u, i] : ints) {
    PredictRequest r;
    r.interface = "x";
    r.children = static_cast<int>(i);
    r.max_steps = u;
    r.deadline_us = i;
    line.clear();
    EncodeRequestFrame(u, {r}, &line);
    std::string expected =
        StrFormat("{\"id\":%llu,\"requests\":[{\"interface\":\"x\",\"rep\":\"auto\"",
                  static_cast<unsigned long long>(u));
    if (r.children != 0) {
      expected += StrFormat(",\"children\":%d", r.children);
    }
    if (u != 0) {
      expected += StrFormat(",\"max_steps\":%llu", static_cast<unsigned long long>(u));
    }
    if (i != 0) {
      expected += StrFormat(",\"deadline_us\":%lld", static_cast<long long>(i));
    }
    expected += "}]}\n";
    ASSERT_EQ(line, expected);
  }

  // Doubles: the extremes, then seeded bit patterns (every exponent,
  // subnormals, NaNs) and integers at or past 2^53.
  std::vector<double> doubles = {0.0,
                                 -0.0,
                                 std::numeric_limits<double>::denorm_min(),
                                 -std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::min(),
                                 std::numeric_limits<double>::max(),
                                 -std::numeric_limits<double>::max(),
                                 1e308,
                                 -1e308,
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN(),
                                 9007199254740992.0,
                                 9007199254740993.0};
  while (doubles.size() < 100'000) {
    const std::uint64_t bits = rng();
    doubles.push_back(std::bit_cast<double>(bits));
    doubles.push_back(static_cast<double>((bits >> 11) + (std::uint64_t{1} << 53)) *
                      static_cast<double>(1 + rng() % 1024));
  }
  for (const double d : doubles) {
    PredictResponse resp;
    resp.status = PredictStatus::kOk;
    resp.value = d;
    resp.throughput = -d;
    line.clear();
    EncodeResponseLine(1, 0, resp, &line);
    const std::string expected =
        StrFormat("{\"id\":1,\"index\":0,\"status\":\"OK\",\"value\":%.17g,\"throughput\":%.17g,"
                  "\"cache_hit\":false,\"eval_ns\":0}\n",
                  d, -d);
    ASSERT_EQ(line, expected);
  }
}

TEST(WireCodec, TenantRoundTripsThroughFrameAndResponseLine) {
  PredictRequest req = JpegRequest(65536, 0.2);
  req.tenant = "acme-prod";
  std::string frame;
  EncodeRequestFrame(11, {req}, &frame);
  EXPECT_NE(frame.find("\"tenant\":\"acme-prod\""), std::string::npos) << frame;

  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestFrame(std::string_view(frame).substr(0, frame.size() - 1), &id,
                                 &decoded, &error))
      << error;
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].tenant, "acme-prod");

  PredictResponse resp;
  resp.status = PredictStatus::kOk;
  resp.value = 1.5;
  resp.tenant = "acme-prod";
  std::string line;
  EncodeResponseLine(11, 0, resp, &line);
  WireResponse wire;
  ASSERT_TRUE(
      DecodeResponseLine(std::string_view(line).substr(0, line.size() - 1), &wire, &error))
      << error;
  EXPECT_EQ(wire.response.tenant, "acme-prod");
}

TEST(WireCodec, TenantOverSixtyFourBytesIsRejected) {
  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  const std::string frame = "{\"id\":1,\"requests\":[{\"interface\":\"x\",\"tenant\":\"" +
                            std::string(65, 't') + "\"}]}";
  EXPECT_FALSE(DecodeRequestFrame(frame, &id, &decoded, &error));
  EXPECT_NE(error.find("tenant"), std::string::npos) << error;
}

// Regression: the single-object "requests" shorthand must decode through
// the same field set as the array form — tenant and trace_id used to be
// easy to lose when the two paths diverge.
TEST(WireCodec, SingleObjectShorthandKeepsTenantAndTraceId) {
  std::uint64_t id = 0;
  std::vector<PredictRequest> decoded;
  std::string error;
  ASSERT_TRUE(DecodeRequestFrame(
      R"({"id":4,"requests":{"interface":"jpeg_decoder","function":"f",)"
      R"("tenant":"acme","trace_id":"cafe0123"}})",
      &id, &decoded, &error))
      << error;
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].tenant, "acme");
  EXPECT_EQ(decoded[0].trace_id, "cafe0123");
}

// Regression for the backpressure path: serve-layer rejections echo the
// request's trace_id/tenant and honor `explain`, but the net-layer
// REJECTED lines used to ship bare (same status, none of the provenance),
// so a pipelining client could not match shed lines to its requests.
TEST(NetServer, BackpressureRejectionsCarryTraceTenantAndExplain) {
  NetServerOptions nopts;
  nopts.max_inflight_batches = 0;  // every frame is over the window
  TestServer ts(TwoWorkers(), nopts);
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  ASSERT_TRUE(client.SendRaw(
      "{\"id\":6,\"requests\":["
      "{\"interface\":\"jpeg_decoder\",\"function\":\"latency_jpeg_decode\","
      "\"attrs\":{\"orig_size\":65536,\"compress_rate\":0.2},"
      "\"trace_id\":\"feed0001\",\"tenant\":\"acme\",\"explain\":true},"
      "{\"interface\":\"jpeg_decoder\",\"function\":\"latency_jpeg_decode\","
      "\"attrs\":{\"orig_size\":1024,\"compress_rate\":0.5},\"tenant\":\"acme\"}]}\n",
      &error))
      << error;
  for (std::size_t i = 0; i < 2; ++i) {
    WireResponse wire;
    ASSERT_TRUE(client.ReadResponse(&wire, &error)) << error;
    ASSERT_FALSE(wire.malformed);
    EXPECT_EQ(wire.id, 6u);
    EXPECT_EQ(wire.response.status, PredictStatus::kRejected);
    EXPECT_NE(wire.response.error.find("in flight"), std::string::npos);
    // Every rejection line is attributable: trace id (client-sent or
    // server-minted) and tenant echo, like serve-layer rejections.
    EXPECT_FALSE(wire.response.trace_id.empty()) << wire.index;
    EXPECT_EQ(wire.response.tenant, "acme") << wire.index;
    if (wire.index == 0) {
      EXPECT_EQ(wire.response.trace_id, "feed0001");
      // The explain-flagged request gets the same presence contract as a
      // serve-layer shed: filled, with rejection provenance.
      EXPECT_TRUE(wire.response.explain.filled);
      EXPECT_EQ(wire.response.explain.representation, "rejected");
      EXPECT_EQ(wire.response.explain.cache, "not_consulted");
    } else {
      EXPECT_FALSE(wire.response.explain.filled);
    }
  }
}

TEST(NetServer, TenantEchoesThroughLoopbackAndAdmissionShedsOverQuota) {
  // Quota-only admission over the wire: a dry token bucket surfaces as a
  // REJECTED line naming the quota, with the tenant echoed; the admission
  // counters and the /statusz tenant block both move.
  serve::ServiceOptions sopts = TwoWorkers();
  serve::TenantQuota quota;
  quota.qps = 0.001;  // refills far too slowly to matter mid-test
  quota.burst = 2;
  sopts.admission.tenant_quotas.emplace_back("acme", quota);
  TestServer ts(sopts);
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  std::vector<PredictRequest> batch;
  for (int i = 0; i < 4; ++i) {
    PredictRequest req = JpegRequest(65536 + i, 0.2);
    req.tenant = "acme";
    batch.push_back(req);
  }
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call(batch, &responses, &error)) << error;
  ASSERT_EQ(responses.size(), 4u);
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (const PredictResponse& r : responses) {
    EXPECT_EQ(r.tenant, "acme");
    if (r.status == PredictStatus::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(r.status, PredictStatus::kRejected);
      EXPECT_NE(r.error.find("quota"), std::string::npos) << r.error;
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2u);  // the burst
  EXPECT_EQ(shed, 2u);
  EXPECT_EQ(ts.service.metrics().admission_shed_quota(), 2u);

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet("127.0.0.1", ts.server.port(), "/statusz", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"admission\""), std::string::npos);
  EXPECT_NE(body.find("\"tenant\":\"acme\""), std::string::npos) << body;
}

// A tenant is client bytes (up to 64), and /statusz is JSON: a tab and a
// control byte in a tenant name must come back escaped, so the document
// parses and names the tenant byte for byte.
TEST(NetServerHttp, StatuszEscapesControlBytesInTenantNames) {
  serve::ServiceOptions sopts = TwoWorkers();
  sopts.admission.shed_deadline = true;
  TestServer ts(sopts);
  ASSERT_TRUE(ts.ok);

  // Encoded on the wire as "tenant":"a\tb\u0001".
  const std::string tenant("a\tb\x01");
  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  PredictRequest req = JpegRequest(65536, 0.2);
  req.tenant = tenant;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call({req}, &responses, &error)) << error;
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, PredictStatus::kOk) << responses[0].error;
  EXPECT_EQ(responses[0].tenant, tenant);

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet("127.0.0.1", ts.server.port(), "/statusz", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(body, &doc, &error)) << error << ": " << body;
  const JsonValue* admission = doc.Find("admission");
  ASSERT_NE(admission, nullptr);
  const JsonValue* tenants = admission->Find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->kind, JsonValue::Kind::kArray);
  bool found = false;
  for (const auto& row : tenants->array) {
    const JsonValue* name = row->Find("tenant");
    ASSERT_NE(name, nullptr);
    found = found || name->str == tenant;
  }
  EXPECT_TRUE(found) << body;
}

// StatsJson is JSON too: a hostile interface name comes back escaped and
// decodes to the original bytes.
TEST(ServiceMetricsJson, HostileInterfaceNamesKeepStatsJsonParseable) {
  const std::string hostile = "evil\"name\\with\nnewline\x01";
  serve::ServiceMetrics metrics({hostile, "plain"});
  JsonValue doc;
  std::string error;
  const std::string json = metrics.DumpJson(0);
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error << ": " << json;
  const JsonValue* rows = doc.Find("interfaces");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 2u);
  ASSERT_NE(rows->array[0]->Find("interface"), nullptr);
  EXPECT_EQ(rows->array[0]->Find("interface")->str, hostile);
}

TEST(NetServer, ConnectionCapRefusesExtraClients) {
  NetServerOptions nopts;
  nopts.max_connections = 1;
  TestServer ts(TwoWorkers(), nopts);
  ASSERT_TRUE(ts.ok);

  NetClient first;
  std::string error;
  ASSERT_TRUE(first.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(first.Call({JpegRequest(65536, 0.2)}, &responses, &error)) << error;

  // The first connection is still open, so the second is over the cap: the
  // server closes it immediately and the read sees EOF.
  NetClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  second.SendBatch(1, {JpegRequest(1, 0.1)}, &error);
  WireResponse wire;
  EXPECT_FALSE(second.ReadResponse(&wire, &error));
}

TEST(NetServer, HugeDeadlineOverTheWireIsNotSpuriouslyExceeded) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);

  PredictRequest req = JpegRequest(65536, 0.2);
  req.deadline_us = INT64_MAX;  // pre-fix: the budget multiply wrapped
  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call({req}, &responses, &error)) << error;
  EXPECT_EQ(responses[0].status, PredictStatus::kOk) << responses[0].error;
}

TEST(NetServer, GracefulStopDrainsAndCloses) {
  auto ts = std::make_unique<TestServer>(TwoWorkers());
  ASSERT_TRUE(ts->ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts->server.port(), &error)) << error;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call({JpegRequest(65536, 0.2)}, &responses, &error)) << error;

  ts->server.Stop();
  ts->server.Stop();  // idempotent
  EXPECT_EQ(ts->server.open_connections(), 0u);
  // The half-close propagated: the client's next read sees EOF.
  WireResponse wire;
  EXPECT_FALSE(client.ReadResponse(&wire, &error));
  ts.reset();  // destructor Stop + service Shutdown must also be clean
}

// Chaos: Stop() while one connection holds a full pipelining window of
// slow frames (a jpeg plan the derived tier refuses, cache off) and four
// frames past it. Stop() returns once the window drains; the client reads
// only whole lines, every frame is answered in full or not at all, and the
// connection then reads EOF.
TEST(NetServer, StopWithAFullPipeliningWindow) {
  serve::ServiceOptions sopts = TwoWorkers();
  sopts.cache_capacity = 0;
  NetServerOptions nopts;
  nopts.max_inflight_batches = 4;
  TestServer ts(sopts, nopts);
  ASSERT_TRUE(ts.ok);

  constexpr std::size_t kFrames = 4 + 4;  // the window, then four past it
  constexpr std::size_t kPerFrame = 2;
  std::string frames;
  for (std::size_t f = 1; f <= kFrames; ++f) {
    std::vector<PredictRequest> batch;
    for (std::size_t i = 0; i < kPerFrame; ++i) {
      PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:5500");
      req.attrs = {{"bits", 800.0 + static_cast<double>(f * kPerFrame + i)}, {"blocks", 8.0}};
      batch.push_back(std::move(req));
    }
    EncodeRequestFrame(f, batch, &frames);
  }
  const int fd = ConnectLoopback(ts.server.port());
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, frames.data(), frames.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frames.size()));

  // Once every frame past the window has been answered REJECTED, the
  // server has read them all and its window is full: stop it then (or
  // after 5 s without a byte, so a slow host cannot hang the test).
  std::atomic<bool> stopped{false};
  std::jthread stopper;
  const auto stop = [&] {
    if (!stopper.joinable()) {
      stopper = std::jthread([&] {
        ts.server.Stop();
        stopped = true;
      });
    }
  };
  std::vector<std::size_t> lines(kFrames + 1, 0);
  std::size_t rejected = 0;
  std::string pending;
  char buf[4096];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 5'000) == 0) {
      stop();
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GE(n, 0) << std::strerror(errno);
    if (n == 0) {
      break;  // EOF
    }
    pending.append(buf, static_cast<std::size_t>(n));
    for (std::size_t nl = pending.find('\n'); nl != std::string::npos; nl = pending.find('\n')) {
      WireResponse wire;
      std::string error;
      ASSERT_TRUE(DecodeResponseLine(std::string_view(pending).substr(0, nl), &wire, &error))
          << error << ": " << pending.substr(0, nl);
      pending.erase(0, nl + 1);
      ASSERT_FALSE(wire.malformed) << wire.response.error;
      ASSERT_GE(wire.id, 1u);
      ASSERT_LE(wire.id, kFrames);
      ++lines[wire.id];
      if (wire.response.status == PredictStatus::kRejected) {
        EXPECT_NE(wire.response.error.find("in flight"), std::string::npos);
        ++rejected;
      } else {
        EXPECT_EQ(wire.response.status, PredictStatus::kOk) << wire.response.error;
      }
    }
    if (rejected == (kFrames - 4) * kPerFrame) {
      stop();
    }
  }
  ::close(fd);
  ASSERT_TRUE(stopper.joinable());
  stopper.join();
  EXPECT_TRUE(stopped.load());
  EXPECT_EQ(pending, "");  // only whole lines
  for (std::size_t f = 1; f <= kFrames; ++f) {
    EXPECT_TRUE(lines[f] == 0 || lines[f] == kPerFrame) << "frame " << f << ": " << lines[f];
  }
  EXPECT_EQ(ts.server.open_connections(), 0u);
}

// Socket writes (perfiface_net_writes_total) one frame of `requests` costs
// on a 1-worker service with 32-request chunks, counted by the server across
// sending the frame, reading every line back and stopping it (Stop drains,
// so every flush has been counted by then).
std::uint64_t WritesToAnswer(std::size_t requests, NetServerOptions nopts = {}) {
  serve::ServiceOptions sopts;
  sopts.num_workers = 1;
  sopts.batch_chunk = 32;
  TestServer ts(sopts, nopts);
  NetClient client;
  std::string error;
  EXPECT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  std::vector<PredictRequest> batch;
  for (std::size_t i = 0; i < requests; ++i) {
    batch.push_back(JpegRequest(4096.0 + static_cast<double>(i % 8), 0.2));
  }
  EXPECT_TRUE(client.SendBatch(1, batch, &error)) << error;
  for (std::size_t i = 0; i < requests; ++i) {
    WireResponse wire;
    if (!client.ReadResponse(&wire, &error) || wire.malformed) {
      ADD_FAILURE() << "line " << i << ": " << error << wire.response.error;
      break;
    }
  }
  ts.server.Stop();
  return ts.server.counts().writes;
}

TEST(NetServer, ResponsesGoOutOneWritePerWorkerChunk) {
  EXPECT_EQ(WritesToAnswer(64), 2u);  // two chunks of 32
  EXPECT_EQ(WritesToAnswer(1), 1u);   // written the moment it resolves
  NetServerOptions over_window;
  over_window.max_inflight_batches = 0;  // every frame is answered REJECTED
  EXPECT_EQ(WritesToAnswer(64, over_window), 1u);
}

// Polls `done` for up to 10 s (sanitizer builds are slow).
template <typename Pred>
bool WaitUntil(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// A peer that stops reading mid-batch: once its socket buffers fill, a
// chunk's write blocks for io_timeout_ms and fails, the connection is
// marked dead, the lines still buffered (and every later chunk's) are
// dropped, every frame is still counted answered, and a Stop() issued
// while the write is stuck returns promptly.
TEST(NetServer, SlowReaderTimesOutMidBatchAndBufferedLinesAreDropped) {
  NetServerOptions nopts;
  nopts.io_timeout_ms = 200;
  TestServer ts(TwoWorkers(), nopts);
  ASSERT_TRUE(ts.ok);

  // A small receive window, so the output outgrows the kernel's buffers
  // (the sender's send buffer tops out at a few MiB) long before the
  // batches are answered.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ts.server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_TRUE(WaitUntil([&] { return ts.server.counts().connections > 0; }));

  // 16 frames x 1024 explain lines echoing a long tenant: ~7 MiB of
  // responses to ~2 MiB of requests.
  PredictRequest req = JpegRequest(65536, 0.2);
  req.tenant = std::string(64, 'n');
  req.explain = true;
  std::string frame;
  EncodeRequestFrame(1, std::vector<PredictRequest>(1024, req), &frame);
  std::uint64_t frames_sent = 0;
  for (; frames_sent < 16; ++frames_sent) {
    // A slow (sanitized) server may time the write out and kill the
    // connection before every frame is in.
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    if (sent < frame.size()) {
      break;
    }
  }

  // Every request evaluated (its line sent, buffered or dropped), or the
  // connection already killed; the peer never reads either way.
  ASSERT_TRUE(WaitUntil([&] {
    return ts.service.metrics().total_requests() == frames_sent * 1024 ||
           ts.server.open_connections() == 0;
  }));
  const auto stop_start = std::chrono::steady_clock::now();
  ts.server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_start, std::chrono::seconds(2));
  EXPECT_EQ(ts.server.open_connections(), 0u);
  EXPECT_EQ(ts.service.metrics().inflight_batches(), 0);

  // The shortest line any of those requests can earn, times the requests
  // answered: what the server would have sent had it dropped nothing.
  PredictResponse shortest;
  shortest.status = PredictStatus::kOk;
  shortest.trace_id = serve::GenerateTraceId();
  shortest.tenant = req.tenant;
  shortest.explain.filled = true;
  shortest.explain.representation = "cache";
  shortest.explain.cache = "hit";
  std::string line;
  EncodeResponseLine(1, 0, shortest, &line);
  const std::uint64_t answered = ts.service.metrics().total_requests();
  const std::uint64_t tx = ts.server.counts().bytes_tx;
  EXPECT_GT(answered, 0u);
  EXPECT_LT(tx, answered * line.size()) << "buffered lines were not dropped";

  // What did arrive ends short of the full answer, then EOF or reset.
  std::size_t received = 0;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    received += static_cast<std::size_t>(n);
  }
  EXPECT_LE(received, tx);
  ::close(fd);
}

// A client that hangs up after the first line of a 1024-request frame: the
// rest of the frame's writes fail or drop, the connection drains and
// closes, and the server goes on serving a fresh connection.
TEST(NetServer, ClientClosingMidFrameLeavesTheServerServing) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);
  {
    NetClient quitter;
    std::string error;
    ASSERT_TRUE(quitter.Connect("127.0.0.1", ts.server.port(), &error)) << error;
    std::vector<PredictRequest> batch;
    for (std::size_t i = 0; i < 1024; ++i) {
      batch.push_back(JpegRequest(1000.0 + static_cast<double>(i), 0.2));
    }
    ASSERT_TRUE(quitter.SendBatch(1, batch, &error)) << error;
    WireResponse first;
    ASSERT_TRUE(quitter.ReadResponse(&first, &error)) << error;
    EXPECT_EQ(first.response.status, PredictStatus::kOk);
  }  // closes with the rest of the frame unread
  ASSERT_TRUE(WaitUntil([&] { return ts.server.open_connections() == 0; }));
  EXPECT_EQ(ts.service.metrics().inflight_batches(), 0);

  NetClient fresh;
  std::string error;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(fresh.Call({JpegRequest(65536, 0.2), JpegRequest(1024, 0.5)}, &responses, &error))
      << error;
  EXPECT_EQ(responses[0].status, PredictStatus::kOk);
  EXPECT_EQ(responses[1].status, PredictStatus::kOk);
}

// --- HTTP endpoints --------------------------------------------------------

TEST(NetServerHttp, HealthzAndNotFound) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);
  int status = 0;
  std::string body;
  std::string error;
  ASSERT_TRUE(HttpGet("127.0.0.1", ts.server.port(), "/healthz", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");
  ASSERT_TRUE(HttpGet("127.0.0.1", ts.server.port(), "/no_such_path", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 404);
}

// An HTTP answer reaches EOF as soon as it is written, not when the accept
// loop's next 100-ms poll reaps the connection, and Stop() does not wait
// out that poll either.
TEST(NetServerHttp, AnswersReachEofAndStopReturnsPromptly) {
  serve::PredictionService service(InterfaceRegistry::Default(), TwoWorkers());
  std::string error;
  {
    NetServer server(&service);
    ASSERT_TRUE(server.Start(&error)) << error;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 10; ++i) {
      int status = 0;
      std::string body;
      ASSERT_TRUE(HttpGet("127.0.0.1", server.port(), "/healthz", &status, &body, &error))
          << error;
      EXPECT_EQ(body, "ok\n");
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(500))
        << "10 GET /healthz, each read to EOF";
  }
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    NetServer server(&service);
    ASSERT_TRUE(server.Start(&error)) << error;
    server.Stop();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(500))
      << "10 Start/Stop cycles";
  service.Shutdown();
}

TEST(NetServerHttp, InterfacesListsRegistryWithRepresentations) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);
  int status = 0;
  std::string body;
  std::string error;
  ASSERT_TRUE(HttpGet("127.0.0.1", ts.server.port(), "/interfaces", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(body, &doc, &error)) << error;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kArray);

  // One entry per registry interface, same order, with the shipped
  // representations — conv has both, bitcoin_miner neither, vta pnet-only.
  const auto names = ts.service.InterfaceNames();
  ASSERT_EQ(doc.array.size(), names.size());
  std::set<std::string> reps_of_conv;
  std::set<std::string> reps_of_miner{"sentinel"};
  std::set<std::string> reps_of_vta;
  for (std::size_t i = 0; i < doc.array.size(); ++i) {
    const JsonValue& entry = *doc.array[i];
    ASSERT_EQ(entry.kind, JsonValue::Kind::kObject);
    const JsonValue* name = entry.Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->str, names[i]);
    const JsonValue* reps = entry.Find("representations");
    ASSERT_NE(reps, nullptr);
    ASSERT_EQ(reps->kind, JsonValue::Kind::kArray);
    std::set<std::string> rep_names;
    for (const auto& rep : reps->array) {
      rep_names.insert(rep->str);
    }
    if (name->str == "conv") {
      reps_of_conv = rep_names;
    } else if (name->str == "bitcoin_miner") {
      reps_of_miner = rep_names;
    } else if (name->str == "vta") {
      reps_of_vta = rep_names;
    }
  }
  EXPECT_EQ(reps_of_conv, (std::set<std::string>{"program", "pnet"}));
  EXPECT_EQ(reps_of_miner, std::set<std::string>{});
  EXPECT_EQ(reps_of_vta, std::set<std::string>{"pnet"});
}

TEST(NetServerHttp, MetricsScrapePassesStrictParser) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);
  // Put traffic through first so histogram families render too.
  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call({JpegRequest(65536, 0.2)}, &responses, &error)) << error;

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet("127.0.0.1", ts.server.port(), "/metrics", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);
  std::vector<testing::ExpositionSample> samples;
  ASSERT_TRUE(testing::ParseExposition(body, &samples, &error)) << error;
  const auto has = [&](const std::string& name) {
    for (const auto& s : samples) {
      if (s.name == name) {
        return true;
      }
    }
    return false;
  };
  for (const char* family :
       {"perfiface_net_connections_total", "perfiface_net_connections_rejected_total",
        "perfiface_net_bytes_rx_total", "perfiface_net_bytes_tx_total",
        "perfiface_net_writes_total", "perfiface_net_frames_malformed_total",
        "perfiface_net_batches_rejected_total", "perfiface_net_open_connections",
        "perfiface_serve_requests_total", "perfiface_pnet_runs_total"}) {
    EXPECT_TRUE(has(family)) << family;
  }
}

// Two servers in one process count only their own traffic: frames and a
// scrape on one leave the other's connection, byte and write counts at 0,
// and each server's GET /metrics renders its own counts.
TEST(NetServer, TwoServersReportDisjointNetCounts) {
  using testing::ScrapeValue;
  TestServer busy(TwoWorkers());
  TestServer idle(TwoWorkers());
  ASSERT_TRUE(busy.ok && idle.ok);
  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", busy.server.port(), &error)) << error;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call({JpegRequest(65536, 0.2), JpegRequest(4096, 0.3)}, &responses, &error))
      << error;
  int status = 0;
  std::string busy_scrape;
  ASSERT_TRUE(HttpGet("127.0.0.1", busy.server.port(), "/metrics", &status, &busy_scrape, &error))
      << error;
  // The frame's connection and this scrape's, each counted at accept.
  EXPECT_EQ(ScrapeValue(busy_scrape, "perfiface_net_connections_total"), 2.0);
  EXPECT_GT(ScrapeValue(busy_scrape, "perfiface_net_bytes_rx_total"), 0.0);

  const NetCounts untouched = idle.server.counts();
  EXPECT_EQ(untouched.connections, 0u);
  EXPECT_EQ(untouched.bytes_rx, 0u);
  EXPECT_EQ(untouched.bytes_tx, 0u);
  EXPECT_EQ(untouched.writes, 0u);
  // The idle server's scrape is rendered before its own response is
  // written: one connection (the scrape's), nothing sent yet.
  std::string idle_scrape;
  ASSERT_TRUE(HttpGet("127.0.0.1", idle.server.port(), "/metrics", &status, &idle_scrape, &error))
      << error;
  EXPECT_EQ(ScrapeValue(idle_scrape, "perfiface_net_connections_total"), 1.0);
  EXPECT_EQ(ScrapeValue(idle_scrape, "perfiface_net_bytes_tx_total"), 0.0);
  EXPECT_EQ(ScrapeValue(idle_scrape, "perfiface_net_writes_total"), 0.0);

  // Stop drains, so every write of the busy server is counted by then.
  busy.server.Stop();
  const NetCounts counted = busy.server.counts();
  EXPECT_EQ(counted.connections, 2u);
  EXPECT_GT(counted.bytes_tx, 0u);
  EXPECT_GT(counted.writes, 0u);
  EXPECT_EQ(counted.frames_malformed, 0u);
}

TEST(NetServerHttp, PostPredictRoundTrips) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);
  const std::string frame =
      "{\"id\":21,\"requests\":[{\"interface\":\"jpeg_decoder\","
      "\"function\":\"latency_jpeg_decode\","
      "\"attrs\":{\"orig_size\":65536,\"compress_rate\":0.2}}]}";
  const std::string response = RawHttp(
      ts.server.port(),
      "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: " + std::to_string(frame.size()) +
          "\r\nConnection: close\r\n\r\n" + frame);
  ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  WireResponse wire;
  std::string error;
  ASSERT_TRUE(DecodeResponseLine(std::string_view(body).substr(0, body.size() - 1), &wire,
                                 &error))
      << error << ": " << body;
  EXPECT_EQ(wire.id, 21u);
  EXPECT_EQ(wire.response.status, PredictStatus::kOk);
  EXPECT_GT(wire.response.value, 0);
}

// --- Trace context and explain over the wire -------------------------------

TEST(NetServer, TraceIdsRoundTripThroughPipelinedBatches) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;

  // Even batches carry client-supplied trace ids; odd batches leave the
  // field empty and must come back with server-generated ones. All frames
  // go out before any response is read, so ids survive interleaving.
  constexpr int kBatches = 8;
  constexpr int kPerBatch = 3;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<PredictRequest> batch;
    for (int i = 0; i < kPerBatch; ++i) {
      PredictRequest req = JpegRequest(2000.0 + b * kPerBatch + i, 0.2);
      if (b % 2 == 0) {
        req.trace_id = "client-" + std::to_string(b) + "-" + std::to_string(i);
      }
      batch.push_back(std::move(req));
    }
    ASSERT_TRUE(client.SendBatch(static_cast<std::uint64_t>(b + 1), batch, &error)) << error;
  }

  std::set<std::string> generated;
  int supplied_seen = 0;
  for (int i = 0; i < kBatches * kPerBatch; ++i) {
    WireResponse wire;
    ASSERT_TRUE(client.ReadResponse(&wire, &error)) << error;
    ASSERT_FALSE(wire.malformed) << wire.response.error;
    ASSERT_EQ(wire.response.status, PredictStatus::kOk) << wire.response.error;
    const int b = static_cast<int>(wire.id) - 1;
    if (b % 2 == 0) {
      EXPECT_EQ(wire.response.trace_id,
                "client-" + std::to_string(b) + "-" + std::to_string(wire.index));
      ++supplied_seen;
    } else {
      EXPECT_FALSE(wire.response.trace_id.empty());
      EXPECT_TRUE(generated.insert(wire.response.trace_id).second)
          << "server-generated trace ids must be unique: " << wire.response.trace_id;
    }
  }
  EXPECT_EQ(supplied_seen, kBatches / 2 * kPerBatch);
  EXPECT_EQ(generated.size(), static_cast<std::size_t>(kBatches / 2 * kPerBatch));
}

TEST(NetServer, ExplainTravelsOverTheWire) {
  serve::ServiceOptions sopts = TwoWorkers();
  sopts.cache_capacity = 64;
  TestServer ts(sopts);
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;

  PredictRequest req = JpegRequest(65536, 0.2);
  req.explain = true;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Call({req}, &responses, &error)) << error;
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok()) << responses[0].error;
  ASSERT_TRUE(responses[0].explain.filled);
  EXPECT_EQ(responses[0].explain.representation, "psc-vm");
  EXPECT_EQ(responses[0].explain.cache, "miss");
  EXPECT_GT(responses[0].explain.eval_ns, 0u);
  EXPECT_GT(responses[0].explain.steps, 0u);

  // Same query again: served from the prediction cache, and the explain
  // breakdown says so instead of pretending it was evaluated.
  ASSERT_TRUE(client.Call({req}, &responses, &error)) << error;
  ASSERT_TRUE(responses[0].explain.filled);
  EXPECT_EQ(responses[0].explain.representation, "cache");
  EXPECT_EQ(responses[0].explain.cache, "hit");

  // Explain is strictly opt-in: the plain request pays no breakdown.
  ASSERT_TRUE(client.Call({JpegRequest(65536, 0.2)}, &responses, &error)) << error;
  EXPECT_FALSE(responses[0].explain.filled);
}

TEST(NetServer, ResponseTraceIdAppearsInTraceExport) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Start({});  // sample_every = 1: record every span

  {
    TestServer ts(TwoWorkers());
    ASSERT_TRUE(ts.ok);
    NetClient client;
    std::string error;
    ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
    PredictRequest req = JpegRequest(65536, 0.2);
    req.trace_id = "accept-trace-0001";
    std::vector<PredictResponse> responses;
    ASSERT_TRUE(client.Call({req}, &responses, &error)) << error;
    ASSERT_TRUE(responses[0].ok()) << responses[0].error;
    EXPECT_EQ(responses[0].trace_id, "accept-trace-0001");
  }  // server + service torn down: worker spans flushed

  const std::string chrome = tracer.ExportChromeJson();
  tracer.Stop();
  // The id the client got back is findable in the span dump — the wire
  // response and the trace tooling agree on identity.
  EXPECT_NE(chrome.find("\"trace_id\":\"accept-trace-0001\""), std::string::npos);
}

TEST(NetServerHttp, StatuszReportsBuildOptionsAndInterfaces) {
  serve::ServiceOptions sopts = TwoWorkers();
  sopts.shadow_sample_every = 16;
  TestServer ts(sopts);
  ASSERT_TRUE(ts.ok);

  // Put a request through so per-interface rows have live numbers.
  NetClient client;
  std::string error;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  ASSERT_TRUE(client.Call({JpegRequest(65536, 0.2)}, &responses, &error)) << error;

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet("127.0.0.1", ts.server.port(), "/statusz", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(body, &doc, &error)) << error << ": " << body;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* uptime = doc.Find("uptime_s");
  ASSERT_NE(uptime, nullptr);
  EXPECT_GT(uptime->number, 0.0);
  ASSERT_NE(doc.Find("build"), nullptr);
  const JsonValue* options = doc.Find("options");
  ASSERT_NE(options, nullptr);
  const JsonValue* shadow_every = options->Find("shadow_sample_every");
  ASSERT_NE(shadow_every, nullptr);
  EXPECT_EQ(shadow_every->number, 16.0);
  const JsonValue* interfaces = doc.Find("interfaces");
  ASSERT_NE(interfaces, nullptr);
  ASSERT_EQ(interfaces->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(interfaces->array.size(), ts.service.InterfaceNames().size());
  bool saw_jpeg_traffic = false;
  for (const auto& row : interfaces->array) {
    ASSERT_NE(row->Find("name"), nullptr);
    ASSERT_NE(row->Find("qps"), nullptr);
    ASSERT_NE(row->Find("p99_us"), nullptr);
    ASSERT_NE(row->Find("shadow"), nullptr);
    if (row->Find("name")->str == "jpeg_decoder" && row->Find("requests")->number >= 1) {
      saw_jpeg_traffic = true;
    }
  }
  EXPECT_TRUE(saw_jpeg_traffic);
}

TEST(NetServerHttp, TracezListsRecentSpansWithTraceIds) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);

  NetClient client;
  std::string error;
  std::vector<PredictResponse> responses;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  PredictRequest req = JpegRequest(65536, 0.2);
  req.trace_id = "tracez-probe-7";
  ASSERT_TRUE(client.Call({req}, &responses, &error)) << error;
  ASSERT_TRUE(responses[0].ok()) << responses[0].error;

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet("127.0.0.1", ts.server.port(), "/tracez", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(body, &doc, &error)) << error << ": " << body;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* total = doc.Find("recorded_total");
  ASSERT_NE(total, nullptr);
  EXPECT_GE(total->number, 1.0);
  const JsonValue* recent = doc.Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->kind, JsonValue::Kind::kArray);
  ASSERT_NE(doc.Find("slowest"), nullptr);
  // Both the net frame span and the serve eval span carry the probe id.
  EXPECT_NE(body.find("tracez-probe-7"), std::string::npos) << body;
}

// /tracez merges the service's rings, one per worker, with the server's
// frame ring: `recent` holds the eval entries of both workers and the
// frame entries, ordered by end time, and `slowest` the 16 slowest of all.
TEST(NetServerHttp, TracezMergesWorkerAndFrameRingsByEndTime) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);
  // Each worker answers one request and waits in its completion callback
  // until the other has too, so both workers' rings hold an eval entry.
  {
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    std::vector<serve::PredictionService::BatchHandle> handles;
    for (int w = 0; w < 2; ++w) {
      PredictRequest req = JpegRequest(1024.0 * (w + 1), 0.2);
      req.trace_id = "parked-" + std::to_string(w);
      handles.push_back(ts.service.SubmitBatch(
          std::vector<PredictRequest>{req}, [&](std::size_t, const PredictResponse&) {
            std::unique_lock<std::mutex> lock(mu);
            ++arrived;
            cv.notify_all();
            cv.wait(lock, [&] { return arrived == 2; });
          }));
    }
    for (const serve::PredictionService::BatchHandle& handle : handles) {
      handle.Wait();
    }
  }
  for (const obs::SpanRing* ring : ts.service.span_rings()) {
    EXPECT_EQ(ring->total_recorded(), 1u);
  }

  constexpr int kFrames = 10;
  NetClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.server.port(), &error)) << error;
  for (int f = 0; f < kFrames; ++f) {
    PredictRequest req = JpegRequest(4096.0 * (f + 1), 0.25);
    req.trace_id = "frame-" + std::to_string(f);
    std::vector<PredictResponse> responses;
    ASSERT_TRUE(client.Call({req}, &responses, &error)) << error;
    ASSERT_TRUE(responses[0].ok()) << responses[0].error;
  }

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet("127.0.0.1", ts.server.port(), "/tracez", &status, &body, &error))
      << error;
  ASSERT_EQ(status, 200);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(body, &doc, &error)) << error << ": " << body;
  // Two parked evals, then an eval and a frame entry per frame.
  ASSERT_NE(doc.Find("recorded_total"), nullptr);
  EXPECT_EQ(doc.Find("recorded_total")->number, 2.0 + 2 * kFrames);

  const JsonValue* recent = doc.Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->array.size(), 2u + 2 * kFrames);
  std::set<std::string> evals;
  int frames = 0;
  double last_end_us = 0;
  std::vector<double> durations;
  for (const auto& entry : recent->array) {
    const double end_us = entry->Find("start_us")->number + entry->Find("dur_us")->number;
    // start_us and dur_us are printed to 1 ns; their sum to 2 ns.
    EXPECT_GE(end_us, last_end_us - 0.002) << body;
    last_end_us = std::max(last_end_us, end_us);
    durations.push_back(entry->Find("dur_us")->number);
    if (entry->Find("name")->str == "eval") {
      evals.insert(entry->Find("trace_id")->str);
    } else {
      EXPECT_EQ(entry->Find("cat")->str, "net");
      EXPECT_EQ(entry->Find("name")->str, "frame");
      ++frames;
    }
  }
  EXPECT_EQ(frames, kFrames);
  EXPECT_EQ(evals.size(), 2u + kFrames);
  EXPECT_EQ(evals.count("parked-0"), 1u);
  EXPECT_EQ(evals.count("parked-1"), 1u);

  // Every entry is in `recent`, so the slowest are its 16 longest.
  const JsonValue* slowest = doc.Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_EQ(slowest->array.size(), obs::SpanRing::kSlowCapacity);
  std::sort(durations.begin(), durations.end(), std::greater<double>());
  for (std::size_t i = 0; i < slowest->array.size(); ++i) {
    EXPECT_EQ(slowest->array[i]->Find("dur_us")->number, durations[i]) << i << ": " << body;
  }
}

TEST(NetServerHttp, PostPredictRejectsBadBody) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);
  const std::string response = RawHttp(
      ts.server.port(),
      "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
}

// The request head parser: digits only, one unambiguous length, a limit.
TEST(HttpHead, ContentLengthIsDigitsWithinTheLimitAndUnambiguous) {
  const std::string post = "POST /predict HTTP/1.1\r\nHost: t\r\n";
  const struct {
    std::string head;
    int status;
    std::size_t length;
  } kCases[] = {
      {"GET /metrics HTTP/1.1", 0, 0},
      {"GET /metrics HTTP/1.1\r\nHost: t", 0, 0},
      {post + "Content-Length: 142", 0, 142},
      {post + "CONTENT-LENGTH:\t 0042 ", 0, 42},
      {post + "Content-Length: 5\r\ncontent-length: 5", 0, 5},
      {post + "Content-Length: 1048576", 0, 1 << 20},
      {post + "Content-Length: 1048577", 413, 0},
      {post + "Content-Length: 18446744073709551616", 413, 0},
      {post + "Content-Length: 5\r\nContent-Length: 6", 400, 0},
      {post + "Content-Length: -1", 400, 0},
      {post + "Content-Length: 142abc", 400, 0},
      {post + "Content-Length: 0x10", 400, 0},
      {post + "Content-Length:", 400, 0},
      {"GET /metrics", 400, 0},
      {"", 400, 0},
  };
  for (const auto& c : kCases) {
    const HttpHead head = ParseHttpHead(c.head, 1 << 20);
    EXPECT_EQ(head.status, c.status) << c.head;
    EXPECT_EQ(head.content_length, c.length) << c.head;
  }
  const HttpHead get = ParseHttpHead("GET /statusz?x=1 HTTP/1.1\r\nAccept: */*", 1 << 20);
  EXPECT_EQ(get.method, "GET");
  EXPECT_EQ(get.path, "/statusz?x=1");
}

// A length with a junk suffix is refused, not read as its digits: the
// front end once parsed "Content-Length: 142abc" as 142 and answered.
TEST(NetServerHttp, JunkSuffixedContentLengthIsABadRequest) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);
  const std::string frame =
      "{\"id\":21,\"requests\":[{\"interface\":\"jpeg_decoder\","
      "\"function\":\"latency_jpeg_decode\","
      "\"attrs\":{\"orig_size\":65536,\"compress_rate\":0.2}}]}";
  const std::string response = RawHttp(
      ts.server.port(), "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                            std::to_string(frame.size()) + "abc\r\nConnection: close\r\n\r\n" +
                            frame);
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
}

// Only the head is parsed for headers: a head with no header lines once
// had the bytes after its blank line scanned as headers too.
TEST(NetServerHttp, BodyBytesAreNeverReadAsHeaders) {
  TestServer ts(TwoWorkers());
  ASSERT_TRUE(ts.ok);
  const std::string response =
      RawHttp(ts.server.port(), "GET /healthz HTTP/1.1\r\n\r\nContent-Length: 2000000\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
}

}  // namespace
}  // namespace perfiface::net
