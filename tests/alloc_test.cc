// Heap allocations per request on a warm prediction service, counted by a
// global operator new (as obs_test counts the tracer's disabled path).
//
// Each thread that allocates is charged to one of three roles: the test's
// own thread (the client), the service's workers (marked from inside their
// completion callbacks), and every other thread — on the wire, the
// connection thread that decodes frames and submits them (the accept
// thread is idle while a test measures). After warm-up (every pooled
// frame, per-worker scratch buffer, cache node and /tracez ring slot has
// held a request of the measured shape), the tests pin:
//   - a wire cache hit: at most 1 allocation per request plus a few per
//     frame, and no per-request allocation on the connection thread;
//   - an in-process cache hit: at most 1 per request plus a few per batch;
//   - a program miss at a full cache, keys of one interface: at most 2;
//   - a jpeg pnet miss answered by the derived tier: at most 2.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/registry.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/serve/request.h"
#include "src/serve/service.h"

namespace {

enum class Role : unsigned char { kOther, kClient, kWorker };

// Constant-initialized, so reading it inside operator new needs no TLS
// constructor.
thread_local Role t_role = Role::kOther;

std::atomic<std::uint64_t> g_client_allocs{0};
std::atomic<std::uint64_t> g_worker_allocs{0};
std::atomic<std::uint64_t> g_other_allocs{0};

}  // namespace

// GCC pairs our malloc-backed operator new with the free() in operator
// delete and flags it as mismatched; the pairing is intentional here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  switch (t_role) {
    case Role::kClient: g_client_allocs.fetch_add(1, std::memory_order_relaxed); break;
    case Role::kWorker: g_worker_allocs.fetch_add(1, std::memory_order_relaxed); break;
    case Role::kOther: g_other_allocs.fetch_add(1, std::memory_order_relaxed); break;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfiface {
namespace {

using serve::PredictionService;
using serve::PredictRequest;
using serve::PredictResponse;
using serve::PredictStatus;
using serve::Representation;
using serve::ServiceOptions;

struct Counts {
  std::uint64_t client = 0;
  std::uint64_t worker = 0;
  std::uint64_t other = 0;

  static Counts Now() {
    return {g_client_allocs.load(std::memory_order_relaxed),
            g_worker_allocs.load(std::memory_order_relaxed),
            g_other_allocs.load(std::memory_order_relaxed)};
  }
  Counts operator-(const Counts& base) const {
    return {client - base.client, worker - base.worker, other - base.other};
  }
  std::uint64_t total() const { return client + worker + other; }
};

// Marks every worker of `service` as Role::kWorker from inside its own
// completion callback: one single-request batch per worker, each callback
// waiting until all have arrived, so no worker can take two of them.
void MarkWorkers(PredictionService* service, const PredictRequest& request) {
  const std::size_t workers = service->num_workers();
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::vector<PredictionService::BatchHandle> handles;
  for (std::size_t w = 0; w < workers; ++w) {
    handles.push_back(service->SubmitBatch(
        std::vector<PredictRequest>{request}, [&](std::size_t, const PredictResponse&) {
          t_role = Role::kWorker;
          std::unique_lock<std::mutex> lock(mu);
          ++arrived;
          cv.notify_all();
          cv.wait(lock, [&] { return arrived == workers; });
        }));
  }
  for (const PredictionService::BatchHandle& handle : handles) {
    handle.Wait();
  }
}

ServiceOptions TwoWorkers(std::size_t cache_capacity = 4096) {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = cache_capacity;
  return options;
}

PredictRequest JpegProgram(double orig_size) {
  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.function = "latency_jpeg_decode";
  req.attrs = {{"orig_size", orig_size}, {"compress_rate", 0.2}};
  return req;
}

PredictRequest JpegPnet(double bits) {
  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.representation = Representation::kPnet;
  req.entry_place = "hdr_in:1,vld_in:8";
  req.attrs = {{"bits", bits}, {"blocks", 8.0}};
  return req;
}

// Runs `batches` synchronous batches of `batch` requests from make(k), k
// counting up from `first`, and returns the allocations they made.
template <typename Make>
Counts RunBatches(PredictionService* service, std::size_t batches, std::size_t batch,
                  std::uint64_t first, Make make) {
  std::vector<PredictRequest> requests(batch);
  std::uint64_t k = first;
  Counts spent;
  for (std::size_t b = 0; b < batches; ++b) {
    for (PredictRequest& req : requests) {
      req = make(k++);
    }
    const Counts before = Counts::Now();
    const std::vector<PredictResponse> responses = service->PredictBatch(requests);
    const Counts delta = Counts::Now() - before;
    spent.client += delta.client;
    spent.worker += delta.worker;
    spent.other += delta.other;
    for (const PredictResponse& r : responses) {
      EXPECT_EQ(r.status, PredictStatus::kOk) << r.error;
    }
  }
  return spent;
}

// A blocking NDJSON client on the test thread (Role::kClient).
class WireClient {
 public:
  explicit WireClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~WireClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool connected() const { return connected_; }

  // Sends `bytes` and reads until `lines` response lines have arrived;
  // returns how many of them were OK cache hits.
  std::size_t RoundTrip(const std::string& bytes, std::size_t lines) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return 0;
      }
      sent += static_cast<std::size_t>(n);
    }
    std::size_t hits = 0;
    std::size_t seen = 0;
    char buf[64 * 1024];
    while (seen < lines) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        return hits;
      }
      pending_.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = pending_.find('\n'); nl != std::string::npos;
           nl = pending_.find('\n', start)) {
        const std::string_view line(pending_.data() + start, nl - start);
        hits += line.find("\"status\":\"OK\"") != std::string_view::npos &&
                line.find("\"cache_hit\":true") != std::string_view::npos;
        ++seen;
        start = nl + 1;
      }
      pending_.erase(0, start);
    }
    return hits;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string pending_;
};

TEST(AllocCount, WireCacheHitCostsOneAllocationPerRequest) {
  PredictionService service(InterfaceRegistry::Default(), TwoWorkers());
  net::NetServer server(&service);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  MarkWorkers(&service, JpegProgram(65536));
  t_role = Role::kClient;

  // Four pipelined frames of 32 distinct requests, the same 128 every
  // burst: all but the first burst are cache hits.
  constexpr std::size_t kFrame = 32;
  constexpr std::size_t kFrames = 4;
  std::string burst;
  for (std::size_t f = 0; f < kFrames; ++f) {
    std::vector<PredictRequest> requests;
    for (std::size_t i = 0; i < kFrame; ++i) {
      requests.push_back(JpegProgram(512.0 * static_cast<double>(64 + f * kFrame + i)));
    }
    net::EncodeRequestFrame(f + 1, requests, &burst);
  }
  {
    WireClient client(server.port());
    ASSERT_TRUE(client.connected());
    client.RoundTrip(burst, kFrames * kFrame);  // fills the cache
    // 64 more bursts: the server's frame ring has then held 260 frames, so
    // every one of its 256 slots keeps its strings' storage.
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(client.RoundTrip(burst, kFrames * kFrame), kFrames * kFrame);
    }
    constexpr int kBursts = 25;
    const Counts before = Counts::Now();
    for (int i = 0; i < kBursts; ++i) {
      ASSERT_EQ(client.RoundTrip(burst, kFrames * kFrame), kFrames * kFrame);
    }
    const Counts spent = Counts::Now() - before;
    const double frames = static_cast<double>(kBursts * kFrames);
    const double requests = frames * kFrame;
    // The parent spent 10.9 per request: every decoded request was a fresh
    // allocation on the connection thread, freed by a worker.
    EXPECT_LE(static_cast<double>(spent.worker + spent.other), requests + 8 * frames)
        << "worker " << spent.worker << ", connection " << spent.other << " over " << requests
        << " requests";
    // The connection thread decodes into pooled frames and mints trace ids
    // in place; what it still allocates is the service's per-frame batch.
    EXPECT_LE(static_cast<double>(spent.other), 3 * frames)
        << "connection " << spent.other << " over " << frames << " frames";
  }
  t_role = Role::kOther;
  server.Stop();
}

TEST(AllocCount, InProcessCacheHitCostsOneAllocationPerRequest) {
  PredictionService service(InterfaceRegistry::Default(), TwoWorkers());
  MarkWorkers(&service, JpegProgram(65536));
  constexpr std::size_t kBatch = 32;
  const auto make = [](std::uint64_t k) { return JpegProgram(512.0 * (64 + k % kBatch)); };
  RunBatches(&service, 40, kBatch, 0, make);
  constexpr std::size_t kBatches = 50;
  const Counts spent = RunBatches(&service, kBatches, kBatch, 0, make);
  // The parent spent 4-8 per request.
  EXPECT_LE(spent.total(), kBatches * (kBatch + 8))
      << "submitter " << spent.client << ", workers " << spent.worker << " over "
      << kBatches * kBatch << " requests";
}

TEST(AllocCount, ProgramMissAtAFullCacheCostsAtMostTwo) {
  // 64 entries: the warm-up's misses fill it, so every measured miss
  // evicts, and every key has the same shape.
  PredictionService service(InterfaceRegistry::Default(), TwoWorkers(64));
  MarkWorkers(&service, JpegProgram(65536));
  constexpr std::size_t kBatch = 32;
  const auto make = [](std::uint64_t k) { return JpegProgram(512.0 * (64 + k)); };
  RunBatches(&service, 40, kBatch, 0, make);
  constexpr std::size_t kBatches = 50;
  const Counts spent = RunBatches(&service, kBatches, kBatch, 40 * kBatch, make);
  // The parent spent 12-13 per miss.
  EXPECT_LE(spent.total(), kBatches * kBatch * 2)
      << "submitter " << spent.client << ", workers " << spent.worker << " over "
      << kBatches * kBatch << " misses";
}

TEST(AllocCount, DerivedPnetMissCostsAtMostTwo) {
  PredictionService service(InterfaceRegistry::Default(), TwoWorkers(64));
  MarkWorkers(&service, JpegProgram(65536));
  constexpr std::size_t kBatch = 32;
  const auto make = [](std::uint64_t k) { return JpegPnet(64.0 + static_cast<double>(k)); };
  RunBatches(&service, 40, kBatch, 0, make);
  ASSERT_NE(service.derived_store(), nullptr);
  const std::uint64_t hits_before = service.derived_store()->hits();
  constexpr std::size_t kBatches = 50;
  const Counts spent = RunBatches(&service, kBatches, kBatch, 40 * kBatch, make);
  // Every measured miss was answered by the derived tier, not simulated.
  EXPECT_GE(service.derived_store()->hits() - hits_before, kBatches * kBatch);
  // The parent spent 18 per miss.
  EXPECT_LE(spent.total(), kBatches * kBatch * 2)
      << "submitter " << spent.client << ", workers " << spent.worker << " over "
      << kBatches * kBatch << " misses";
}

TEST(AllocCount, EvictingCacheInsertAllocatesNothing) {
  serve::ShardedLruCache cache(/*capacity=*/8, /*num_shards=*/1);
  std::string key;
  for (int i = 0; i < 8; ++i) {
    key = "key-of-one-length-" + std::to_string(100 + i);
    cache.Put(key, {static_cast<double>(i), 0.0});
  }
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("key-of-one-length-" + std::to_string(200 + i));
  }
  const Counts before = Counts::Now();
  for (int i = 0; i < 64; ++i) {
    cache.Put(keys[i], {static_cast<double>(i), 0.0});
  }
  const Counts spent = Counts::Now() - before;
  EXPECT_EQ(spent.total(), 0u);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.evictions(), 64u);
  serve::CachedPrediction out;
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(cache.Get(keys[i], &out), i >= 56) << keys[i];
  }
  EXPECT_EQ(out.value, 63.0);
}

}  // namespace
}  // namespace perfiface
