// servebench: the serving benchmark's shared declarations.
//
// The benchmark measures the prediction service from the outside only: it
// times its own calls into PredictionService::SubmitBatch and the NDJSON
// port, reads the documented perfiface_* Prometheus families, and reads the
// wire `explain` fields. README.md in this directory explains the workloads
// and the metrics.
#ifndef SERVEBENCH_BENCH_H_
#define SERVEBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/registry.h"
#include "src/serve/request.h"
#include "src/serve/service.h"

namespace servebench {

using perfiface::serve::PredictRequest;
using perfiface::serve::PredictResponse;
using Clock = std::chrono::steady_clock;

enum class Workload { kSweepCold, kWireHot, kOnlineDeadline };

// Requests per second the online_deadline generator offers. Fixed: the open
// loop is never calibrated per run, so every run offers the same load.
constexpr double kOnlineRate = 8000;
// Every online_deadline request carries this deadline.
constexpr std::int64_t kOnlineDeadlineUs = 5000;

std::int64_t NowNs();
// Stateless 64-bit hash of (a, b); seeds every per-request draw.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);
// Reports a broken run on stderr and exits non-zero without a result.
[[noreturn]] void Fatal(const std::string& message);

// ---- queries.cc -----------------------------------------------------------

// A workload's request stream. Request i is a pure function of (workload,
// seed, i): nothing is pre-built, so peak RSS measures the service, and two
// runs with one seed send byte-identical streams.
class QueryStream {
 public:
  QueryStream(Workload workload, std::uint64_t seed);

  // Request `i` of the stream (also used to rebuild sampled requests for the
  // answer check after the timed phase).
  PredictRequest At(std::uint64_t i) const;
  // The next request in send order; its index is next_index() - 1.
  PredictRequest Next();
  std::uint64_t next_index() const { return next_; }
  // Requests a wire_hot run puts in the cache before timing.
  std::uint64_t population() const;
  PredictRequest PopulationQuery(std::uint64_t rank) const;
  // FNV-1a over the wire encoding of the first kHashedRequests requests sent.
  std::string StreamHash() const;

  static constexpr std::uint64_t kHashedRequests = 8192;

 private:
  Workload workload_;
  std::uint64_t seed_;
  std::vector<double> zipf_cdf_;  // empty for sweep_cold
  std::uint64_t next_ = 0;
  std::uint64_t hash_;
};

// ---- measure.cc -----------------------------------------------------------

// Log-linear histogram of nanosecond values: 64 linear sub-buckets per
// power of two (<= 1.6% bucket width), allocated on first use and fixed in
// size after that. Percentiles interpolate linearly inside a bucket, so a
// median is a measured number, not a bucket edge.
class Histogram {
 public:
  void Record(std::int64_t ns);
  void Merge(const Histogram& other);
  std::uint64_t count() const { return count_; }
  // q in [0, 1]; 0 when empty.
  double PercentileNs(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr std::size_t kBuckets = (2u << kSubBits) + (63 - kSubBits) * (1u << kSubBits);
  static std::size_t Index(std::uint64_t v);
  static std::uint64_t Lower(std::size_t index);
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

struct CpuSample {
  double user_s = 0;
  double sys_s = 0;
  double ctx_switches = 0;  // voluntary + involuntary
};
CpuSample ProcessCpu();  // every thread of this process
CpuSample ThreadCpu();   // the calling thread

// Jiffies from the aggregate line of /proc/stat.
struct HostSample {
  double steal = 0;
  double total = 0;
};
HostSample ReadHostSample();

double PeakRssMb();  // VmHWM

// Sum of every sample of one Prometheus family (all label sets); 0 if the
// family is absent from the scrape.
double PromSum(std::string_view scrape, std::string_view family);

// Spans recorded by the benchmark's own code around its calls into each
// layer; kept in memory and written out as Chrome trace JSON at exit.
class SpanLog {
 public:
  void Add(const char* cat, std::string name, std::int64_t start_ns, std::int64_t dur_ns,
           std::string args_json = "");
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* cat;
    std::string name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::string args_json;
  };
  std::vector<Span> spans_;
};

// ---- oracle.cc ------------------------------------------------------------

// Answers a request without the service: program interfaces through the
// tree-walking Interpreter, nets through a whole-net PetriSim on a freshly
// compiled net.
class Oracle {
 public:
  explicit Oracle(const perfiface::InterfaceRegistry& registry);
  ~Oracle();
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  // False with *why set when the oracle cannot answer.
  bool Answer(const PredictRequest& request, double* value, std::string* why);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ---- drivers.cc -----------------------------------------------------------

// Everything measured about the requests sent in one phase. Single-threaded:
// drivers record from the load thread only.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;
  std::uint64_t deadline_met = 0;
  std::int64_t deadline_ns = 0;  // 0: requests carry no deadline
  std::map<std::string, std::uint64_t> statuses;
  Histogram latency;  // OK responses, from (scheduled) send to response
  Histogram lateness;  // open loop: actual send - scheduled send

  // Traced phases (explain on every request).
  Histogram queue_wait;
  std::map<std::string, Histogram> eval_by_rep;
  Histogram client_self;  // round trip - queue wait - eval
  std::uint64_t pnet_evals = 0;
  std::vector<std::uint64_t> shadowed;  // stream indices
  SpanLog* spans = nullptr;             // request spans, when set
  std::uint64_t span_budget = 0;

  // Seeded sample of OK answers for the oracle check: the kValueSample
  // answered indices with the smallest seeded hash, as a max-heap.
  std::uint64_t sample_seed = 0;
  std::vector<std::pair<std::uint64_t, std::pair<std::uint64_t, double>>> value_sample;
  static constexpr std::size_t kValueSample = 1024;

  void Record(std::uint64_t index, const PredictResponse& response, std::int64_t sent_ns,
              std::int64_t done_ns, const char* layer);
  // Folds another phase's tally into this one (spans are not merged).
  void Merge(const Tally& other);

 private:
  void Sample(std::uint64_t hash, std::uint64_t index, double value);
};

// Drives one workload's load. RunPhase sends for `seconds`, attributing the
// requests it sends to `tally`; in-flight work carries over into the next
// phase. Finish stops sending and waits for every outstanding answer.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual void RunPhase(Tally* tally, double seconds, bool explain) = 0;
  virtual void Finish() = 0;
  // Totals over every phase, for rates over a window.
  std::uint64_t received() const { return received_; }
  std::uint64_t received_ok() const { return received_ok_; }

 protected:
  void Count(const PredictResponse& response) {
    ++received_;
    received_ok_ += response.ok() ? 1 : 0;
  }

 private:
  std::uint64_t received_ = 0;
  std::uint64_t received_ok_ = 0;
};

// sweep_cold: in-process SubmitBatch, closed loop, 2 batches of 128 in flight.
std::unique_ptr<Driver> MakeInProcessDriver(perfiface::serve::PredictionService* service,
                                            QueryStream* stream);
// wire_hot: one connection, closed loop, 8 frames of 32 requests in flight.
std::unique_ptr<Driver> MakeWireClosedDriver(std::uint16_t port, QueryStream* stream);
// online_deadline: one connection, open loop at kOnlineRate, one request
// per frame; the generator spins to each send time and drains answers with
// non-blocking reads on the same thread.
std::unique_ptr<Driver> MakeWireOpenDriver(std::uint16_t port, QueryStream* stream);

// Sends every population query once (wire_hot's cache pre-warm).
void PrewarmOverWire(std::uint16_t port, const QueryStream& stream);

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_H_
