// Measurement helpers: latency histogram, process and host counters,
// Prometheus scrape reading, and the span log.
#include <sys/resource.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "servebench/bench.h"
#include "src/net/wire.h"

namespace servebench {

std::size_t Histogram::Index(std::uint64_t v) {
  constexpr std::uint64_t kLinear = 2u << kSubBits;
  if (v < kLinear) {
    return static_cast<std::size_t>(v);
  }
  const int e = 63 - std::countl_zero(v);
  const std::uint64_t top = v >> (e - kSubBits);  // in [2^kSubBits, 2^(kSubBits+1))
  return kLinear + static_cast<std::size_t>(e - kSubBits - 1) * (1u << kSubBits) +
         static_cast<std::size_t>(top - (1u << kSubBits));
}

std::uint64_t Histogram::Lower(std::size_t index) {
  constexpr std::size_t kLinear = 2u << kSubBits;
  if (index < kLinear) {
    return index;
  }
  const std::size_t k = index - kLinear;
  const int e = static_cast<int>(k >> kSubBits) + kSubBits + 1;
  const std::uint64_t top = (1u << kSubBits) + (k & ((1u << kSubBits) - 1));
  return top << (e - kSubBits);
}

void Histogram::Record(std::int64_t ns) {
  buckets_.resize(kBuckets);
  ++buckets_[Index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  buckets_.resize(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double Histogram::PercentileNs(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(count_);
  double before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double n = static_cast<double>(buckets_[i]);
    if (n == 0 || before + n < rank) {
      before += n;
      continue;
    }
    const double lower = static_cast<double>(Lower(i));
    const double width = i + 1 < kBuckets ? static_cast<double>(Lower(i + 1)) - lower : 1.0;
    return lower + width * (rank - before) / n;
  }
  return static_cast<double>(Lower(kBuckets - 1));
}

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

CpuSample FromRusage(const rusage& ru) {
  CpuSample s;
  s.user_s = Seconds(ru.ru_utime);
  s.sys_s = Seconds(ru.ru_stime);
  s.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return s;
}

}  // namespace

CpuSample ProcessCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return FromRusage(ru);
}

CpuSample ThreadCpu() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return FromRusage(ru);
}

HostSample ReadHostSample() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  HostSample s;
  if (in && cpu == "cpu") {
    s.steal = steal;
    s.total = user + nice + system + idle + iowait + irq + softirq + steal;
  }
  return s;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double PromSum(std::string_view scrape, std::string_view family) {
  double sum = 0;
  std::size_t pos = 0;
  while (pos < scrape.size()) {
    std::size_t end = scrape.find('\n', pos);
    if (end == std::string_view::npos) {
      end = scrape.size();
    }
    const std::string_view line = scrape.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() <= family.size() || line.compare(0, family.size(), family) != 0) {
      continue;
    }
    const char next = line[family.size()];
    if (next != ' ' && next != '{') {
      continue;
    }
    const std::size_t space = line.rfind(' ');
    sum += std::strtod(std::string(line.substr(space + 1)).c_str(), nullptr);
  }
  return sum;
}

void SpanLog::Add(const char* cat, std::string name, std::int64_t start_ns, std::int64_t dur_ns,
                  std::string args_json) {
  spans_.push_back(Span{cat, std::move(name), start_ns, dur_ns, std::move(args_json)});
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name;
    perfiface::net::AppendJsonString(&name, s.name);
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3);
    out << (i == 0 ? "" : ",") << "\n{\"name\":" << name << ",\"cat\":\"" << s.cat
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1," << times;
    if (!s.args_json.empty()) {
      out << ",\"args\":" << s.args_json;
    }
    out << '}';
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace servebench
