#include "src/serve/request.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <limits>

#include "src/common/check.h"
#include "src/common/strings.h"

namespace perfiface::serve {

namespace {

// splitmix64: cheap, well-mixed 64-bit permutation.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string GenerateTraceId() {
  // One wall-clock+pid sample per process, then a counter: ids are unique
  // within the process by construction and across concurrent processes with
  // overwhelming probability.
  static const std::uint64_t kBase = Mix64(
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::system_clock::now().time_since_epoch())
                                     .count()) ^
      (static_cast<std::uint64_t>(::getpid()) << 32));
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = Mix64(kBase + counter.fetch_add(1, std::memory_order_relaxed));
  return StrFormat("%016llx", static_cast<unsigned long long>(id));
}

PredictResponse UnevaluatedResponse(const PredictRequest& request, PredictStatus status,
                                    std::string error, std::uint64_t queue_wait_ns) {
  PI_CHECK(status == PredictStatus::kRejected || status == PredictStatus::kDeadlineExceeded);
  PredictResponse response;
  response.status = status;
  response.error = std::move(error);
  response.trace_id = request.trace_id.empty() ? GenerateTraceId() : request.trace_id;
  response.tenant = request.tenant;
  if (request.explain) {
    response.explain.filled = true;
    response.explain.representation =
        status == PredictStatus::kRejected ? "rejected" : "expired";
    response.explain.cache = "not_consulted";
    response.explain.queue_wait_ns = queue_wait_ns;
  }
  return response;
}

const char* PredictStatusName(PredictStatus s) {
  switch (s) {
    case PredictStatus::kOk: return "OK";
    case PredictStatus::kError: return "ERROR";
    case PredictStatus::kNotFound: return "NOT_FOUND";
    case PredictStatus::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case PredictStatus::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case PredictStatus::kRejected: return "REJECTED";
  }
  return "UNKNOWN";
}

bool PredictStatusFromName(std::string_view name, PredictStatus* out) {
  for (const PredictStatus s :
       {PredictStatus::kOk, PredictStatus::kError, PredictStatus::kNotFound,
        PredictStatus::kDeadlineExceeded, PredictStatus::kResourceExhausted,
        PredictStatus::kRejected}) {
    if (name == PredictStatusName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

InjectionPlan ParseInjectionPlan(const PredictRequest& req) {
  InjectionPlan plan;
  const int default_count = std::max(1, req.tokens);
  if (req.entry_place.empty()) {
    plan.total = default_count;
    return plan;
  }
  for (std::string item : SplitString(req.entry_place, ',')) {
    // Whitespace is insignificant ("vld_in : 8"): place names are
    // identifiers, so dropping every space cannot merge two names.
    item.erase(std::remove_if(item.begin(), item.end(),
                              [](unsigned char c) { return std::isspace(c) != 0; }),
               item.end());
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      plan.items.push_back({std::move(item), default_count});
      continue;
    }
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(item.c_str() + colon + 1, &end, 10);
    // ERANGE matters on LP64 too: strtoll clamps an overflowing count to
    // LLONG_MAX, which must be rejected, not truncated.
    if (end == item.c_str() + colon + 1 || *end != '\0' || errno == ERANGE || parsed < 1 ||
        parsed > std::numeric_limits<int>::max()) {
      plan.error = StrFormat("bad token count in entry place item '%s'", item.c_str());
      return plan;
    }
    item.resize(colon);
    plan.items.push_back({std::move(item), static_cast<int>(parsed)});
  }
  std::sort(plan.items.begin(), plan.items.end(),
            [](const InjectionPlan::Item& a, const InjectionPlan::Item& b) {
              return a.place < b.place;
            });
  // Merge duplicate places: the same place listed twice injects the sum,
  // which must still be a valid count.
  std::size_t out = 0;
  for (std::size_t i = 0; i < plan.items.size(); ++i) {
    InjectionPlan::Item& item = plan.items[i];
    if (out > 0 && plan.items[out - 1].place == item.place) {
      InjectionPlan::Item& merged = plan.items[out - 1];
      if (merged.count > std::numeric_limits<int>::max() - item.count) {
        plan.error = StrFormat("bad token count in entry place item '%s:%lld'",
                               item.place.c_str(),
                               static_cast<long long>(merged.count) + item.count);
        return plan;
      }
      merged.count += item.count;
    } else {
      if (out != i) {
        plan.items[out] = std::move(item);
      }
      ++out;
    }
  }
  plan.items.resize(out);
  for (const InjectionPlan::Item& item : plan.items) {
    plan.total += item.count;
  }
  return plan;
}

std::string CanonicalCacheKey(const PredictRequest& req, Representation resolved,
                              const InjectionPlan* plan) {
  PI_CHECK(resolved != Representation::kAuto);
  PI_CHECK(resolved == Representation::kProgram || (plan != nullptr && plan->ok()));
  std::string key;
  key.reserve(64 + 24 * req.attrs.size());
  key += req.interface;
  key += '\x1f';
  key += resolved == Representation::kProgram ? 'p' : 'n';
  key += '\x1f';
  if (resolved == Representation::kProgram) {
    key += req.function;
  } else if (plan->items.empty()) {
    // Empty spec means "first declared place, `tokens` copies" — the count
    // is the only degree of freedom left.
    key += StrFormat("@first:%lld", static_cast<long long>(plan->total));
  } else {
    // Every count is explicit in the plan, so the `tokens` field no longer
    // matters: "vld_in" with tokens=8 and "vld_in:8" with tokens=1 are the
    // same query.
    for (std::size_t i = 0; i < plan->items.size(); ++i) {
      if (i > 0) {
        key += ',';
      }
      key += plan->items[i].place;
      key += StrFormat(":%d", plan->items[i].count);
    }
  }
  key += '\x1f';
  key += StrFormat("c%d", req.children);

  // Sort attribute names without copying the request: order-insensitive
  // keys are what make "same workload, different builder" queries collide.
  std::vector<const std::pair<std::string, double>*> sorted;
  sorted.reserve(req.attrs.size());
  for (const auto& kv : req.attrs) {
    sorted.push_back(&kv);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* kv : sorted) {
    key += '\x1f';
    key += kv->first;
    // %.17g round-trips doubles exactly, so distinct workloads never alias.
    key += StrFormat("=%.17g", kv->second);
  }
  return key;
}

}  // namespace perfiface::serve
