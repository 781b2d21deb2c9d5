#include "src/serve/request.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <chrono>
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

// LEB128: seven bits a byte, low bits first, the top bit marking "more".
void AppendVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void AppendLengthPrefixed(std::string* out, std::string_view s) {
  AppendVarint(out, s.size());
  out->append(s);
}

std::atomic<std::uint64_t> g_trace_ids{0};

// Id number n of this process, as 16 hex digits. One wall-clock+pid sample
// per process, then a counter: ids are unique within the process by
// construction (Mix64 is a bijection) and across concurrent processes with
// overwhelming probability.
void FormatTraceId(std::uint64_t n, std::string* out) {
  static const std::uint64_t kBase = Mix64(
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::system_clock::now().time_since_epoch())
                                     .count()) ^
      (static_cast<std::uint64_t>(::getpid()) << 32));
  std::uint64_t id = Mix64(kBase + n);
  static constexpr char kHex[] = "0123456789abcdef";
  out->resize(16);
  for (int i = 15; i >= 0; --i, id >>= 4) {
    (*out)[i] = kHex[id & 0xF];
  }
}

}  // namespace

std::string GenerateTraceId() {
  std::string out;
  GenerateTraceId(&out);
  return out;
}

void GenerateTraceId(std::string* out) {
  FormatTraceId(g_trace_ids.fetch_add(1, std::memory_order_relaxed), out);
}

void GenerateTraceId(std::string* out, TraceIdBlock* block) {
  if (block->next == block->end) {
    block->next =
        g_trace_ids.fetch_add(TraceIdBlock::kTraceIdBlock, std::memory_order_relaxed);
    block->end = block->next + TraceIdBlock::kTraceIdBlock;
  }
  FormatTraceId(block->next++, out);
}

PredictResponse UnevaluatedResponse(const PredictRequest& request, PredictStatus status,
                                    std::string error, std::uint64_t queue_wait_ns,
                                    TraceIdBlock* ids) {
  PI_CHECK(status == PredictStatus::kRejected || status == PredictStatus::kDeadlineExceeded);
  PredictResponse response;
  response.status = status;
  response.error = std::move(error);
  if (!request.trace_id.empty()) {
    response.trace_id = request.trace_id;
  } else if (ids != nullptr) {
    GenerateTraceId(&response.trace_id, ids);
  } else {
    GenerateTraceId(&response.trace_id);
  }
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
  ParseInjectionPlan(req, &plan);
  return plan;
}

void ParseInjectionPlan(const PredictRequest& req, InjectionPlan* plan) {
  std::vector<InjectionPlan::Item>& items = plan->items;
  items.clear();
  plan->total = 0;
  plan->error.clear();
  const int default_count = std::max(1, req.tokens);
  if (req.entry_place.empty()) {
    plan->total = default_count;
    return;
  }
  const std::string_view spec = req.entry_place;
  for (std::size_t start = 0; start <= spec.size();) {
    const std::size_t comma = std::min(spec.find(',', start), spec.size());
    // Whitespace is insignificant ("vld_in : 8"): place names are
    // identifiers, so dropping every space cannot merge two names.
    InjectionPlan::Item& item = items.emplace_back();
    for (const char c : spec.substr(start, comma - start)) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        item.place.push_back(c);
      }
    }
    start = comma + 1;
    const std::size_t colon = item.place.find(':');
    if (colon == std::string::npos) {
      item.count = default_count;
      continue;
    }
    long long parsed = 0;
    if (ParseDecimal(std::string_view(item.place).substr(colon + 1), &parsed) != std::errc() ||
        parsed < 1 || parsed > std::numeric_limits<int>::max()) {
      plan->error =
          StrFormat("bad token count in entry place item '%s'", item.place.c_str());
      items.pop_back();
      return;
    }
    item.place.resize(colon);
    item.count = static_cast<int>(parsed);
  }
  std::sort(items.begin(), items.end(),
            [](const InjectionPlan::Item& a, const InjectionPlan::Item& b) {
              return a.place < b.place;
            });
  // Merge duplicate places: the same place listed twice injects the sum,
  // which must still be a valid count.
  std::size_t out = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    InjectionPlan::Item& item = items[i];
    if (out > 0 && items[out - 1].place == item.place) {
      InjectionPlan::Item& merged = items[out - 1];
      if (merged.count > std::numeric_limits<int>::max() - item.count) {
        plan->error = StrFormat("bad token count in entry place item '%s:%lld'",
                                item.place.c_str(),
                                static_cast<long long>(merged.count) + item.count);
        return;
      }
      merged.count += item.count;
    } else {
      if (out != i) {
        items[out] = std::move(item);
      }
      ++out;
    }
  }
  items.resize(out);
  for (const InjectionPlan::Item& item : items) {
    plan->total += item.count;
  }
}

std::string CanonicalCacheKey(const PredictRequest& req, Representation resolved,
                              const InjectionPlan* plan) {
  std::string key;
  CanonicalCacheKey(req, resolved, plan, &key);
  return key;
}

void CanonicalCacheKey(const PredictRequest& req, Representation resolved,
                       const InjectionPlan* plan, std::string* out) {
  PI_CHECK(resolved != Representation::kAuto);
  PI_CHECK(resolved == Representation::kProgram || (plan != nullptr && plan->ok()));
  std::string& key = *out;
  key.clear();
  key.reserve(24 + req.interface.size() + req.function.size() + 24 * req.attrs.size());
  AppendLengthPrefixed(&key, req.interface);
  key += resolved == Representation::kProgram ? 'p' : 'n';
  if (resolved == Representation::kProgram) {
    AppendLengthPrefixed(&key, req.function);
  } else {
    // Every count is explicit in the plan, so the `tokens` field no longer
    // matters: "vld_in" with tokens=8 and "vld_in:8" with tokens=1 are the
    // same query. No items means "first declared place, `total` copies".
    AppendVarint(&key, plan->items.size());
    for (const InjectionPlan::Item& item : plan->items) {
      AppendLengthPrefixed(&key, item.place);
      AppendVarint(&key, static_cast<std::uint64_t>(item.count));
    }
    if (plan->items.empty()) {
      AppendVarint(&key, static_cast<std::uint64_t>(plan->total));
    }
  }
  AppendVarint(&key, static_cast<std::uint32_t>(req.children));

  // Sort attribute names without copying the request: order-insensitive
  // keys are what make "same workload, different builder" queries collide.
  // A name given twice keeps its request order (the last value is the one
  // evaluated), so the two orders of a duplicate stay apart. The pointer
  // vector is per thread, so a key allocates nothing once *out fits it.
  thread_local std::vector<const std::pair<std::string, double>*> sorted;
  sorted.clear();
  for (const auto& kv : req.attrs) {
    sorted.push_back(&kv);
  }
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return a->first != b->first ? a->first < b->first : a < b;
  });
  AppendVarint(&key, sorted.size());
  for (const auto* kv : sorted) {
    AppendLengthPrefixed(&key, kv->first);
    // The value's IEEE-754 bits: exact, so distinct workloads never alias.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(kv->second);
    for (int shift = 0; shift < 64; shift += 8) {
      key.push_back(static_cast<char>(bits >> shift));
    }
  }
}

}  // namespace perfiface::serve
