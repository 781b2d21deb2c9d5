// Tests for the prediction service: correctness against direct evaluation,
// batch semantics, caching, deadlines, resource limits, and concurrency
// (this binary is the ThreadSanitizer target in CI).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/accel/conv/conv_shadow.h"
#include "src/accel/jpeg/jpeg_shadow.h"
#include "src/accel/protoacc/protoacc_shadow.h"
#include "src/common/strings.h"
#include "src/core/program_interface.h"
#include "src/core/registry.h"
#include "src/obs/span_ring.h"
#include "src/perfscript/interp.h"
#include "src/perfscript/kv_object.h"
#include "src/perfscript/parser.h"
#include "src/petri/distill.h"
#include "src/serve/admission.h"
#include "src/serve/deadline_queue.h"
#include "src/serve/lru_cache.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"
#include "src/serve/service.h"
#include "tests/exposition_parser.h"

namespace perfiface::serve {
namespace {

PredictRequest JpegRequest(double orig_size, double compress_rate) {
  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.function = "latency_jpeg_decode";
  req.attrs = {{"orig_size", orig_size}, {"compress_rate", compress_rate}};
  return req;
}

PredictRequest ProtoaccRequest(double num_fields, double num_writes, int children) {
  PredictRequest req;
  req.interface = "protoacc";
  req.function = "tput_protoacc_ser";
  req.attrs = {{"num_fields", num_fields}, {"num_writes", num_writes}};
  req.children = children;
  return req;
}

// A pnet-representation request. The attrs cover every shipped net's
// schema superset; names a schema does not declare are ignored, so one
// workload description works against all registry entries.
PredictRequest PnetRequest(const std::string& iface, const std::string& entry_place,
                           int tokens = 1) {
  PredictRequest req;
  req.interface = iface;
  req.representation = Representation::kPnet;
  req.entry_place = entry_place;
  req.tokens = tokens;
  req.attrs = {{"bits", 800.0}, {"blocks", 8.0}, {"words", 64.0}, {"num_fields", 6.0}};
  return req;
}

// A jpeg plan past the derived tier's per-model firing cap (three firings
// per stripe): the tier refuses it, so every answer is simulated.
constexpr const char* kUncompiledJpegPlan = "hdr_in:1,vld_in:5500";

// Cache key of a pnet request, from its parsed injection plan (the
// service's own path). The spec must be well formed.
std::string PnetKey(const PredictRequest& req) {
  const InjectionPlan plan = ParseInjectionPlan(req);
  EXPECT_TRUE(plan.ok()) << plan.error;
  return CanonicalCacheKey(req, Representation::kPnet, &plan);
}

double DirectJpegLatency(double orig_size, double compress_rate) {
  ProgramInterface iface = InterfaceRegistry::Default().LoadProgram("jpeg_decoder");
  KvObject img;
  img.Set("orig_size", orig_size);
  img.Set("compress_rate", compress_rate);
  return iface.Eval("latency_jpeg_decode", img);
}

TEST(CanonicalCacheKey, AttrOrderInsensitive) {
  PredictRequest a = JpegRequest(65536, 0.2);
  PredictRequest b = a;
  std::swap(b.attrs[0], b.attrs[1]);
  EXPECT_EQ(CanonicalCacheKey(a, Representation::kProgram),
            CanonicalCacheKey(b, Representation::kProgram));
}

TEST(CanonicalCacheKey, DistinguishesWorkloads) {
  EXPECT_NE(CanonicalCacheKey(JpegRequest(65536, 0.2), Representation::kProgram),
            CanonicalCacheKey(JpegRequest(65537, 0.2), Representation::kProgram));
  EXPECT_NE(CanonicalCacheKey(JpegRequest(65536, 0.2), Representation::kProgram),
            PnetKey(JpegRequest(65536, 0.2)));
  PredictRequest with_children = ProtoaccRequest(12, 9, 2);
  PredictRequest without = ProtoaccRequest(12, 9, 0);
  EXPECT_NE(CanonicalCacheKey(with_children, Representation::kProgram),
            CanonicalCacheKey(without, Representation::kProgram));
}

// An attribute name can hold any bytes, so it must not be able to spell
// out another request's key: B's one attribute is named after the text key
// A once built, and B after A must answer what B answers on its own.
TEST(CanonicalCacheKey, AttributeNamesCannotForgeAnotherRequestsKey) {
  const PredictRequest a = JpegRequest(65536, 0.2);
  PredictRequest b;
  b.interface = "jpeg_decoder";
  b.function = "latency_jpeg_decode";
  b.attrs = {{"compress_rate=0.20000000000000001\x1forig_size", 65536}};
  EXPECT_NE(CanonicalCacheKey(a, Representation::kProgram),
            CanonicalCacheKey(b, Representation::kProgram));

  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  PredictionService fresh(InterfaceRegistry::Default(), options);
  const PredictResponse alone = fresh.Predict(b);
  EXPECT_EQ(alone.status, PredictStatus::kError);
  EXPECT_NE(alone.error.find("has no attribute 'orig_size'"), std::string::npos) << alone.error;

  PredictionService service(InterfaceRegistry::Default(), options);
  const PredictResponse first = service.Predict(a);
  ASSERT_TRUE(first.ok()) << first.error;
  const PredictResponse after = service.Predict(b);
  EXPECT_EQ(after.status, alone.status);
  EXPECT_EQ(after.error, alone.error);
  EXPECT_FALSE(after.cache_hit);
}

// Satellite: the entry-place spec is canonicalized — whitespace stripped,
// items sorted, default counts made explicit, duplicate places merged — so
// permuted but identical pnet queries share one cache entry.
TEST(CanonicalCacheKey, EntryPlaceOrderAndWhitespaceInsensitive) {
  const auto key = [](const std::string& entry_place) {
    return PnetKey(PnetRequest("jpeg_decoder", entry_place));
  };
  EXPECT_EQ(key("hdr_in:1,vld_in:8"), key("vld_in:8,hdr_in:1"));
  EXPECT_EQ(key("hdr_in:1,vld_in:8"), key(" hdr_in : 1 ,\tvld_in:8 "));
  // The same place listed twice injects the sum.
  EXPECT_EQ(key("hdr_in:1,vld_in:8"), key("hdr_in:1,vld_in:4,vld_in:4"));
}

TEST(CanonicalCacheKey, DefaultCountsAreMadeExplicit) {
  // "vld_in" with tokens=8 injects the same plan as an explicit "vld_in:8".
  PredictRequest implicit = PnetRequest("jpeg_decoder", "vld_in,hdr_in:1", /*tokens=*/8);
  PredictRequest explicit_count = PnetRequest("jpeg_decoder", "vld_in:8,hdr_in:1", /*tokens=*/1);
  EXPECT_EQ(PnetKey(implicit), PnetKey(explicit_count));
  // With an empty spec, `tokens` is the first-place count and must key.
  PredictRequest two = PnetRequest("jpeg_decoder", "", /*tokens=*/2);
  PredictRequest three = PnetRequest("jpeg_decoder", "", /*tokens=*/3);
  EXPECT_NE(PnetKey(two), PnetKey(three));
}

TEST(CanonicalCacheKey, DistinguishesInjectionPlans) {
  const auto key = [](const std::string& entry_place) {
    return PnetKey(PnetRequest("jpeg_decoder", entry_place));
  };
  EXPECT_NE(key("hdr_in:1,vld_in:8"), key("hdr_in:1,vld_in:9"));
  EXPECT_NE(key("hdr_in:1,vld_in:8"), key("hdr_in:2,vld_in:8"));
  EXPECT_NE(key("hdr_in:1,vld_in:8"), key("hdr_in:1"));
}

// Specs whose counts leave 1..INT_MAX are malformed: they never reach the
// cache key, so distinct garbage cannot alias to one entry, and the request
// is answered ERROR without consulting the cache.
void ExpectMalformedWithoutCacheLookup(const std::string& entry_place) {
  PredictRequest req = PnetRequest("jpeg_decoder", entry_place);
  const InjectionPlan plan = ParseInjectionPlan(req);
  EXPECT_FALSE(plan.ok()) << entry_place;
  EXPECT_NE(plan.error.find("bad token count"), std::string::npos) << plan.error;

  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  req.explain = true;
  const PredictResponse resp = service.Predict(req);
  EXPECT_EQ(resp.status, PredictStatus::kError) << entry_place;
  EXPECT_EQ(resp.error, plan.error);
  EXPECT_EQ(resp.explain.cache, "not_consulted");
  EXPECT_EQ(service.metrics().cache_misses(), 0u);
  EXPECT_EQ(service.metrics().cache_hits(), 0u);
}

TEST(CanonicalCacheKey, OverflowingCountsDoNotAlias) {
  ExpectMalformedWithoutCacheLookup("vld_in:99999999999999999999");
  ExpectMalformedWithoutCacheLookup("vld_in:88888888888888888888");
  ExpectMalformedWithoutCacheLookup("vld_in:9223372036854775807");
}

// Duplicate places merge by summing, in 64 bits: a merged count past
// INT_MAX is malformed like a single one, never a wrapped total.
TEST(CanonicalCacheKey, DuplicateMergeSaturatesInsteadOfWrapping) {
  ExpectMalformedWithoutCacheLookup("vld_in:2147483647,vld_in:2147483647");
  ExpectMalformedWithoutCacheLookup("vld_in:9223372036854775807,vld_in:9223372036854775806");
  const InjectionPlan plan =
      ParseInjectionPlan(PnetRequest("jpeg_decoder", "vld_in:2147483646,vld_in:1"));
  ASSERT_TRUE(plan.ok()) << plan.error;
  ASSERT_EQ(plan.items.size(), 1u);
  EXPECT_EQ(plan.items[0].count, 2147483647);
  EXPECT_EQ(plan.total, 2147483647);
}

TEST(ShardedLruCache, BasicHitMissEvict) {
  ShardedLruCache cache(/*capacity=*/4, /*num_shards=*/1);
  CachedPrediction out;
  EXPECT_FALSE(cache.Get("a", &out));
  cache.Put("a", {1.0, 0.0});
  ASSERT_TRUE(cache.Get("a", &out));
  EXPECT_EQ(out.value, 1.0);
  cache.Put("b", {2.0, 0.0});
  cache.Put("c", {3.0, 0.0});
  cache.Put("d", {4.0, 0.0});
  // Refresh "a": the least recently used entry is now "b", so inserting a
  // fifth entry evicts it.
  ASSERT_TRUE(cache.Get("a", &out));
  cache.Put("e", {5.0, 0.0});
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_FALSE(cache.Get("b", &out));
  EXPECT_EQ(cache.evictions(), 1u);
}

// An insert at capacity reuses the evicted entry's nodes, re-keying them
// with keys shorter and longer than the one they held: every hit, miss and
// value must still be what a plain LRU list gives.
TEST(ShardedLruCache, ReusedEvictionsMatchAReferenceLru) {
  constexpr std::size_t kCapacity = 8;
  ShardedLruCache cache(kCapacity, /*num_shards=*/1);
  std::vector<std::pair<std::string, double>> reference;  // most recent first
  std::vector<std::string> keys;
  for (int i = 0; i < 24; ++i) {
    keys.push_back(std::string(static_cast<std::size_t>(1 + (i * 7) % 40), 'k') +
                   std::to_string(i));
  }
  std::uint64_t state = 5;
  for (int op = 0; op < 4000; ++op) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::string& key = keys[(state >> 33) % keys.size()];
    const auto it = std::find_if(reference.begin(), reference.end(),
                                 [&](const auto& entry) { return entry.first == key; });
    CachedPrediction out;
    if ((state >> 20) % 2 == 0) {
      ASSERT_EQ(cache.Get(key, &out), it != reference.end()) << "op " << op << " " << key;
      if (it != reference.end()) {
        EXPECT_EQ(out.value, it->second) << "op " << op;
        std::rotate(reference.begin(), it, it + 1);
      }
      continue;
    }
    const double value = static_cast<double>(op);
    cache.Put(key, {value, 0.0});
    if (it != reference.end()) {
      it->second = value;
      std::rotate(reference.begin(), it, it + 1);
    } else {
      reference.insert(reference.begin(), {key, value});
      if (reference.size() > kCapacity) {
        reference.pop_back();
      }
    }
    ASSERT_EQ(cache.size(), reference.size());
  }
}

TEST(ShardedLruCache, DisabledCacheNeverHits) {
  ShardedLruCache cache(/*capacity=*/0);
  cache.Put("a", {1.0, 0.0});
  CachedPrediction out;
  EXPECT_FALSE(cache.Get("a", &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PredictionService, MatchesDirectEvaluation) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);
  const PredictResponse resp = service.Predict(JpegRequest(65536, 0.2));
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_DOUBLE_EQ(resp.value, DirectJpegLatency(65536, 0.2));
}

TEST(PredictionService, BatchPreservesOrderAcrossInterfaces) {
  ServiceOptions options;
  options.num_workers = 4;
  options.batch_chunk = 2;  // force many chunks
  PredictionService service(InterfaceRegistry::Default(), options);

  std::vector<PredictRequest> requests;
  for (int i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      requests.push_back(JpegRequest(4096.0 * (i + 1), 0.15));
    } else {
      requests.push_back(ProtoaccRequest(8 + i, 6 + i, i % 4));
    }
  }
  const std::vector<PredictResponse> responses = service.PredictBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok()) << i << ": " << responses[i].error;
    EXPECT_GT(responses[i].value, 0.0);
  }
  // Spot-check a jpeg slot against direct evaluation.
  EXPECT_DOUBLE_EQ(responses[0].value, DirectJpegLatency(4096, 0.15));
}

TEST(PredictionService, UnknownInterfaceAndFunction) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest bad_iface = JpegRequest(100, 0.5);
  bad_iface.interface = "warp_drive";
  EXPECT_EQ(service.Predict(bad_iface).status, PredictStatus::kNotFound);

  PredictRequest bad_fn = JpegRequest(100, 0.5);
  bad_fn.function = "latency_of_nothing";
  EXPECT_EQ(service.Predict(bad_fn).status, PredictStatus::kNotFound);

  // bitcoin_miner ships text only: no program, no pnet.
  PredictRequest text_only;
  text_only.interface = "bitcoin_miner";
  text_only.function = "latency";
  EXPECT_EQ(service.Predict(text_only).status, PredictStatus::kNotFound);
}

TEST(PredictionService, CacheHitSecondTime) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);

  const PredictResponse first = service.Predict(JpegRequest(65536, 0.2));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);

  const PredictResponse second = service.Predict(JpegRequest(65536, 0.2));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_DOUBLE_EQ(second.value, first.value);
  EXPECT_GE(service.metrics().cache_hits(), 1u);

  // Same workload, permuted attribute order: still a hit.
  PredictRequest permuted = JpegRequest(65536, 0.2);
  std::swap(permuted.attrs[0], permuted.attrs[1]);
  EXPECT_TRUE(service.Predict(permuted).cache_hit);
}

TEST(PredictionService, CacheDisabled) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  PredictionService service(InterfaceRegistry::Default(), options);
  EXPECT_FALSE(service.Predict(JpegRequest(1024, 0.3)).cache_hit);
  EXPECT_FALSE(service.Predict(JpegRequest(1024, 0.3)).cache_hit);
  EXPECT_EQ(service.metrics().cache_hits(), 0u);
}

TEST(PredictionService, ExplicitStepBudgetExhaustsCleanly) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req = ProtoaccRequest(32, 20, 8);
  req.max_steps = 10;  // far below what read_cost recursion needs
  const PredictResponse resp = service.Predict(req);
  EXPECT_EQ(resp.status, PredictStatus::kResourceExhausted);
  EXPECT_FALSE(resp.error.empty());

  // The same request with a sane budget succeeds — the worker survived.
  req.max_steps = 0;
  EXPECT_TRUE(service.Predict(req).ok());
}

TEST(PredictionService, DeadlineDerivedBudgetReportsDeadlineExceeded) {
  ServiceOptions options;
  options.num_workers = 1;
  options.steps_per_us = 1;  // 1 step per microsecond: any real work blows it
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req = ProtoaccRequest(32, 20, 8);
  req.deadline_us = 5;
  const PredictResponse resp = service.Predict(req);
  EXPECT_EQ(resp.status, PredictStatus::kDeadlineExceeded);
  EXPECT_GE(service.metrics().deadline_exceeded(), 1u);
}

// Regression: the deadline→step-budget conversion multiplied remaining_us by
// steps_per_us in uint64 without an overflow check, so a huge deadline
// wrapped to a tiny budget and the most patient caller was the first one
// killed with RESOURCE_EXHAUSTED.
TEST(PredictionService, DeadlineBudgetStepsSaturatesInsteadOfWrapping) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // Pre-fix, INT64_MAX * 200 wrapped to a small number; now it saturates.
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(INT64_MAX, 200), kMax);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(INT64_MAX, 3), kMax);
  // Non-overflowing products stay exact — including the largest one that
  // fits: INT64_MAX * 2 is 2^64 - 2, one short of the saturation value.
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(INT64_MAX, 2), kMax - 1);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(5, 200), 200u * 5u);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(1, 1), 1u);
  // Expired or degenerate inputs yield a zero budget, never a wrap.
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(0, 200), 0u);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(-7, 200), 0u);
  EXPECT_EQ(PredictionService::DeadlineBudgetSteps(INT64_MAX, 0), 0u);
}

TEST(PredictionService, FarFutureDeadlineIsNotSpuriouslyExhausted) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  PredictRequest req = ProtoaccRequest(32, 20, 8);
  req.deadline_us = INT64_MAX;  // effectively "no deadline"
  const PredictResponse resp = service.Predict(req);
  EXPECT_TRUE(resp.ok()) << resp.error;
}

// Regression companion to OverflowingCountsDoNotAlias: the evaluator, not
// the canonicalizer, is where an overflowing or absurd token count must be
// rejected — as an error, not a clamp.
TEST(PredictionService, PnetRejectsOverflowingTokenCounts) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:99999999999999999999");
  const PredictResponse resp = service.Predict(req);
  EXPECT_EQ(resp.status, PredictStatus::kError);
  EXPECT_NE(resp.error.find("token count"), std::string::npos) << resp.error;
  // Merely large-but-parseable counts past INT_MAX are rejected too.
  req.entry_place = "hdr_in:1,vld_in:4294967296";
  const PredictResponse big = service.Predict(req);
  EXPECT_EQ(big.status, PredictStatus::kError);
  EXPECT_NE(big.error.find("token count"), std::string::npos) << big.error;
}

TEST(PredictionService, PnetQueryQuiescesAndPredicts) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.representation = Representation::kPnet;
  // The JPEG net gates the vld stage on the header token, so a realistic
  // decode injects both: one header plus eight stripes.
  req.entry_place = "hdr_in:1,vld_in:8";
  req.attrs = {{"bits", 800.0}, {"blocks", 8.0}};
  const PredictResponse resp = service.Predict(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  // 8 stripes through the vld/idct/writer stages: latency dominated by the
  // writer at blocks*4*273 cycles per stripe.
  EXPECT_GT(resp.value, 8.0 * 8 * 4 * 273 * 0.9);
  EXPECT_GT(resp.throughput, 0.0);

  PredictRequest bad_place = req;
  bad_place.entry_place = "no_such_place";
  EXPECT_EQ(service.Predict(bad_place).status, PredictStatus::kNotFound);
}

// A delay expression that divides by zero (the jpeg vld stage divides by
// `bits` and `blocks`, which a request may leave at 0) or leaves [0, 1e15)
// used to abort the whole process. It must answer ERROR naming the
// transition — on the whole-net path and on the component-tier path —
// keep nothing in the service's derived store, and leave the service
// answering.
TEST(PredictionService, PnetExpressionErrorsAnswerErrorAndKeepNothing) {
  struct Path {
    const char* name;
    bool tiers;
  };
  for (const Path& path : {Path{"whole-net", false}, Path{"tiers", true}}) {
    ServiceOptions options;
    options.num_workers = 1;
    options.enable_pnet_memo = path.tiers;
    PredictionService service(InterfaceRegistry::Default(), options);
    const DerivedStore* derived = service.derived_store();
    ASSERT_EQ(derived != nullptr, path.tiers) << path.name;

    PredictRequest zero_attrs;
    zero_attrs.interface = "jpeg_decoder";
    zero_attrs.representation = Representation::kPnet;
    zero_attrs.entry_place = "hdr_in:1,vld_in:1";
    PredictRequest negative = zero_attrs;
    negative.entry_place = "hdr_in:1,vld_in:8";
    negative.attrs = {{"bits", -8000.0}, {"blocks", 8.0}};
    const std::pair<const PredictRequest*, const char*> cases[] = {
        {&zero_attrs, "transition 'vld': delay: line 1: division by zero"},
        {&negative, "transition 'vld': delay: "}};
    for (const auto& [request, message] : cases) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        const PredictResponse resp = service.Predict(*request);
        EXPECT_EQ(resp.status, PredictStatus::kError) << path.name;
        EXPECT_EQ(resp.error.rfind(message, 0), 0u) << path.name << ": " << resp.error;
        EXPECT_TRUE(derived == nullptr || derived->size() == 0u) << path.name;
      }
    }
    EXPECT_NE(service.Predict(negative).error.find("is outside [0, 1e15)"), std::string::npos);

    PredictRequest valid = negative;
    valid.attrs = {{"bits", 800.0}, {"blocks", 8.0}};
    const PredictResponse ok = service.Predict(valid);
    ASSERT_TRUE(ok.ok()) << path.name << ": " << ok.error;
    EXPECT_GT(ok.value, 0.0);
  }
}

// The injection plan is checked against the firing budget, and against a
// fixed cap the budget cannot lift, before anything is injected: each token
// costs memory up front, so such a plan gets its status at once. Totals
// are summed in 64 bits.
TEST(PredictionService, InjectionPlanLargerThanTheBudgetIsAnsweredUpFront) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest over = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:100");
  over.max_steps = 100;
  const PredictResponse exhausted = service.Predict(over);
  EXPECT_EQ(exhausted.status, PredictStatus::kResourceExhausted);
  EXPECT_NE(exhausted.error.find("exceeds the firing budget"), std::string::npos)
      << exhausted.error;

  // Two INT_MAX items used to overflow an int total.
  const PredictResponse huge =
      service.Predict(PnetRequest("jpeg_decoder", "hdr_in:2147483647,vld_in:2147483647"));
  EXPECT_EQ(huge.status, PredictStatus::kResourceExhausted) << huge.error;

  // A budget that came from the deadline reports the deadline.
  ServiceOptions slow = options;
  slow.steps_per_us = 1;
  PredictionService deadline_service(InterfaceRegistry::Default(), slow);
  PredictRequest timed = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:4000000");
  timed.deadline_us = 1'000'000;
  const PredictResponse late = deadline_service.Predict(timed);
  EXPECT_EQ(late.status, PredictStatus::kDeadlineExceeded) << late.error;

  // max_steps is a client field: even the largest budget cannot lift the
  // cap, whether the plan spells its counts or takes them from `tokens`.
  PredictRequest past_cap = PnetRequest(
      "jpeg_decoder", "hdr_in:1,vld_in:" + std::to_string(kMaxInjectedTokens));
  past_cap.max_steps = std::numeric_limits<std::uint64_t>::max();
  const PredictResponse capped = service.Predict(past_cap);
  EXPECT_EQ(capped.status, PredictStatus::kResourceExhausted) << capped.error;
  EXPECT_NE(capped.error.find("exceeds the cap"), std::string::npos) << capped.error;
  past_cap = PnetRequest("jpeg_decoder", "", static_cast<int>(kMaxInjectedTokens) + 1);
  past_cap.max_steps = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(service.Predict(past_cap).status, PredictStatus::kResourceExhausted);

  // The cache ignores budgets: a warmed plan still answers from it.
  PredictRequest warm = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
  ASSERT_TRUE(service.Predict(warm).ok());
  warm.max_steps = 2;
  const PredictResponse hit = service.Predict(warm);
  EXPECT_TRUE(hit.ok()) << hit.error;
  EXPECT_TRUE(hit.cache_hit);
}

TEST(PredictionService, RejectedAfterShutdown) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  service.Shutdown();
  const PredictResponse resp = service.Predict(JpegRequest(1024, 0.2));
  EXPECT_EQ(resp.status, PredictStatus::kRejected);
  EXPECT_GE(service.metrics().rejected(), 1u);
}

// Regression: requests resolved before the cache lookup (rejected at
// submission, unknown interface) used to be recorded as cache misses,
// inflating the miss counter and skewing the hit rate. They must report
// CacheOutcome::kNotConsulted and leave both cache counters alone.
TEST(PredictionService, RejectionsAndLookupFailuresDoNotSkewCacheCounters) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest unknown;
  unknown.interface = "no_such_accelerator";
  unknown.function = "latency";
  EXPECT_EQ(service.Predict(unknown).status, PredictStatus::kNotFound);
  EXPECT_EQ(service.metrics().cache_misses(), 0u);
  EXPECT_EQ(service.metrics().cache_hits(), 0u);

  // A genuine evaluation still counts as a miss.
  EXPECT_FALSE(service.Predict(JpegRequest(1024, 0.2)).cache_hit);
  EXPECT_EQ(service.metrics().cache_misses(), 1u);

  service.Shutdown();
  EXPECT_EQ(service.Predict(JpegRequest(2048, 0.2)).status, PredictStatus::kRejected);
  EXPECT_EQ(service.metrics().cache_misses(), 1u);
  EXPECT_EQ(service.metrics().cache_hits(), 0u);
  EXPECT_GE(service.metrics().rejected(), 1u);
}

// Program queries run on the bytecode VM only; the tree-walking
// interpreter is the oracle. Identical requests through the service and
// straight through an Interpreter must produce bit-identical answers and
// identical error strings. Caching is off so every request evaluates.
TEST(PredictionService, VmAnswersMatchTheInterpreterOracle) {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;

  std::vector<PredictRequest> requests;
  for (int i = 0; i < 16; ++i) {
    requests.push_back(JpegRequest(512.0 * (i + 1), 0.1 + 0.05 * i));
    requests.push_back(ProtoaccRequest(4.0 + i, 2.0 + i, i % 5));
  }
  // Division by zero inside the program: an error on both sides.
  requests.push_back(JpegRequest(1024, 0.0));

  PredictionService service(InterfaceRegistry::Default(), options);
  const auto responses = service.PredictBatch(requests);
  // The service counts its own VM calls: every program request was one.
  EXPECT_EQ(service.metrics().vm_counts().calls, requests.size());
  EXPECT_EQ(service.metrics().vm_counts().errors, 1u);  // the division by zero

  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PredictRequest& req = requests[i];
    const ProgramInterface iface = InterfaceRegistry::Default().LoadProgram(req.interface);
    Interpreter oracle(iface.program().get());
    for (const auto& [name, value] : iface.constants()) {
      oracle.SetGlobal(name, value);
    }
    KvObject workload;
    for (const auto& [name, value] : req.attrs) {
      workload.Set(name, value);
    }
    workload.AddUniformChildren(req.children);
    const EvalResult want = oracle.Call(req.function, {Value::Object(&workload)});
    ASSERT_EQ(responses[i].ok(), want.ok) << i << ": " << responses[i].error;
    if (!want.ok) {
      EXPECT_EQ(responses[i].status, PredictStatus::kError) << i;
      EXPECT_EQ(responses[i].error, want.error) << i;
      continue;
    }
    EXPECT_EQ(responses[i].value, want.value.num) << i;
  }
}

// A protoacc message with children=50 prices one aliased sub-message 50
// times: the VM's call memo runs read_cost once and reuses it 49 times,
// and the scrape carries the count.
TEST(PredictionService, ProgramQueryCountsVmMemoHits) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  PredictionService service(InterfaceRegistry::Default(), options);
  const PredictResponse response = service.Predict(ProtoaccRequest(6, 9, 50));
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(service.metrics().vm_counts().memo_hits, 49u);
  EXPECT_NE(service.StatsPrometheus().find("\nperfiface_psc_vm_memo_hits_total 49\n"),
            std::string::npos);
}

using testing::ScrapeValue;

// One run of the shard-merge mix: the responses and their requests'
// interfaces, in submission order, and the scrape and derived-store hits
// read after them.
struct ShardMixRun {
  std::vector<PredictResponse> responses;
  std::vector<std::string> interfaces;
  std::string scrape;
  std::uint64_t derived_hits = 0;
};

// Four blocker program requests, a request that expires in the queue,
// then one batch of distinct misses — jpeg and protoacc programs (one of
// with 49 memoized calls), a program error and pnet requests the derived
// tier answers — and the same batch again, whose OK answers are cache hits.
// Every request asks to be explained, so its response says how it was
// counted.
ShardMixRun RunShardMix(std::size_t workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.cache_capacity = 4096;
  PredictionService service(InterfaceRegistry::Default(), options);
  ShardMixRun run;

  // Park every worker in a completion callback; the request submitted then
  // waits in the queue far past its 1 us deadline.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t parked = 0;
  bool released = false;
  std::vector<PredictionService::BatchHandle> blockers;
  for (int b = 0; b < 4; ++b) {
    PredictRequest blocker = JpegRequest(4096.0 * (b + 1), 0.3);
    blocker.explain = true;
    blockers.push_back(service.SubmitBatch(
        std::vector<PredictRequest>{blocker}, [&](std::size_t, const PredictResponse&) {
          std::unique_lock<std::mutex> lock(mu);
          ++parked;
          cv.notify_all();
          cv.wait(lock, [&] { return released; });
        }));
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked == workers; });
  }
  PredictRequest doomed = ProtoaccRequest(3, 3, 1);
  doomed.deadline_us = 1;
  doomed.explain = true;
  PredictionService::BatchHandle expired = service.SubmitBatch({doomed});
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  for (const PredictionService::BatchHandle& handle : blockers) {
    run.responses.push_back(handle.Responses()[0]);
    run.interfaces.push_back("jpeg_decoder");
  }
  run.responses.push_back(expired.Responses()[0]);
  run.interfaces.push_back(doomed.interface);

  std::vector<PredictRequest> mix;
  for (int i = 0; i < 12; ++i) {
    mix.push_back(JpegRequest(512.0 * (i + 1), 0.1 + 0.05 * i));
    mix.push_back(ProtoaccRequest(4.0 + i, 2.0 + i, i == 5 ? 50 : i % 4));
  }
  mix.push_back(JpegRequest(1024, 0.0));  // division by zero: ERROR
  for (int i = 0; i < 8; ++i) {
    PredictRequest pnet = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
    pnet.attrs[0].second = 800.0 + 64 * i;  // bits
    mix.push_back(pnet);
  }
  for (PredictRequest& req : mix) {
    req.explain = true;
  }
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<PredictResponse> answered = service.PredictBatch(mix);
    run.responses.insert(run.responses.end(), answered.begin(), answered.end());
    for (const PredictRequest& req : mix) {
      run.interfaces.push_back(req.interface);
    }
  }
  run.scrape = service.StatsPrometheus();
  run.derived_hits = service.derived_store()->hits();
  return run;
}

// Each worker counts into its own shard and the scrape sums them: with
// four workers, every total of the scrape equals what the responses report
// one by one, and what one worker counts for the same requests.
TEST(PredictionServiceShards, ScrapeTotalsEqualTheResponsesAndOneWorker) {
  const ShardMixRun four = RunShardMix(4);
  const ShardMixRun one = RunShardMix(1);

  // What the responses report.
  std::uint64_t evaluated = 0;
  std::uint64_t errors = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t expired = 0;
  std::uint64_t vm_calls = 0;
  std::uint64_t vm_steps = 0;
  std::uint64_t vm_errors = 0;
  std::uint64_t derived_hits = 0;
  for (const PredictResponse& r : four.responses) {
    ASSERT_TRUE(r.explain.filled);
    if (r.explain.representation == "expired") {
      ++expired;
      continue;
    }
    ++evaluated;
    errors += !r.ok();
    hits += r.explain.cache == "hit";
    misses += r.explain.cache == "miss";
    derived_hits += r.explain.derived_hits;
    if (r.explain.representation == "psc-vm") {
      ++vm_calls;
      vm_steps += r.explain.steps;
      vm_errors += !r.ok();
    }
  }
  ASSERT_EQ(four.responses[4].status, PredictStatus::kDeadlineExceeded);
  ASSERT_EQ(four.responses[4].error, "deadline expired while queued");
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(errors, 2u);  // the division by zero, evaluated in both passes
  EXPECT_EQ(vm_errors, 2u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(derived_hits, 0u);

  const std::string& scrape = four.scrape;
  EXPECT_EQ(ScrapeValue(scrape, "perfiface_serve_requests_total"), evaluated);
  EXPECT_EQ(ScrapeValue(scrape, "perfiface_serve_errors_total"), errors);
  EXPECT_EQ(ScrapeValue(scrape, "perfiface_serve_cache_hits_total"), hits);
  EXPECT_EQ(ScrapeValue(scrape, "perfiface_serve_cache_misses_total"), misses);
  EXPECT_EQ(ScrapeValue(scrape, "perfiface_serve_deadline_exceeded_total"), expired);
  EXPECT_EQ(ScrapeValue(scrape, "perfiface_psc_vm_calls_total"), vm_calls);
  EXPECT_EQ(ScrapeValue(scrape, "perfiface_psc_vm_steps_total"), vm_steps);
  EXPECT_EQ(ScrapeValue(scrape, "perfiface_psc_vm_errors_total"), vm_errors);
  // Memo hits are not in the responses; the 50-child message alone makes 49.
  EXPECT_GE(ScrapeValue(scrape, "perfiface_psc_vm_memo_hits_total"), 49.0);
  EXPECT_EQ(four.derived_hits, derived_hits);

  // Per interface: requests and the latency histogram's count.
  std::map<std::string, std::uint64_t> per_interface;
  for (std::size_t i = 0; i < four.responses.size(); ++i) {
    if (four.responses[i].explain.representation != "expired") {
      ++per_interface[four.interfaces[i]];
    }
  }
  ASSERT_EQ(per_interface.size(), 2u);
  for (const auto& [iface, count] : per_interface) {
    const std::map<std::string, std::string> label{{"interface", iface}};
    EXPECT_EQ(ScrapeValue(scrape, "perfiface_serve_interface_requests_total", label), count)
        << iface;
    EXPECT_EQ(ScrapeValue(scrape, "perfiface_serve_latency_seconds_count", label), count)
        << iface;
  }

  // One worker counts the same.
  for (const char* name :
       {"perfiface_serve_requests_total", "perfiface_serve_errors_total",
        "perfiface_serve_cache_hits_total", "perfiface_serve_cache_misses_total",
        "perfiface_serve_deadline_exceeded_total", "perfiface_psc_vm_calls_total",
        "perfiface_psc_vm_steps_total", "perfiface_psc_vm_errors_total",
        "perfiface_psc_vm_memo_hits_total"}) {
    EXPECT_EQ(ScrapeValue(scrape, name), ScrapeValue(one.scrape, name)) << name;
  }
  for (const auto& [iface, count] : per_interface) {
    const std::map<std::string, std::string> label{{"interface", iface}};
    EXPECT_EQ(ScrapeValue(one.scrape, "perfiface_serve_interface_requests_total", label), count);
    EXPECT_EQ(ScrapeValue(one.scrape, "perfiface_serve_latency_seconds_count", label), count);
  }
  EXPECT_EQ(one.derived_hits, four.derived_hits);
}

// Two services in one process share no counts and no /tracez ring: each
// reports its own VM calls, its own Petri-net simulations and its own
// requests' trace ids.
TEST(PredictionServiceShards, TwoServicesReportDisjointVmCountsAndTraceEntries) {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  options.enable_pnet_memo = false;  // every pnet request is one whole-net simulation
  PredictionService a(InterfaceRegistry::Default(), options);
  PredictionService b(InterfaceRegistry::Default(), options);
  std::vector<PredictRequest> for_a;
  std::vector<PredictRequest> for_b;
  for (int i = 0; i < 3; ++i) {
    for_a.push_back(JpegRequest(1024.0 * (i + 1), 0.2));
    for_a.back().trace_id = "service-a-" + std::to_string(i);
  }
  for_a.push_back(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8"));
  for_a.back().trace_id = "service-a-3";
  for (int i = 0; i < 5; ++i) {
    for_b.push_back(ProtoaccRequest(4.0 + i, 3, 2));
    for_b.back().trace_id = "service-b-" + std::to_string(i);
  }
  for (const char* plan : {"hdr_in:1,vld_in:4", "hdr_in:1,vld_in:16"}) {
    for_b.push_back(PnetRequest("jpeg_decoder", plan));
    for_b.back().trace_id = "service-b-" + std::to_string(for_b.size() - 1);
  }
  // A simulated request's explain steps are its firings.
  const auto firings_of = [](PredictionService& service, std::vector<PredictRequest> requests) {
    double firings = 0;
    for (PredictRequest& request : requests) {
      request.explain = true;
    }
    for (const PredictResponse& r : service.PredictBatch(requests)) {
      EXPECT_TRUE(r.ok()) << r.error;
      if (r.explain.representation == "pnet") {
        firings += static_cast<double>(r.explain.steps);
      }
    }
    return firings;
  };
  const double firings_a = firings_of(a, for_a);
  const double firings_b = firings_of(b, for_b);
  EXPECT_GT(firings_a, 0);
  EXPECT_GT(firings_b, 0);

  EXPECT_EQ(a.metrics().vm_counts().calls, 3u);
  EXPECT_EQ(b.metrics().vm_counts().calls, 5u);
  const std::string scrape_a = a.StatsPrometheus();
  const std::string scrape_b = b.StatsPrometheus();
  EXPECT_EQ(ScrapeValue(scrape_a, "perfiface_psc_vm_calls_total"), 3.0);
  EXPECT_EQ(ScrapeValue(scrape_b, "perfiface_psc_vm_calls_total"), 5.0);
  EXPECT_EQ(ScrapeValue(scrape_a, "perfiface_pnet_runs_total"), 1.0);
  EXPECT_EQ(ScrapeValue(scrape_b, "perfiface_pnet_runs_total"), 2.0);
  EXPECT_EQ(ScrapeValue(scrape_a, "perfiface_pnet_firings_total"), firings_a);
  EXPECT_EQ(ScrapeValue(scrape_b, "perfiface_pnet_firings_total"), firings_b);

  const std::string tracez_a = obs::DumpSpanRingsJson(a.span_rings());
  const std::string tracez_b = obs::DumpSpanRingsJson(b.span_rings());
  EXPECT_NE(tracez_a.find("\"recorded_total\":4,"), std::string::npos) << tracez_a;
  EXPECT_NE(tracez_b.find("\"recorded_total\":7,"), std::string::npos) << tracez_b;
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(tracez_a.find("service-a-" + std::to_string(i)), std::string::npos) << tracez_a;
  }
  for (int i = 0; i < 7; ++i) {
    EXPECT_NE(tracez_b.find("service-b-" + std::to_string(i)), std::string::npos) << tracez_b;
  }
  EXPECT_EQ(tracez_a.find("service-b-"), std::string::npos) << tracez_a;
  EXPECT_EQ(tracez_b.find("service-a-"), std::string::npos) << tracez_b;
}

TEST(PredictionService, StatsPrometheusUnifiesServiceAndLayerFamilies) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  ASSERT_TRUE(service.Predict(JpegRequest(2048, 0.25)).ok());
  const std::string prom = service.StatsPrometheus();
  // Families owned by the service...
  EXPECT_NE(prom.find("perfiface_serve_requests_total"), std::string::npos);
  EXPECT_NE(prom.find("interface=\"jpeg_decoder\""), std::string::npos);
  // ...including the VM's, which the service counts for the program
  // queries it runs on the bytecode VM.
  EXPECT_NE(prom.find("perfiface_psc_vm_calls_total"), std::string::npos);
  EXPECT_NE(prom.find("perfiface_psc_vm_steps_total"), std::string::npos);
  EXPECT_EQ(prom.find("perfiface_psc_vm_fallback_total"), std::string::npos);
}

TEST(PredictionService, StatsDumpsMentionInterfaces) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  (void)service.Predict(JpegRequest(2048, 0.25));
  const std::string text = service.StatsText();
  EXPECT_NE(text.find("jpeg_decoder"), std::string::npos);
  const std::string json = service.StatsJson();
  EXPECT_NE(json.find("\"requests\":"), std::string::npos);
  EXPECT_NE(json.find("jpeg_decoder"), std::string::npos);
}

// The evaluator must accept exactly the entry-place specs the cache key
// canonicalizes: otherwise "hdr_in : 1" answers from a warm cache but
// errors on a cold one.
TEST(PredictionService, EntryPlaceWhitespaceAndDuplicatesEvaluateIdentically) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // force every variant down the cold path
  PredictionService service(InterfaceRegistry::Default(), options);

  const PredictResponse tight =
      service.Predict(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8"));
  ASSERT_TRUE(tight.ok()) << tight.error;
  const PredictResponse spaced =
      service.Predict(PnetRequest("jpeg_decoder", " hdr_in : 1 ,\tvld_in:8 "));
  ASSERT_TRUE(spaced.ok()) << spaced.error;
  EXPECT_DOUBLE_EQ(spaced.value, tight.value);
  const PredictResponse split =
      service.Predict(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:4,vld_in:4"));
  ASSERT_TRUE(split.ok()) << split.error;
  EXPECT_DOUBLE_EQ(split.value, tight.value);
}

// --- per-component evaluation (exact derived tier) ---

// Acceptance: per-component evaluation (derived tier, else per-component
// simulation) and whole-net simulation must produce identical predictions
// for every registry entry that ships a pnet. The response cache is
// disabled on both services so every repeat actually reaches the tier.
TEST(PredictionServiceMemo, MemoizedMatchesUnmemoizedAcrossRegistry) {
  ServiceOptions on;
  on.num_workers = 2;
  on.cache_capacity = 0;
  ServiceOptions off = on;
  off.enable_pnet_memo = false;
  PredictionService memo_on(InterfaceRegistry::Default(), on);
  PredictionService memo_off(InterfaceRegistry::Default(), off);

  int ok_predictions = 0;
  for (const std::string& name : memo_on.InterfaceNames()) {
    for (int tokens : {1, 4}) {
      const PredictRequest req = PnetRequest(name, "", tokens);
      const PredictResponse base = memo_off.Predict(req);
      // Cold (the key's first lookup) then warm: both must agree with the
      // from-scratch answer, down to the status.
      const PredictResponse cold = memo_on.Predict(req);
      const PredictResponse warm = memo_on.Predict(req);
      EXPECT_EQ(cold.status, base.status) << name;
      EXPECT_EQ(warm.status, base.status) << name;
      if (base.ok()) {
        ++ok_predictions;
        EXPECT_DOUBLE_EQ(cold.value, base.value) << name;
        EXPECT_DOUBLE_EQ(warm.value, base.value) << name;
        EXPECT_DOUBLE_EQ(cold.throughput, base.throughput) << name;
        EXPECT_DOUBLE_EQ(warm.throughput, base.throughput) << name;
      }
    }
  }
  EXPECT_GT(ok_predictions, 0);  // the sweep must not be vacuous

  // The realistic multi-place JPEG injection, answered by its compiled
  // max-plus program; and a plan too large to compile, simulated per
  // component both cold and warm.
  const DerivedStore& derived = *memo_on.derived_store();
  for (const char* plan : {"hdr_in:1,vld_in:8", kUncompiledJpegPlan}) {
    PredictRequest jpeg = PnetRequest("jpeg_decoder", plan);
    jpeg.explain = true;
    const std::uint64_t derived_before = derived.hits();
    const PredictResponse base = memo_off.Predict(jpeg);
    const PredictResponse cold = memo_on.Predict(jpeg);
    const PredictResponse warm = memo_on.Predict(jpeg);
    ASSERT_TRUE(base.ok()) << base.error;
    for (const PredictResponse* got : {&cold, &warm}) {
      EXPECT_EQ(got->status, base.status) << plan;
      EXPECT_DOUBLE_EQ(got->value, base.value) << plan;
    }
    if (std::string(plan) == kUncompiledJpegPlan) {
      EXPECT_EQ(cold.explain.representation, "pnet");
      EXPECT_EQ(warm.explain.representation, "pnet");
      EXPECT_EQ(derived.hits(), derived_before);
    } else {
      EXPECT_EQ(derived.hits(), derived_before + 2);
    }
  }
  EXPECT_EQ(memo_off.derived_store(), nullptr);
}

// Acceptance: the derived tier's and the async API's families are visible
// through one Prometheus scrape of the service (the --metrics endpoint's
// payload), and no sub-net memo family is.
TEST(PredictionServiceMemo, MemoCountersVisibleInPrometheusScrape) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  ASSERT_TRUE(service.Predict(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8")).ok());
  ASSERT_TRUE(service.Predict(PnetRequest("jpeg_decoder", kUncompiledJpegPlan)).ok());
  const std::string prom = service.StatsPrometheus();
  EXPECT_NE(prom.find("\nperfiface_derived_hits_total 1\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("\nperfiface_derived_refusals_total 1\n"), std::string::npos);
  EXPECT_NE(prom.find("\nperfiface_derived_distilled_total 1\n"), std::string::npos);
  EXPECT_EQ(prom.find("pnet_memo"), std::string::npos);
  EXPECT_NE(prom.find("perfiface_serve_inflight_batches"), std::string::npos);
}

// Each service builds and owns its derived store: what one service
// compiled is invisible to another live in the same process.
TEST(PredictionServiceMemo, ServicesDoNotShareTierState) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // every repeat reaches the tier
  PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
  req.explain = true;

  PredictionService c(InterfaceRegistry::Default(), options);
  PredictionService d(InterfaceRegistry::Default(), options);
  // A plan C can compile: its first lookup records and compiles the
  // component, and D, idle, holds no model.
  const PredictResponse c_first = c.Predict(req);
  ASSERT_TRUE(c_first.ok()) << c_first.error;
  EXPECT_EQ(c_first.explain.representation, "pnet-derived");
  EXPECT_EQ(c.derived_store()->distilled(), 1u);
  EXPECT_EQ(d.derived_store()->size(), 0u);
  EXPECT_NE(c.StatuszJson().find("\"derived_store\":{\"models\":1,"), std::string::npos);
  EXPECT_NE(d.StatuszJson().find("\"derived_store\":{\"models\":0,"), std::string::npos)
      << d.StatuszJson();
}

// Each service's scrape holds its own families once: two live services
// used to share one process-wide scrape, so A's printed the serve
// families of both, and idle B's reported A's tier counters.
TEST(PredictionServiceMemo, ScrapeHoldsOnlyTheServicesOwnFamilies) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService a(InterfaceRegistry::Default(), options);
  PredictionService b(InterfaceRegistry::Default(), options);
  PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
  ASSERT_TRUE(a.Predict(req).ok());
  req.entry_place = kUncompiledJpegPlan;  // refused by the derived tier: simulated
  ASSERT_TRUE(a.Predict(req).ok());

  const auto count = [](const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  const std::string scrape_a = a.StatsPrometheus();
  EXPECT_EQ(count(scrape_a, "# TYPE perfiface_serve_requests_total "), 1u);
  EXPECT_NE(scrape_a.find("\nperfiface_serve_requests_total 2\n"), std::string::npos);
  EXPECT_NE(scrape_a.find(StrFormat("\nperfiface_derived_hits_total %llu\n",
                                    static_cast<unsigned long long>(
                                        a.derived_store()->hits()))),
            std::string::npos);
  EXPECT_NE(scrape_a.find(StrFormat("\nperfiface_derived_refusals_total %llu\n",
                                    static_cast<unsigned long long>(
                                        a.derived_store()->refusals()))),
            std::string::npos);
  EXPECT_GT(a.derived_store()->refusals(), 0u);

  const std::string scrape_b = b.StatsPrometheus();
  EXPECT_EQ(count(scrape_b, "# TYPE perfiface_serve_requests_total "), 1u);
  EXPECT_NE(scrape_b.find("\nperfiface_serve_requests_total 0\n"), std::string::npos);
  EXPECT_NE(scrape_b.find("\nperfiface_derived_hits_total 0\n"), std::string::npos);
  EXPECT_NE(scrape_b.find("\nperfiface_derived_refusals_total 0\n"), std::string::npos);
  // Only the tiers a service runs render families: none is parametric.
  EXPECT_EQ(scrape_a.find("perfiface_param_"), std::string::npos);
}

// --- async batch API ---

TEST(PredictionServiceAsync, SubmitBatchMatchesPredictBatch) {
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_chunk = 4;
  PredictionService service(InterfaceRegistry::Default(), options);

  std::vector<PredictRequest> requests;
  for (int i = 0; i < 20; ++i) {
    requests.push_back(i % 2 == 0 ? JpegRequest(1024.0 * (i + 1), 0.2)
                                  : ProtoaccRequest(8 + i, 5 + i, i % 3));
  }
  const std::vector<PredictResponse> sync = service.PredictBatch(requests);
  PredictionService::BatchHandle handle = service.SubmitBatch(requests);
  ASSERT_TRUE(handle.valid());
  EXPECT_EQ(handle.size(), requests.size());
  const std::vector<PredictResponse>& async = handle.Responses();
  ASSERT_EQ(async.size(), sync.size());
  for (std::size_t i = 0; i < sync.size(); ++i) {
    EXPECT_EQ(async[i].status, sync[i].status) << i;
    EXPECT_DOUBLE_EQ(async[i].value, sync[i].value) << i;
  }
  EXPECT_TRUE(handle.done());
}

TEST(PredictionServiceAsync, StreamsPerRequestCallbacks) {
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_chunk = 3;  // several chunks per batch
  PredictionService service(InterfaceRegistry::Default(), options);

  constexpr std::size_t kN = 17;
  std::vector<PredictRequest> requests;
  for (std::size_t i = 0; i < kN; ++i) {
    requests.push_back(JpegRequest(512.0 * (i + 1), 0.25));
  }
  std::mutex mu;
  std::vector<int> seen(kN, 0);
  std::vector<double> streamed(kN, 0.0);
  PredictionService::BatchHandle handle = service.SubmitBatch(
      requests, [&](std::size_t index, const PredictResponse& response) {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_LT(index, kN);
        ++seen[index];
        streamed[index] = response.value;
      });
  // Wait() returning guarantees every callback has also returned.
  handle.Wait();
  const std::vector<PredictResponse>& responses = handle.Responses();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(seen[i], 1) << i;
    ASSERT_TRUE(responses[i].ok()) << responses[i].error;
    EXPECT_DOUBLE_EQ(streamed[i], responses[i].value) << i;
  }
}

// Acceptance: one client thread sustains >= 4 batches in flight. The first
// batch's completion callback blocks the only worker, so everything
// submitted meanwhile is provably in flight together; the gauge proves it.
TEST(PredictionServiceAsync, SingleClientSustainsManyInflightBatches) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  PredictionService service(InterfaceRegistry::Default(), options);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<PredictionService::BatchHandle> handles;
  handles.push_back(service.SubmitBatch(
      {JpegRequest(1024, 0.2)}, [&](std::size_t, const PredictResponse&) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
      }));
  for (int b = 0; b < 4; ++b) {
    handles.push_back(service.SubmitBatch(
        {JpegRequest(2048.0 * (b + 1), 0.2), ProtoaccRequest(8, 5, 1)}));
  }
  EXPECT_GE(service.metrics().inflight_batches(), 5);
  EXPECT_FALSE(handles.back().done());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (PredictionService::BatchHandle& handle : handles) {
    handle.Wait();
    EXPECT_TRUE(handle.done());
    for (const PredictResponse& r : handle.Responses()) {
      EXPECT_TRUE(r.ok()) << r.error;
    }
  }
  EXPECT_EQ(service.metrics().inflight_batches(), 0);
}

// Dropping every handle copy does not cancel the batch: the workers keep
// the state alive and the callbacks still stream.
TEST(PredictionServiceAsync, FireAndForgetRunsToCompletion) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);

  constexpr int kN = 12;
  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  {
    std::vector<PredictRequest> requests;
    for (int i = 0; i < kN; ++i) {
      requests.push_back(JpegRequest(4096.0 * (i + 1), 0.2));
    }
    service.SubmitBatch(std::move(requests),
                        [&](std::size_t, const PredictResponse& response) {
                          if (!response.ok()) {
                            failures.fetch_add(1);
                          }
                          completed.fetch_add(1);
                        });
    // The handle temporary is gone here; the batch is not.
  }
  for (int spins = 0; spins < 20000 && completed.load() < kN; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(completed.load(), kN);
  EXPECT_EQ(failures.load(), 0);
}

TEST(PredictionServiceAsync, SubmitAfterShutdownResolvesImmediately) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);
  service.Shutdown();

  std::atomic<int> streamed{0};
  PredictionService::BatchHandle handle = service.SubmitBatch(
      {JpegRequest(1024, 0.2), JpegRequest(2048, 0.2), JpegRequest(4096, 0.2)},
      [&](std::size_t, const PredictResponse& response) {
        EXPECT_EQ(response.status, PredictStatus::kRejected);
        streamed.fetch_add(1);
      });
  // Rejection resolves (and streams) from the submitting thread.
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(streamed.load(), 3);
  for (const PredictResponse& r : handle.Responses()) {
    EXPECT_EQ(r.status, PredictStatus::kRejected);
  }
  EXPECT_EQ(service.metrics().inflight_batches(), 0);
}

TEST(PredictionServiceAsync, EmptyBatchAndInvalidHandle) {
  ServiceOptions options;
  options.num_workers = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictionService::BatchHandle empty = service.SubmitBatch({});
  EXPECT_TRUE(empty.valid());
  EXPECT_TRUE(empty.done());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.Responses().empty());

  PredictionService::BatchHandle invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_TRUE(invalid.done());
  invalid.Wait();  // must not block
  EXPECT_TRUE(invalid.WaitFor(std::chrono::microseconds(1)));
  EXPECT_TRUE(invalid.Responses().empty());
}

// --- concurrency (the TSan-interesting part) ---

TEST(PredictionServiceConcurrency, ParallelBatchesFromManyClients) {
  ServiceOptions options;
  options.num_workers = 4;
  options.batch_chunk = 8;
  PredictionService service(InterfaceRegistry::Default(), options);

  constexpr int kClients = 6;
  constexpr int kBatch = 64;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &failures, c] {
      std::vector<PredictRequest> requests;
      requests.reserve(kBatch);
      for (int i = 0; i < kBatch; ++i) {
        // Overlapping key sets across clients: exercises concurrent cache
        // insert/refresh of the same entries.
        if ((c + i) % 3 == 0) {
          requests.push_back(ProtoaccRequest(8 + i % 7, 5 + i % 5, i % 3));
        } else {
          requests.push_back(JpegRequest(1024.0 * (1 + i % 16), 0.1 + 0.01 * (i % 8)));
        }
      }
      const std::vector<PredictResponse> responses = service.PredictBatch(requests);
      for (const PredictResponse& r : responses) {
        if (!r.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.metrics().total_requests(),
            static_cast<std::uint64_t>(kClients * kBatch));
}

TEST(PredictionServiceConcurrency, CacheConsistencyUnderContention) {
  ServiceOptions options;
  options.num_workers = 4;
  options.cache_capacity = 64;
  PredictionService service(InterfaceRegistry::Default(), options);

  const double expected = DirectJpegLatency(65536, 0.2);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&service, &mismatches, expected] {
      for (int i = 0; i < 50; ++i) {
        const PredictResponse r = service.Predict(JpegRequest(65536, 0.2));
        if (!r.ok() || r.value != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

// Chaos: Shutdown() lands while four clients keep submitting async
// batches with streaming and flush callbacks. Every request resolves
// exactly once — evaluated, or rejected at submission — every chunk's
// flush is delivered, and every handle's Wait() returns.
TEST(PredictionServiceConcurrency, ShutdownRacingSubmitBatch) {
  ServiceOptions options;
  options.num_workers = 2;
  options.batch_chunk = 4;
  options.queue_capacity = 8;  // full queues: submitters block in Push
  options.cache_capacity = 0;
  PredictionService service(InterfaceRegistry::Default(), options);

  constexpr int kClients = 4;
  constexpr std::size_t kBatch = 16;
  struct Batch {
    PredictionService::BatchHandle handle;
    std::vector<std::atomic<int>> completions = std::vector<std::atomic<int>>(kBatch);
    std::atomic<std::size_t> flushed{0};
  };
  std::atomic<int> submitted{0};
  std::atomic<bool> shut_down{false};
  std::vector<std::vector<std::unique_ptr<Batch>>> batches(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Submit until one whole batch went in after Shutdown() returned.
      for (;;) {
        const bool after_shutdown = shut_down.load();
        std::vector<PredictRequest> requests(kBatch, JpegRequest(65536, 0.2));
        auto batch = std::make_unique<Batch>();
        Batch* b = batch.get();
        b->handle = service.SubmitBatch(
            std::move(requests),
            [b](std::size_t index, const PredictResponse&) { b->completions[index]++; },
            [b](std::size_t n) { b->flushed += n; });
        batches[c].push_back(std::move(batch));
        submitted++;
        if (after_shutdown) {
          break;
        }
      }
    });
  }
  while (submitted.load() < 3 * kClients) {
    std::this_thread::yield();
  }
  service.Shutdown();
  shut_down = true;
  for (std::thread& t : clients) {
    t.join();
  }

  std::size_t ok = 0;
  std::size_t rejected = 0;
  for (const auto& client : batches) {
    for (const std::unique_ptr<Batch>& b : client) {
      ASSERT_TRUE(b->handle.WaitFor(std::chrono::seconds(30)));
      ASSERT_TRUE(b->handle.done());
      EXPECT_EQ(b->flushed.load(), kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        EXPECT_EQ(b->completions[i].load(), 1) << i;
        const PredictResponse& r = b->handle.Responses()[i];
        if (r.ok()) {
          ++ok;
        } else {
          ++rejected;
          EXPECT_EQ(r.status, PredictStatus::kRejected) << r.error;
          EXPECT_EQ(r.error, "service is shut down");
        }
      }
    }
    // The last batch of every client went in after Shutdown() returned.
    for (const PredictResponse& r : client.back()->handle.Responses()) {
      EXPECT_EQ(r.status, PredictStatus::kRejected);
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GE(rejected, kClients * kBatch);
  EXPECT_EQ(service.metrics().inflight_batches(), 0);
}

TEST(PredictionServiceConcurrency, DeadlineExpiryUnderLoad) {
  ServiceOptions options;
  options.num_workers = 2;
  options.steps_per_us = 1;
  PredictionService service(InterfaceRegistry::Default(), options);

  std::vector<PredictRequest> requests;
  for (int i = 0; i < 32; ++i) {
    PredictRequest req = ProtoaccRequest(32, 20, 8);
    req.deadline_us = (i % 2 == 0) ? 1 : 0;  // half tightly-deadlined
    requests.push_back(std::move(req));
  }
  const std::vector<PredictResponse> responses = service.PredictBatch(requests);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(responses[i].status, PredictStatus::kDeadlineExceeded) << i;
    } else {
      EXPECT_TRUE(responses[i].ok()) << i << ": " << responses[i].error;
    }
  }
}

// Async submissions from many clients, all funneling pnet work through
// the service's derived store (response cache off so every request takes
// the tier path): concurrent key building, first lookups and predictions
// of the derived tier on overlapping keys plus the async completion
// machinery, under TSan in CI.
TEST(PredictionServiceConcurrency, AsyncBatchesShareTheDerivedStore) {
  ServiceOptions options;
  options.num_workers = 4;
  options.cache_capacity = 0;
  options.batch_chunk = 4;
  PredictionService service(InterfaceRegistry::Default(), options);

  const PredictResponse expected = service.Predict(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8"));
  ASSERT_TRUE(expected.ok()) << expected.error;

  constexpr int kClients = 4;
  constexpr int kBatches = 3;
  constexpr int kBatch = 8;
  std::atomic<int> callbacks{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &callbacks, &mismatches, expected] {
      std::vector<PredictionService::BatchHandle> handles;
      for (int b = 0; b < kBatches; ++b) {
        std::vector<PredictRequest> requests;
        for (int i = 0; i < kBatch; ++i) {
          // Even slots repeat one workload across every client (contended
          // hits on one model); odd slots cycle a few attribute variants of
          // the same model key.
          PredictRequest req = PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:8");
          if (i % 2 == 1) {
            req.attrs[1].second = 1.0 + i % 4;  // blocks
          }
          requests.push_back(std::move(req));
        }
        handles.push_back(service.SubmitBatch(
            std::move(requests),
            [&callbacks, &mismatches, expected](std::size_t index,
                                                const PredictResponse& response) {
              callbacks.fetch_add(1);
              if (!response.ok() ||
                  (index % 2 == 0 && response.value != expected.value)) {
                mismatches.fetch_add(1);
              }
            }));
      }
      for (PredictionService::BatchHandle& handle : handles) {
        handle.Wait();
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(callbacks.load(), kClients * kBatches * kBatch);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(service.derived_store()->hits(), 0u);
  EXPECT_EQ(service.metrics().inflight_batches(), 0);
}

// Satellite: multi-threaded interpreter resource exhaustion. Each thread
// owns its interpreter; the parsed program and the workload object are
// A conv latency query in the shadow backend's vocabulary: the 11 workload
// attrs fully determine the layer + tile the simulator replays.
PredictRequest ConvRequest(double height, double width, double channels, double filters) {
  PredictRequest req;
  req.interface = "conv";
  req.function = "latency_conv";
  req.attrs = {{"height", height},   {"width", width}, {"channels", channels},
               {"filters", filters}, {"kernel_h", 3},  {"kernel_w", 3},
               {"stride", 1},        {"pad", 1},       {"tile_h", 4},
               {"tile_w", width},    {"tile_k", 4}};
  return req;
}

// The sampled set must depend only on (key set, seed, rate) — never on
// worker interleaving — or two fleets with the same config would validate
// different traffic and their drift histograms would not be comparable.
TEST(ShadowValidation, SamplerIsDeterministicAcrossServiceInstances) {
  std::mutex mu;
  std::vector<std::set<std::string>> sampled(3);
  const auto run_instance = [&](std::size_t instance, std::uint64_t seed) {
    ShadowBackendRegistry::Global().Register(
        "jpeg_decoder",
        [&mu, &sampled, instance](const PredictRequest& req, double* truth, std::string*) {
          std::lock_guard<std::mutex> lock(mu);
          sampled[instance].insert(CanonicalCacheKey(req, Representation::kProgram));
          *truth = 1.0;
          return true;
        });
    ServiceOptions options;
    options.num_workers = 4;
    options.cache_capacity = 0;
    options.shadow_sample_every = 4;
    options.shadow_seed = seed;
    PredictionService service(InterfaceRegistry::Default(), options);
    std::vector<PredictRequest> batch;
    for (int i = 0; i < 256; ++i) {
      batch.push_back(JpegRequest(1024 + 64 * i, 0.2));
    }
    for (const PredictResponse& r : service.PredictBatch(batch)) {
      ASSERT_TRUE(r.ok()) << r.error;
    }
  };
  run_instance(0, 99);
  run_instance(1, 99);
  run_instance(2, 7);
  // The recorder captures locals; leave a self-contained stub behind so no
  // later shadow-enabled service can call into a dangling closure.
  ShadowBackendRegistry::Global().Register(
      "jpeg_decoder", [](const PredictRequest&, double*, std::string* error) {
        *error = "test stub";
        return false;
      });
  EXPECT_FALSE(sampled[0].empty());
  EXPECT_LT(sampled[0].size(), 256u);  // 1-in-4 sampling, not 1-in-1
  EXPECT_EQ(sampled[0], sampled[1]);   // same seed -> same sampled set
  EXPECT_NE(sampled[0], sampled[2]);   // different seed -> different set
}

// The acceptance check for drift detection: a deliberately miscalibrated
// registry must light up perfiface_shadow_violations_total, while the
// shipped calibration — max ~7.7% program error vs the sim — stays under
// the 15% threshold. The perturbation has to actually move the
// prediction: step_time is max(iload, mac, store) and these shapes are
// MAC-bound (~2310 cycles/step vs ~244 for iload at burst_lat=52), so a
// mild burst_lat bump hides under the max. burst_lat=1500 makes the DMA
// leg the bottleneck (~6000 cycles/step), a >2x shift vs the sim.
TEST(ShadowValidation, ForcedDriftRaisesViolationsCalibratedRegistryDoesNot) {
  conv::RegisterConvShadowBackend();
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  options.shadow_sample_every = 1;  // validate every evaluated prediction
  options.shadow_drift_threshold = 0.15;

  std::vector<PredictRequest> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(ConvRequest(8 + i, 8 + i, 8, 8));
  }

  std::uint64_t calibrated_runs = 0;
  {
    PredictionService service(InterfaceRegistry::Default(), options);
    for (const PredictResponse& r : service.PredictBatch(batch)) {
      ASSERT_TRUE(r.ok()) << r.error;
    }
    for (std::size_t i = 0; i < service.InterfaceInfos().size(); ++i) {
      calibrated_runs += service.shadow().runs(i);
    }
    EXPECT_EQ(service.shadow().total_violations(), 0u);
  }
  EXPECT_EQ(calibrated_runs, batch.size());

  {
    const InterfaceRegistry drifted =
        InterfaceRegistry::Default().WithConstant("conv", "burst_lat", 1500.0);
    PredictionService service(drifted, options);
    for (const PredictResponse& r : service.PredictBatch(batch)) {
      ASSERT_TRUE(r.ok()) << r.error;
    }
    EXPECT_GT(service.shadow().total_violations(), 0u);
    const std::string scrape = service.StatsPrometheus();
    EXPECT_NE(scrape.find("perfiface_shadow_violations_total"), std::string::npos);
    EXPECT_NE(scrape.find("perfiface_shadow_error_abs_bucket"), std::string::npos);
  }
}

TEST(PredictionServiceExplain, BreakdownCoversRepresentationCacheAndTiming) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req = JpegRequest(65536, 0.2);
  req.explain = true;
  const PredictResponse miss = service.Predict(req);
  ASSERT_TRUE(miss.ok()) << miss.error;
  EXPECT_FALSE(miss.trace_id.empty());
  ASSERT_TRUE(miss.explain.filled);
  EXPECT_EQ(miss.explain.representation, "psc-vm");
  EXPECT_EQ(miss.explain.cache, "miss");
  EXPECT_GT(miss.explain.eval_ns, 0u);
  EXPECT_GT(miss.explain.steps, 0u);
  EXPECT_FALSE(miss.explain.shadowed);

  // Same workload again: explain/trace_id are excluded from the cache key,
  // so this hits, and the breakdown says so.
  const PredictResponse hit = service.Predict(req);
  ASSERT_TRUE(hit.explain.filled);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.explain.cache, "hit");
  EXPECT_EQ(hit.explain.representation, "cache");

  // Explain is strictly opt-in.
  req.explain = false;
  EXPECT_FALSE(service.Predict(req).explain.filled);

  // A client-supplied trace id echoes back verbatim; generated ids are
  // unique per response.
  req.trace_id = "client-supplied-id";
  EXPECT_EQ(service.Predict(req).trace_id, "client-supplied-id");
  EXPECT_NE(GenerateTraceId(), GenerateTraceId());
}

// Trace ids are 16 lowercase hex digits, and no two are alike, also when
// threads mint them at once.
TEST(TraceIds, AreSixteenLowercaseHexDigitsAndUniqueAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::vector<std::string>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&minted, t] {
      for (int i = 0; i < kPerThread; ++i) {
        minted[t].push_back(GenerateTraceId());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::set<std::string> unique;
  for (const std::vector<std::string>& ids : minted) {
    for (const std::string& id : ids) {
      ASSERT_EQ(id.size(), 16u) << id;
      for (const char c : id) {
        ASSERT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
      }
      unique.insert(id);
    }
  }
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(PredictionServiceExplain, PnetMemoRepresentationProgression) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;  // no response cache: the second query re-evaluates
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest req = PnetRequest("jpeg_decoder", kUncompiledJpegPlan);
  req.explain = true;
  const PredictResponse first = service.Predict(req);
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_TRUE(first.explain.filled);
  EXPECT_EQ(first.explain.representation, "pnet");
  EXPECT_GT(first.explain.memo_components, 0u);
  EXPECT_EQ(first.explain.derived_hits, 0u);

  // The refused plan is simulated again: nothing caches its answer.
  const PredictResponse second = service.Predict(req);
  ASSERT_TRUE(second.explain.filled);
  EXPECT_EQ(second.explain.representation, "pnet");
  EXPECT_EQ(second.explain.derived_hits, 0u);
  EXPECT_EQ(second.value, first.value);

  // A compilable plan reads pnet-derived from its first answer on.
  req.entry_place = "hdr_in:1,vld_in:8";
  const PredictResponse derived = service.Predict(req);
  ASSERT_TRUE(derived.ok()) << derived.error;
  EXPECT_EQ(derived.explain.representation, "pnet-derived");
  EXPECT_EQ(derived.explain.derived_hits, derived.explain.memo_components);
}

TEST(PredictionService, StatuszJsonCoversBuildOptionsAndInterfaces) {
  ServiceOptions options;
  options.num_workers = 2;
  PredictionService service(InterfaceRegistry::Default(), options);
  ASSERT_TRUE(service.Predict(JpegRequest(65536, 0.2)).ok());
  const std::string status = service.StatuszJson();
  for (const char* needle :
       {"\"uptime_s\"", "\"build\"", "\"version\"", "\"options\"", "\"interfaces\"",
        "\"jpeg_decoder\"", "\"conv\"", "\"shadow\"", "\"qps\"", "\"p99_us\""}) {
    EXPECT_NE(status.find(needle), std::string::npos) << needle;
  }
}

// --- jpeg shadow backend (src/accel/jpeg/jpeg_shadow.h) ---

// A jpeg stripe query with a given coded-bit count.
PredictRequest JpegStripeRequest(double bits, const std::string& plan = "hdr_in:1,vld_in:8") {
  PredictRequest req;
  req.interface = "jpeg_decoder";
  req.representation = Representation::kPnet;
  req.entry_place = plan;
  req.attrs = {{"bits", bits}, {"blocks", 8.0}};
  return req;
}

// End-to-end: the registered jpeg backend replays both the program query
// and the standard stripe query against the cycle-level simulator, and the
// shipped calibration stays under the drift threshold.
TEST(ShadowValidation, JpegBackendReplaysProgramAndStripeQueries) {
  jpeg::RegisterJpegShadowBackend();
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 0;
  options.shadow_sample_every = 1;
  options.shadow_drift_threshold = 0.15;
  PredictionService service(InterfaceRegistry::Default(), options);

  PredictRequest prog = JpegRequest(65536, 0.2);
  prog.explain = true;
  const PredictResponse p = service.Predict(prog);
  ASSERT_TRUE(p.ok()) << p.error;
  ASSERT_TRUE(p.explain.filled);
  ASSERT_TRUE(p.explain.shadowed);
  EXPECT_GT(p.explain.shadow_truth, 0.0);
  EXPECT_LT(std::abs(p.explain.shadow_rel_err), 0.15);

  PredictRequest pnet = JpegStripeRequest(800.0);
  pnet.explain = true;
  const PredictResponse q = service.Predict(pnet);
  ASSERT_TRUE(q.ok()) << q.error;
  ASSERT_TRUE(q.explain.shadowed);
  // The pnet replay differs from the sim only by the un-modeled
  // realignment stall — well inside 5%.
  EXPECT_LT(std::abs(q.explain.shadow_rel_err), 0.05);
  EXPECT_EQ(service.shadow().total_violations(), 0u);

  // The backend reads plans as the service does: whitespace-insensitive,
  // duplicates merged, order irrelevant.
  double canonical = 0;
  double spelled = 0;
  std::string error;
  ASSERT_TRUE(jpeg::JpegShadowTruth(JpegStripeRequest(800.0), &canonical, &error)) << error;
  ASSERT_TRUE(jpeg::JpegShadowTruth(JpegStripeRequest(800.0, " vld_in:4 , hdr_in:1, vld_in:4"),
                                    &spelled, &error))
      << error;
  EXPECT_EQ(spelled, canonical);
  EXPECT_EQ(q.explain.shadow_truth, canonical);
}

// Requests outside the replayable vocabulary are refused (shadow errors),
// never guessed at (false violations).
TEST(ShadowValidation, JpegBackendRefusesOutsideVocabulary) {
  double truth = 0;
  std::string error;

  PredictRequest tput = JpegRequest(65536, 0.2);
  tput.function = "tput_jpeg_decode";
  EXPECT_FALSE(jpeg::JpegShadowTruth(tput, &truth, &error));

  // orig_size not a whole number of 8x8 blocks.
  EXPECT_FALSE(jpeg::JpegShadowTruth(JpegRequest(65536 + 100, 0.2), &truth, &error));
  // compress_rate so low the payload would be empty.
  EXPECT_FALSE(jpeg::JpegShadowTruth(JpegRequest(65536, 0.0001), &truth, &error));

  // Injection plans the stripe vocabulary does not cover.
  EXPECT_FALSE(
      jpeg::JpegShadowTruth(JpegStripeRequest(800.0, "vld_in:8"), &truth, &error));
  EXPECT_FALSE(
      jpeg::JpegShadowTruth(JpegStripeRequest(800.0, "hdr_in:2,vld_in:8"), &truth, &error));
  EXPECT_FALSE(
      jpeg::JpegShadowTruth(JpegStripeRequest(800.0, "hdr_in:1,fifo1:1"), &truth, &error));
  PredictRequest partial = JpegStripeRequest(800.0, "hdr_in:1,vld_in:2");
  partial.attrs = {{"bits", 800.0}, {"blocks", 5.0}};  // two partial stripes
  EXPECT_FALSE(jpeg::JpegShadowTruth(partial, &truth, &error));
  // Default-entry pnet query (tokens into hdr_in only): no image to decode.
  PredictRequest default_entry = JpegStripeRequest(800.0, "");
  EXPECT_FALSE(jpeg::JpegShadowTruth(default_entry, &truth, &error));
  // A malformed count is refused with the service parser's message, not
  // read as its leading digits.
  EXPECT_FALSE(
      jpeg::JpegShadowTruth(JpegStripeRequest(800.0, "hdr_in:1,vld_in:8x"), &truth, &error));
  EXPECT_EQ(error, "jpeg shadow: bad token count in entry place item 'vld_in:8x'");

  // The well-formed variants of the same queries replay fine.
  EXPECT_TRUE(jpeg::JpegShadowTruth(JpegRequest(65536, 0.2), &truth, &error)) << error;
  EXPECT_GT(truth, 0.0);
  PredictRequest single = JpegStripeRequest(500.0, "hdr_in:1,vld_in:1");
  single.attrs = {{"bits", 500.0}, {"blocks", 5.0}};  // one partial stripe: fine
  EXPECT_TRUE(jpeg::JpegShadowTruth(single, &truth, &error)) << error;
}

// The protoacc backend replays only the single-node plan, parsed as the
// service parses it.
TEST(ShadowValidation, ProtoaccBackendRefusesOutsideVocabulary) {
  const auto node = [](const std::string& plan) {
    PredictRequest req;
    req.interface = "protoacc";
    req.representation = Representation::kPnet;
    req.entry_place = plan;
    req.attrs = {{"groups", 2.0}, {"first", 1.0}, {"writes", 12.0}};
    return req;
  };
  double truth = 0;
  std::string error;
  EXPECT_FALSE(protoacc::ProtoaccShadowTruth(node(""), &truth, &error));
  EXPECT_FALSE(protoacc::ProtoaccShadowTruth(node("node_q:2,msg_q:1"), &truth, &error));
  EXPECT_FALSE(protoacc::ProtoaccShadowTruth(node("node_q:1,msg_q:1,fifo:1"), &truth, &error));
  EXPECT_FALSE(protoacc::ProtoaccShadowTruth(node("node_q:1,msg_q:1x"), &truth, &error));
  EXPECT_EQ(error, "protoacc shadow: bad token count in entry place item 'msg_q:1x'");

  ASSERT_TRUE(protoacc::ProtoaccShadowTruth(node("node_q:1,msg_q:1"), &truth, &error)) << error;
  EXPECT_GT(truth, 0.0);
  double spelled = 0;
  ASSERT_TRUE(protoacc::ProtoaccShadowTruth(node(" msg_q : 1 ,node_q"), &spelled, &error))
      << error;
  EXPECT_EQ(spelled, truth);
}

// shared read-only — the documented thread-safety contract of interp.h.
TEST(InterpreterConcurrency, StepBudgetExhaustsCleanlyAcrossThreads) {
  ParseResult parsed = ParseProgram(
      "def burn(msg):\n"
      "  total = 0\n"
      "  for a in msg:\n"
      "    for b in msg:\n"
      "      total += 1\n"
      "    end\n"
      "  end\n"
      "  return total\n"
      "end\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const Program program = std::move(parsed.program);

  KvObject workload;
  workload.Set("n", 1.0);
  workload.AddUniformChildren(200);  // 200*200 inner iterations

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&program, &workload, &bad] {
      Interpreter interp(&program);
      interp.set_max_steps(500);
      const EvalResult result = interp.Call("burn", {Value::Object(&workload)});
      if (result.ok || !interp.step_budget_exhausted() ||
          result.error.find("step budget exhausted") == std::string::npos) {
        bad.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(DeadlineQueueTest, ClassifiesRemainingDeadlineIntoSlackBands) {
  EXPECT_EQ(ClassifyDeadline(0), DeadlineBucket::kNone);
  EXPECT_EQ(ClassifyDeadline(-5), DeadlineBucket::kNone);
  EXPECT_EQ(ClassifyDeadline(1), DeadlineBucket::kLt1ms);
  EXPECT_EQ(ClassifyDeadline(999), DeadlineBucket::kLt1ms);
  EXPECT_EQ(ClassifyDeadline(1'000), DeadlineBucket::kLt10ms);
  EXPECT_EQ(ClassifyDeadline(9'999), DeadlineBucket::kLt10ms);
  EXPECT_EQ(ClassifyDeadline(10'000), DeadlineBucket::kLt100ms);
  EXPECT_EQ(ClassifyDeadline(99'999), DeadlineBucket::kLt100ms);
  EXPECT_EQ(ClassifyDeadline(100'000), DeadlineBucket::kGte100ms);
  EXPECT_STREQ(DeadlineBucketName(DeadlineBucket::kLt1ms), "lt1ms");
  EXPECT_STREQ(DeadlineBucketName(DeadlineBucket::kNone), "none");
}

TEST(DeadlineQueueTest, PopServesMostUrgentBandFirstFifoWithinBand) {
  DeadlineQueue<int> queue(16);
  ASSERT_TRUE(queue.Push(40, DeadlineBucket::kNone));
  ASSERT_TRUE(queue.Push(30, DeadlineBucket::kGte100ms));
  ASSERT_TRUE(queue.Push(10, DeadlineBucket::kLt1ms));
  ASSERT_TRUE(queue.Push(20, DeadlineBucket::kLt10ms));
  ASSERT_TRUE(queue.Push(21, DeadlineBucket::kLt10ms));
  ASSERT_TRUE(queue.Push(25, DeadlineBucket::kLt100ms));
  const int expected[] = {10, 20, 21, 25, 30, 40};
  for (const int want : expected) {
    int got = -1;
    ASSERT_TRUE(queue.Pop(&got));
    EXPECT_EQ(got, want);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(DeadlineQueueTest, CloseDrainsAcceptedItemsAndRejectsNewPushes) {
  DeadlineQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(1, DeadlineBucket::kNone));
  ASSERT_TRUE(queue.Push(2, DeadlineBucket::kLt1ms));
  ASSERT_TRUE(queue.Push(4, DeadlineBucket::kNone));
  queue.Close();
  EXPECT_FALSE(queue.Push(3, DeadlineBucket::kNone));
  EXPECT_FALSE(queue.TryPush(3, DeadlineBucket::kNone));
  int got = -1;
  ASSERT_TRUE(queue.Pop(&got));
  EXPECT_EQ(got, 2);  // urgent band drains first even after close
  ASSERT_TRUE(queue.Pop(&got));
  EXPECT_EQ(got, 1);  // then FIFO within a band, still after close
  ASSERT_TRUE(queue.Pop(&got));
  EXPECT_EQ(got, 4);
  EXPECT_FALSE(queue.Pop(&got));
}

TEST(DeadlineQueueTest, TryPushFailsWhenFullAndBlockedPushResumesAfterPop) {
  DeadlineQueue<int> queue(1);
  ASSERT_TRUE(queue.TryPush(1, DeadlineBucket::kNone));
  EXPECT_FALSE(queue.TryPush(2, DeadlineBucket::kLt1ms));
  std::thread pusher([&queue] { queue.Push(2, DeadlineBucket::kLt1ms); });
  int got = -1;
  ASSERT_TRUE(queue.Pop(&got));
  EXPECT_EQ(got, 1);
  ASSERT_TRUE(queue.Pop(&got));  // blocks until the pusher's item lands
  EXPECT_EQ(got, 2);
  pusher.join();
  EXPECT_EQ(queue.size(), 0u);
}

TEST(DeadlineQueueConcurrency, ContendedPushPopDeliversEverythingExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  DeadlineQueue<int> queue(8);  // small capacity: producers block often
  std::atomic<int> popped{0};
  std::atomic<long long> sum{0};
  std::atomic<int> push_failures{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&queue, &popped, &sum] {
      int v = 0;
      while (queue.Pop(&v)) {
        popped.fetch_add(1);
        sum.fetch_add(v);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &push_failures, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const auto bucket =
            static_cast<DeadlineBucket>((p + i) % static_cast<int>(kDeadlineBucketCount));
        if (!queue.Push(p * kPerProducer + i, bucket)) {
          push_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) {
    t.join();
  }
  queue.Close();
  for (std::thread& t : consumers) {
    t.join();
  }
  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(push_failures.load(), 0);
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(AdmissionControl, TokenBucketShedsAtBurstAndRefillsOverTime) {
  AdmissionOptions opts;
  TenantQuota quota;
  quota.qps = 2.0;
  quota.burst = 2.0;
  opts.tenant_quotas.emplace_back("acme", quota);
  AdmissionController ctrl(opts);
  EXPECT_TRUE(ctrl.enabled());

  const std::uint64_t t0 = 1'000'000'000ull;
  EXPECT_EQ(ctrl.Decide("acme", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("acme", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("acme", 0, t0, 0, 0, 1), AdmissionDecision::kShedQuota);
  // 500 ms at 2 qps refills exactly one token.
  EXPECT_EQ(ctrl.Decide("acme", 0, t0 + 500'000'000, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("acme", 0, t0 + 500'000'000, 0, 0, 1), AdmissionDecision::kShedQuota);
  // Tenants without a quota are never shed.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ctrl.Decide("unmetered", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  }
}

TEST(AdmissionControl, DefaultQuotaGivesEachTenantItsOwnBucket) {
  AdmissionOptions opts;
  opts.default_quota.qps = 0.001;  // refill is negligible within the test
  opts.default_quota.burst = 1.0;
  AdmissionController ctrl(opts);
  const std::uint64_t t0 = 5'000'000'000ull;
  EXPECT_EQ(ctrl.Decide("x", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("x", 0, t0, 0, 0, 1), AdmissionDecision::kShedQuota);
  // A second tenant gets a fresh bucket, as does the empty (default) tenant.
  EXPECT_EQ(ctrl.Decide("y", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("y", 0, t0, 0, 0, 1), AdmissionDecision::kShedQuota);
  EXPECT_EQ(ctrl.Decide("", 0, t0, 0, 0, 1), AdmissionDecision::kAdmit);
  EXPECT_EQ(ctrl.Decide("", 0, t0, 0, 0, 1), AdmissionDecision::kShedQuota);
}

TEST(AdmissionControl, DeadlineFeasibilityShedsOnlyWithWarmEstimate) {
  AdmissionOptions opts;
  opts.shed_deadline = true;
  AdmissionController ctrl(opts);
  EXPECT_TRUE(ctrl.enabled());
  const std::uint64_t t0 = 1'000'000'000ull;
  // Cold estimate (ema == 0): never sheds, whatever the backlog says.
  EXPECT_EQ(ctrl.Decide("", 100, t0, 1000, 0, 1), AdmissionDecision::kAdmit);
  // Warm: 1000 pending x 1 ms each on one worker is a 1 s wait; a 100 us
  // deadline is infeasible.
  EXPECT_EQ(ctrl.Decide("", 100, t0, 1000, 1'000'000, 1), AdmissionDecision::kShedDeadline);
  // No deadline is never shed on feasibility.
  EXPECT_EQ(ctrl.Decide("", 0, t0, 1000, 1'000'000, 1), AdmissionDecision::kAdmit);
  // A 2 s deadline clears the same backlog.
  EXPECT_EQ(ctrl.Decide("", 2'000'000, t0, 1000, 1'000'000, 1), AdmissionDecision::kAdmit);
  // More workers shrink the predicted wait.
  EXPECT_EQ(ctrl.Decide("", 10'000, t0, 8, 1'000'000, 8), AdmissionDecision::kAdmit);
}

TEST(AdmissionControl, PredictedWaitSaturatesInsteadOfOverflowing) {
  EXPECT_EQ(AdmissionController::PredictedWaitNs(0, 1'000'000, 4), 0u);
  EXPECT_EQ(AdmissionController::PredictedWaitNs(8, 1'000'000, 4), 2'000'000u);
  EXPECT_EQ(AdmissionController::PredictedWaitNs(UINT64_MAX, UINT64_MAX, 1), UINT64_MAX);
  // workers == 0 is treated as 1 rather than dividing by zero.
  EXPECT_EQ(AdmissionController::PredictedWaitNs(4, 1'000, 0), 4'000u);
}

// The one --quota parser both CLIs share.
TEST(AdmissionControl, QuotaFlagParsesWellFormedSpecsAndRefusesMalformedOnes) {
  AdmissionOptions opts;
  ASSERT_TRUE(ApplyQuotaFlag("acme=5", &opts));
  ASSERT_TRUE(ApplyQuotaFlag("beta=2.5:10", &opts));
  ASSERT_TRUE(ApplyQuotaFlag("*=100:3", &opts));
  ASSERT_EQ(opts.tenant_quotas.size(), 2u);
  EXPECT_EQ(opts.tenant_quotas[0].first, "acme");
  EXPECT_EQ(opts.tenant_quotas[0].second.qps, 5.0);
  EXPECT_EQ(opts.tenant_quotas[0].second.burst, 0.0);  // defaulted at admission
  EXPECT_EQ(opts.tenant_quotas[1].first, "beta");
  EXPECT_EQ(opts.tenant_quotas[1].second.qps, 2.5);
  EXPECT_EQ(opts.tenant_quotas[1].second.burst, 10.0);
  // "*" is the default quota, not a tenant named "*".
  EXPECT_EQ(opts.default_quota.qps, 100.0);
  EXPECT_EQ(opts.default_quota.burst, 3.0);

  for (const char* bad : {
           "acme",         // no '='
           "=5",           // empty tenant
           "acme=0",       // qps <= 0
           "acme=-1",
           "acme=",        // empty qps
           "acme=5:",      // empty burst
           "acme=5:0",     // zero burst
           "acme=5:-2",    // negative burst
           "acme=5x",      // trailing garbage after qps
           "acme=5:2x",    // trailing garbage after burst
           "acme=5:2:3",
       }) {
    AdmissionOptions untouched;
    EXPECT_FALSE(ApplyQuotaFlag(bad, &untouched)) << bad;
    EXPECT_TRUE(untouched.tenant_quotas.empty()) << bad;
    EXPECT_EQ(untouched.default_quota.qps, 0.0) << bad;
  }
}

TEST(AdmissionControl, IdenticalArrivalSchedulesProduceIdenticalDecisions) {
  AdmissionOptions opts;
  opts.shed_deadline = true;
  TenantQuota metered;
  metered.qps = 100.0;
  metered.burst = 4.0;
  opts.tenant_quotas.emplace_back("a", metered);
  opts.default_quota.qps = 50.0;
  opts.default_quota.burst = 2.0;

  // A synthetic arrival schedule from a fixed LCG: every Decide input is
  // explicit, so replaying the schedule must replay the decisions.
  struct Arrival {
    std::string tenant;
    std::int64_t remaining_us;
    std::uint64_t now_ns;
    std::uint64_t pending;
    std::uint64_t ema_ns;
  };
  std::uint64_t state = 42;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  std::vector<Arrival> schedule;
  std::uint64_t now_ns = 1'000'000'000ull;
  static const char* const kTenants[] = {"a", "b", "c"};
  static const std::int64_t kDeadlinesUs[] = {0, 500, 5'000, 50'000};
  for (int i = 0; i < 200; ++i) {
    now_ns += next() % 5'000'000;  // up to 5 ms apart
    Arrival a;
    a.tenant = kTenants[next() % 3];
    a.remaining_us = kDeadlinesUs[next() % 4];
    a.now_ns = now_ns;
    a.pending = next() % 64;
    a.ema_ns = i < 20 ? 0 : 200'000;  // warm up the estimate partway in
    schedule.push_back(a);
  }

  const auto run = [&opts, &schedule] {
    AdmissionController ctrl(opts);
    std::vector<AdmissionDecision> decisions;
    for (const Arrival& a : schedule) {
      decisions.push_back(ctrl.Decide(a.tenant, a.remaining_us, a.now_ns, a.pending,
                                      a.ema_ns, /*workers=*/1));
    }
    return decisions;
  };
  const std::vector<AdmissionDecision> first = run();
  const std::vector<AdmissionDecision> second = run();
  EXPECT_EQ(first, second);
  // The schedule must actually exercise every decision kind, or the
  // equality above proves nothing.
  std::set<AdmissionDecision> kinds(first.begin(), first.end());
  EXPECT_EQ(kinds.size(), 3u);
}

// Regression: a deadline that expires while the request sits in the queue
// is answered at dequeue, before any cache or registry work — it must not
// be charged to the eval-path request counters. The pre-fix behavior
// detected expiry only at eval start ("deadline expired before evaluation
// started") and charged RecordRequest for the expired request.
TEST(PredictionServiceAdmission, QueueExpiredDetectedAtDequeueWithoutEvalCharges) {
  ServiceOptions options;
  options.num_workers = 1;
  options.batch_chunk = 1;
  options.cache_capacity = 64;
  options.enable_pnet_memo = false;
  PredictionService service(InterfaceRegistry::Default(), options);

  // Keep the single worker busy so the deadlined request queues. The
  // blockers carry no deadline (background band), so the doomed request
  // overtakes them — but at least one blocker is already on the worker,
  // which is all the wait a 1 us deadline needs.
  std::vector<PredictRequest> blockers;
  for (int i = 0; i < 4; ++i) {
    blockers.push_back(PnetRequest("jpeg_decoder", "hdr_in:1,vld_in:64"));
  }
  PredictionService::BatchHandle blocked = service.SubmitBatch(blockers);

  PredictRequest doomed = JpegRequest(65536, 0.2);
  doomed.deadline_us = 1;
  doomed.explain = true;
  doomed.tenant = "acme";
  const std::vector<PredictRequest> one{doomed};
  const std::vector<PredictResponse> responses = service.PredictBatch(one);
  (void)blocked.Responses();

  ASSERT_EQ(responses.size(), 1u);
  const PredictResponse& r = responses[0];
  EXPECT_EQ(r.status, PredictStatus::kDeadlineExceeded);
  EXPECT_EQ(r.error, "deadline expired while queued");
  EXPECT_EQ(r.tenant, "acme");
  EXPECT_FALSE(r.trace_id.empty());
  ASSERT_TRUE(r.explain.filled);
  EXPECT_EQ(r.explain.representation, "expired");
  EXPECT_EQ(r.explain.cache, "not_consulted");

  // Only the four blockers reached the eval path (one miss, then three
  // hits among the identical blockers); the expired request is visible in
  // the deadline counter but moved neither cache counter.
  EXPECT_EQ(service.metrics().total_requests(), 4u);
  EXPECT_EQ(service.metrics().deadline_exceeded(), 1u);
  EXPECT_EQ(service.metrics().cache_misses(), 1u);
  EXPECT_EQ(service.metrics().cache_hits(), 3u);
}

TEST(PredictionServiceAdmission, TenantExcludedFromCacheKeyButEchoed) {
  PredictRequest first = JpegRequest(65536, 0.2);
  first.tenant = "alpha";
  PredictRequest second = JpegRequest(65536, 0.2);
  second.tenant = "bravo";
  EXPECT_EQ(CanonicalCacheKey(first, Representation::kProgram),
            CanonicalCacheKey(second, Representation::kProgram));

  ServiceOptions options;
  options.num_workers = 1;
  options.cache_capacity = 64;
  PredictionService service(InterfaceRegistry::Default(), options);
  const std::vector<PredictRequest> a{first};
  const std::vector<PredictRequest> b{second};
  const std::vector<PredictResponse> ra = service.PredictBatch(a);
  const std::vector<PredictResponse> rb = service.PredictBatch(b);
  ASSERT_TRUE(ra[0].ok());
  ASSERT_TRUE(rb[0].ok());
  EXPECT_EQ(ra[0].tenant, "alpha");
  EXPECT_EQ(rb[0].tenant, "bravo");
  EXPECT_EQ(ra[0].value, rb[0].value);
  // Same cache entry serves both tenants: one miss, then one hit.
  EXPECT_EQ(service.metrics().cache_misses(), 1u);
  EXPECT_EQ(service.metrics().cache_hits(), 1u);
}

TEST(PredictionServiceAdmission, OverQuotaTenantShedsAtEnqueueWithRejected) {
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  TenantQuota quota;
  quota.qps = 0.001;  // refill is negligible within the test
  quota.burst = 2.0;
  options.admission.tenant_quotas.emplace_back("acme", quota);
  PredictionService service(InterfaceRegistry::Default(), options);

  std::vector<PredictRequest> batch;
  for (int i = 0; i < 5; ++i) {
    PredictRequest req = JpegRequest(4096.0 + i, 0.2);
    req.tenant = "acme";
    req.explain = true;
    batch.push_back(req);
  }
  const std::vector<PredictResponse> responses = service.PredictBatch(batch);
  ASSERT_EQ(responses.size(), 5u);
  // Tokens are consumed in submission order: the burst admits the first
  // two, everything after is shed at enqueue.
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(responses[i].ok()) << responses[i].error;
  }
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(responses[i].status, PredictStatus::kRejected);
    EXPECT_NE(responses[i].error.find("quota"), std::string::npos) << responses[i].error;
    EXPECT_EQ(responses[i].tenant, "acme");
    ASSERT_TRUE(responses[i].explain.filled);
    EXPECT_EQ(responses[i].explain.representation, "rejected");
    EXPECT_EQ(responses[i].explain.cache, "not_consulted");
  }

  EXPECT_EQ(service.metrics().admission_admitted(), 2u);
  EXPECT_EQ(service.metrics().admission_shed_quota(), 3u);
  EXPECT_EQ(service.metrics().rejected(), 3u);
  EXPECT_EQ(service.metrics().total_requests(), 2u);  // shed requests never evaluated

  const std::string scrape = service.StatsPrometheus();
  EXPECT_NE(scrape.find("perfiface_admission_admitted_total{tenant=\"acme\"} 2"),
            std::string::npos);
  EXPECT_NE(scrape.find("perfiface_admission_shed_quota_total{tenant=\"acme\"} 3"),
            std::string::npos);
  EXPECT_NE(scrape.find("perfiface_admission_queue_wait_seconds"), std::string::npos);
}

// TSan target: contended multi-tenant submits hammer the deadline queue,
// the token buckets, and the per-tenant admission counters at once.
TEST(PredictionServiceConcurrency, AdmissionDecisionsConsistentUnderMultiTenantContention) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  ServiceOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;
  options.enable_pnet_memo = false;
  options.admission.shed_deadline = true;
  for (int t = 0; t < kThreads; ++t) {
    TenantQuota quota;
    quota.qps = 200.0;
    quota.burst = 8.0;
    options.admission.tenant_quotas.emplace_back("tenant-" + std::to_string(t), quota);
  }
  PredictionService service(InterfaceRegistry::Default(), options);

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &bad, t] {
      const std::string tenant = "tenant-" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        PredictRequest req = JpegRequest(4096.0 + i, 0.2);
        req.tenant = tenant;
        if (i % 3 == 0) {
          req.deadline_us = 5'000;
        }
        const std::vector<PredictRequest> one{req};
        const std::vector<PredictResponse> out = service.PredictBatch(one);
        if (out.size() != 1 || out[0].tenant != tenant) {
          bad.fetch_add(1);
          continue;
        }
        switch (out[0].status) {
          case PredictStatus::kOk:
          case PredictStatus::kRejected:
          case PredictStatus::kDeadlineExceeded:
            break;
          default:
            bad.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);

  // Every request passed through admission exactly once, and every
  // decision landed in exactly one tenant row.
  const ServiceMetrics& metrics = service.metrics();
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(metrics.admission_admitted() + metrics.admission_shed_quota() +
                metrics.admission_shed_deadline(),
            total);
  std::uint64_t row_sum = 0;
  for (const TenantAdmissionSnapshot& row : metrics.AdmissionSnapshot()) {
    row_sum += row.admitted + row.shed_deadline + row.shed_quota;
  }
  EXPECT_EQ(row_sum, total);
}

}  // namespace
}  // namespace perfiface::serve
