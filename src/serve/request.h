// Wire-level request/response types for the prediction service.
//
// A request names an interface from the registry, picks one of the shipped
// representations, and describes the workload as flat numeric attributes
// (plus the uniform-children shorthand for recursive interfaces). This is
// deliberately the same vocabulary psc_tool speaks, so a query that works
// on the command line works against the service unchanged.
#ifndef SRC_SERVE_REQUEST_H_
#define SRC_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfiface::serve {

// Which shipped representation answers the query. kAuto prefers the
// executable program and falls back to the Petri net.
enum class Representation { kAuto, kProgram, kPnet };

// A field added here must also be reset by the wire decoder, which decodes
// into requests left over from earlier frames (ResetRequest, src/net/wire.cc).
struct PredictRequest {
  std::string interface;  // registry accelerator name, e.g. "jpeg_decoder"
  Representation representation = Representation::kAuto;

  // Program queries: the prediction function to call (e.g.
  // "latency_jpeg_decode"). Ignored for pnet queries.
  std::string function;

  // Workload attributes exposed to the interface. Program queries see them
  // as object attributes; pnet queries map them onto the net's token
  // attribute schema (names absent from the schema are ignored).
  std::vector<std::pair<std::string, double>> attrs;
  // Attach this many uniform child objects (recursive interfaces).
  int children = 0;

  // Pnet queries: where the workload tokens enter the net. Either empty
  // (inject `tokens` copies into the net's first declared place) or a
  // comma-separated list of `place[:count]` items — e.g. the JPEG net's
  // "hdr_in:1,vld_in:8" injects the header token plus eight stripes. All
  // injected tokens carry the same attribute values. The net then runs to
  // quiescence; `value` is the quiescence time. Parsed once per request by
  // ParseInjectionPlan.
  std::string entry_place;
  int tokens = 1;  // copies used when entry_place names no :count

  // Resource limits. max_steps bounds interpreter steps (program) or net
  // firings (pnet); 0 means the service default. deadline_us is a wall
  // clock budget measured from batch submission; 0 means none. See
  // docs/serving.md for how the deadline maps onto the step budget.
  std::uint64_t max_steps = 0;
  std::int64_t deadline_us = 0;

  // Provenance (docs/observability.md "Trace context" / "Explain"). Both
  // are deliberately excluded from CanonicalCacheKey: they change what the
  // response *reports*, never what it predicts.
  //
  // Client-supplied trace id echoed in the response and attached to every
  // span the request crosses; the service generates one when empty.
  std::string trace_id;
  // Opt-in: fill PredictResponse::explain with the provenance breakdown.
  bool explain = false;

  // Tenant name for per-tenant quotas and metrics (docs/serving.md
  // "Admission control & tenancy"). At most 64 bytes on the wire, echoed
  // in the response, and — like trace_id — excluded from
  // CanonicalCacheKey: tenancy changes who is asking, not what the
  // interface predicts. Empty means the default tenant.
  std::string tenant;
};

enum class PredictStatus {
  kOk,
  kError,              // runtime error in the interface program / net
  kNotFound,           // unknown interface, function, representation, place
  kDeadlineExceeded,   // expired in queue or step budget derived from the
                       // deadline exhausted mid-evaluation
  kResourceExhausted,  // explicit max_steps budget exhausted
  kRejected,           // shed at admission (tenant quota dry, deadline
                       // infeasible at current queue depth) or service
                       // shutting down — see docs/serving.md "Admission
                       // control & tenancy"
};

const char* PredictStatusName(PredictStatus s);

// Inverse of PredictStatusName; false (and *out untouched) on an unknown
// name. Used by the wire codec to decode statuses off the network.
bool PredictStatusFromName(std::string_view name, PredictStatus* out);

// Per-request provenance, filled only when PredictRequest::explain is set.
// Everything here is assembled from state the evaluation path already
// tracks; requesting it costs a few string copies, not extra evaluation.
struct ExplainInfo {
  bool filled = false;
  // Which machinery produced the value: "psc-vm", "pnet" (at least one
  // component simulated), "pnet-derived" (every component served from its
  // exact max-plus program, src/petri/distill.h), or "cache" (served from
  // the prediction cache without evaluating).
  std::string representation;
  // Prediction-cache outcome: "hit", "miss", or "not_consulted" (cache
  // disabled or the request never reached lookup).
  std::string cache;
  std::uint64_t queue_wait_ns = 0;  // batch submission -> worker pickup
  std::uint64_t eval_ns = 0;        // same clock as PredictResponse::eval_ns
  // VM steps (program) or net firings consumed (pnet).
  std::uint64_t steps = 0;
  // Pnet per-component path: the net's components (0 when the whole net
  // was simulated in one run; the wire name predates the derived tier) and
  // how many the exact derived tier served (docs/serving.md "Unified
  // expression IR & derived interfaces").
  std::uint64_t memo_components = 0;
  std::uint64_t derived_hits = 0;
  // The step budget came from deadline_us rather than max_steps.
  bool deadline_limited = false;
  // Shadow validation (docs/observability.md): set when this request was
  // sampled and re-run against the simulator backend.
  bool shadowed = false;
  double shadow_truth = 0;
  double shadow_rel_err = 0;  // (predicted - truth) / truth, signed
};

struct PredictResponse {
  PredictStatus status = PredictStatus::kRejected;
  std::string error;  // empty iff status == kOk

  // Program queries: `value` is the called function's result; throughput is
  // filled only when the function name suggests a rate (left 0 otherwise).
  // Pnet queries: `value` is the quiescence latency in cycles and
  // `throughput` is tokens/latency.
  double value = 0;
  double throughput = 0;

  bool cache_hit = false;
  std::uint64_t eval_ns = 0;  // service-side evaluation time (0 on a hit)

  // Echo of the request's trace id (service-generated when the request
  // carried none). Always set by PredictionService, even on errors.
  std::string trace_id;
  // Echo of the request's tenant (empty for the default tenant), so
  // pipelined multi-tenant clients can attribute responses without
  // re-joining against their own bookkeeping.
  std::string tenant;
  // Provenance breakdown; filled iff the request set explain.
  ExplainInfo explain;

  bool ok() const { return status == PredictStatus::kOk; }
};

// Process-unique trace id: 16 lowercase hex chars, seeded from the wall
// clock and pid at first use so concurrent processes don't collide.
std::string GenerateTraceId();
// The same, minted into *out in place (its storage is reused).
void GenerateTraceId(std::string* out);

// Trace ids one thread (a worker, a connection) mints from a run of the
// process counter reserved at once, so it writes that shared counter once
// per kTraceIdBlock ids instead of once per id. Ids stay process-unique.
struct TraceIdBlock {
  static constexpr std::uint64_t kTraceIdBlock = 1024;
  std::uint64_t next = 0;
  std::uint64_t end = 0;
};
void GenerateTraceId(std::string* out, TraceIdBlock* block);

// The one builder of responses to requests that are answered without being
// evaluated: kRejected (shed at admission, service shut down, a connection's
// pipelining window full) or kDeadlineExceeded (expired in the queue). It
// keeps the provenance contract of evaluated responses: the trace id is
// echoed (minted when empty) and the tenant echoed, so a pipelined
// multi-tenant client can attribute every line, and an explain-flagged
// request gets an explain block ("rejected" or "expired", cache
// "not_consulted", and the queue wait). A minted id comes from `ids` when
// given.
PredictResponse UnevaluatedResponse(const PredictRequest& request, PredictStatus status,
                                    std::string error, std::uint64_t queue_wait_ns = 0,
                                    TraceIdBlock* ids = nullptr);

// A pnet request's entry_place spec, parsed once: which places receive the
// workload tokens and how many each. Items are sorted by place name with
// duplicate places merged, so permuted specs that inject the same marking
// yield the same plan. Injection order cannot change a result (the tokens
// are identical and injecting only marks transitions pending), so the
// service injects straight from the plan.
struct InjectionPlan {
  struct Item {
    std::string place;
    int count = 0;  // 1..INT_MAX
  };
  // Empty: the net's first declared place receives all `total` tokens.
  std::vector<Item> items;
  std::int64_t total = 0;  // tokens injected across all items
  // Set when the spec is malformed (a count outside 1..INT_MAX, before or
  // after merging duplicates). Such a request can never have a cached
  // answer; the service answers ERROR without consulting the cache.
  std::string error;

  bool ok() const { return error.empty(); }
};

// Parses req.entry_place: comma-separated `place[:count]` items, whitespace
// insignificant. An item without a count, or an empty spec, injects
// max(1, req.tokens) tokens. Unknown place names are not checked here (the
// service resolves them against the net).
InjectionPlan ParseInjectionPlan(const PredictRequest& req);
// The same, into *plan, reusing its storage (a service worker parses every
// pnet request into one plan).
void ParseInjectionPlan(const PredictRequest& req, InjectionPlan* plan);

// Canonical cache key: an exact binary encoding of what the request asks,
// representation-resolved, with attributes sorted by name and, for kPnet,
// the injection plan spelled out with every count explicit, so permuted but
// identical queries share an entry. Every string is length-prefixed (LEB128
// varint), counts are varints, and each attribute's value is its raw
// IEEE-754 bits, so two requests share a key only when they ask the same
// thing. `resolved` must be kProgram or kPnet (kAuto is resolved by the
// service before keying); kPnet needs the request's well-formed `plan`.
// Resource limits are deliberately excluded: the cache stores ground-truth
// predictions, and limits only bound *evaluation* cost.
std::string CanonicalCacheKey(const PredictRequest& req, Representation resolved,
                              const InjectionPlan* plan = nullptr);
// The same key, written over *key (its storage is reused).
void CanonicalCacheKey(const PredictRequest& req, Representation resolved,
                       const InjectionPlan* plan, std::string* key);

}  // namespace perfiface::serve

#endif  // SRC_SERVE_REQUEST_H_
