// serve_tool — command-line client for the prediction service.
//
//   serve_tool list
//       interfaces the registry ships, with their representations
//   serve_tool query <interface> <function|-> [k=v ...] [options]
//       one ad-hoc query ("-" as function selects the Petri net)
//   serve_tool run <query-file> [options]
//       batch-execute a query file: one query per line,
//           <interface> <function|-> [k=v ...]
//       '#' starts a comment; blank lines are skipped
//
// Options:
//   --rep program|pnet     force a representation (default: auto)
//   --children N           uniform child objects (recursive interfaces)
//   --tokens N             pnet: tokens injected (default 1)
//   --entry SPEC           pnet: comma-separated place[:count] injection
//                          plan (default: first place, `--tokens` copies)
//   --deadline-us N        per-request deadline
//   --tenant NAME          tenant name sent with every request (≤64 bytes;
//                          echoed in responses, drives per-tenant
//                          admission quotas; docs/serving.md "Admission
//                          control & tenancy")
//   --max-steps N          per-request step/firing budget
//   --explain              request the per-response provenance breakdown
//                          (representation, cache outcome, queue/eval time;
//                          docs/observability.md "Explain")
//   --workers N            worker threads (default: hardware concurrency)
//   --cache N              cache capacity in entries (0 disables)
//   --quota T=QPS[:BURST]  in-process: token-bucket quota for tenant T
//                          (repeatable; "*" sets the default quota) —
//                          over-quota requests come back REJECTED
//   --admission            in-process: shed requests whose deadline is
//                          infeasible at the current queue depth
//   --repeat N             run: repeat the query file N times (cache demo)
//   --no-memo              disable the exact derived tier (its per-key memo
//                          of compiled max-plus programs) and simulate
//                          every net query whole (docs/serving.md)
//   --async                run --connect: pipeline every repeat before
//                          collecting (an in-process run ignores it)
//   --json                 machine-readable responses and stats
//   --stats                print the service stats dump after the queries
//   --stats-format FMT     stats flavor: text|json|prometheus (implies --stats)
//   --trace FILE           record a cross-layer trace (serve/interp/pnet
//                          spans) and write Chrome trace_event JSON to FILE
//                          (open in Perfetto; docs/observability.md)
//   --trace-sample N       record 1 of every N spans/instants (default 1)
//   --metrics              print the Prometheus scrape after the queries
//   --connect HOST:PORT    query a running perfiface_server over TCP
//                          instead of an in-process service (the NDJSON
//                          wire protocol; --async pipelines every repeat
//                          before collecting and echoes each response's
//                          trace_id). `run --connect` reports
//                          client-observed p50/p99 latency on stderr.
//                          --metrics fetches the server's GET /metrics.
//                          Service options (--workers, --cache, ...) are
//                          ignored — they belong to the server process.
//
// Example:
//   serve_tool query jpeg_decoder latency_jpeg_decode orig_size=65536 compress_rate=0.18
//   serve_tool query jpeg_decoder - --entry hdr_in:1,vld_in:40 bits=80 blocks=8
//   serve_tool run examples/serve_queries.txt --trace out.json --stats-format prometheus
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/loc.h"
#include "src/common/strings.h"
#include "src/core/registry.h"
#include "src/net/client.h"
#include "src/obs/trace.h"
#include "src/serve/service.h"

namespace perfiface::serve {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: serve_tool list\n"
               "       serve_tool query <interface> <function|-> [k=v ...] [options]\n"
               "       serve_tool run <query-file> [options]\n"
               "options: --rep program|pnet --children N --tokens N --entry SPEC\n"
               "         --deadline-us N --tenant NAME --max-steps N --explain\n"
               "         --workers N --cache N --quota T=QPS[:BURST] --admission\n"
               "         --repeat N --no-memo --async --json --stats\n"
               "         --stats-format text|json|prometheus\n"
               "         --trace FILE --trace-sample N --metrics\n"
               "         --connect HOST:PORT (query a perfiface_server over TCP)\n");
  return 2;
}

enum class StatsFormat { kText, kJson, kPrometheus };

struct CliOptions {
  ServiceOptions service;
  int repeat = 1;
  bool async = false;
  bool json = false;
  bool stats = false;
  StatsFormat stats_format = StatsFormat::kText;
  bool stats_format_set = false;
  std::string trace_path;
  std::uint64_t trace_sample = 1;
  bool metrics = false;
  std::string connect;  // HOST:PORT; empty = in-process service
};

// Splits "HOST:PORT"; false if the port is missing or out of range.
bool ParseHostPort(const std::string& spec, std::string* host, std::uint16_t* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return false;
  }
  if (ParseDecimal(std::string_view(spec).substr(colon + 1), port) != std::errc() ||
      *port == 0) {
    return false;
  }
  *host = spec.substr(0, colon);
  return true;
}

// --metrics against --connect: scrape the server, not this process.
int PrintRemoteMetrics(const std::string& host, std::uint16_t port) {
  int status = 0;
  std::string body;
  std::string error;
  if (!net::HttpGet(host, port, "/metrics", &status, &body, &error) || status != 200) {
    std::fprintf(stderr, "GET /metrics failed: %s (status %d)\n", error.c_str(), status);
    return 1;
  }
  std::printf("%s", body.c_str());
  return 0;
}

// Starts the tracer when --trace was requested; on destruction writes the
// Chrome JSON file and a one-line summary pointer to stderr.
class TraceSession {
 public:
  explicit TraceSession(const CliOptions& cli) : path_(cli.trace_path) {
    if (path_.empty()) {
      return;
    }
    obs::TracerOptions options;
    options.sample_every = cli.trace_sample;
    obs::Tracer::Global().Start(options);
  }

  ~TraceSession() {
    if (path_.empty()) {
      return;
    }
    obs::Tracer& tracer = obs::Tracer::Global();
    tracer.Stop();
    if (!tracer.WriteChromeJson(path_)) {
      std::fprintf(stderr, "trace: failed to write %s\n", path_.c_str());
      return;
    }
    std::fprintf(stderr, "trace: %llu events -> %s (load in https://ui.perfetto.dev)\n",
                 static_cast<unsigned long long>(tracer.recorded_events()), path_.c_str());
  }

 private:
  std::string path_;
};

void PrintStats(const PredictionService& service, const CliOptions& cli) {
  if (cli.stats) {
    StatsFormat format = cli.stats_format;
    if (!cli.stats_format_set && cli.json) {
      format = StatsFormat::kJson;  // back-compat: --json implies JSON stats
    }
    switch (format) {
      case StatsFormat::kText:
        std::printf("%s\n", service.StatsText().c_str());
        break;
      case StatsFormat::kJson:
        std::printf("%s\n", service.StatsJson().c_str());
        break;
      case StatsFormat::kPrometheus:
        std::printf("%s", service.StatsPrometheus().c_str());
        break;
    }
  }
  if (cli.metrics && (!cli.stats || cli.stats_format != StatsFormat::kPrometheus)) {
    std::printf("%s", service.StatsPrometheus().c_str());
  }
}

// Applies one option (with optional value) to the request/options; returns
// the number of argv slots consumed, or 0 if `arg` is not an option.
std::size_t ParseOption(const std::vector<std::string>& args, std::size_t i,
                        PredictRequest* req, CliOptions* cli) {
  const std::string& arg = args[i];
  auto value = [&](const char** out) {
    if (i + 1 >= args.size()) {
      return false;
    }
    *out = args[i + 1].c_str();
    return true;
  };
  const char* v = nullptr;
  if (arg == "--json") {
    cli->json = true;
    return 1;
  }
  if (arg == "--stats") {
    cli->stats = true;
    return 1;
  }
  if (arg == "--stats-format" && value(&v)) {
    if (std::strcmp(v, "text") == 0) {
      cli->stats_format = StatsFormat::kText;
    } else if (std::strcmp(v, "json") == 0) {
      cli->stats_format = StatsFormat::kJson;
    } else if (std::strcmp(v, "prometheus") == 0) {
      cli->stats_format = StatsFormat::kPrometheus;
    } else {
      return 0;
    }
    cli->stats = true;
    cli->stats_format_set = true;
    return 2;
  }
  if (arg == "--trace" && value(&v)) {
    cli->trace_path = v;
    return 2;
  }
  if (arg == "--trace-sample" && value(&v)) {
    return ParseDecimal(v, &cli->trace_sample) == std::errc() ? 2 : 0;
  }
  if (arg == "--metrics") {
    cli->metrics = true;
    return 1;
  }
  if (arg == "--rep" && value(&v)) {
    if (std::strcmp(v, "program") == 0) {
      req->representation = Representation::kProgram;
    } else if (std::strcmp(v, "pnet") == 0) {
      req->representation = Representation::kPnet;
    } else {
      return 0;
    }
    return 2;
  }
  if (arg == "--children" && value(&v)) {
    return ParseDecimal(v, &req->children) == std::errc() ? 2 : 0;
  }
  if (arg == "--tokens" && value(&v)) {
    return ParseDecimal(v, &req->tokens) == std::errc() ? 2 : 0;
  }
  if (arg == "--entry" && value(&v)) {
    req->entry_place = v;
    return 2;
  }
  if (arg == "--deadline-us" && value(&v)) {
    return ParseDecimal(v, &req->deadline_us) == std::errc() ? 2 : 0;
  }
  if (arg == "--tenant" && value(&v)) {
    req->tenant = v;
    return 2;
  }
  if (arg == "--max-steps" && value(&v)) {
    return ParseDecimal(v, &req->max_steps) == std::errc() ? 2 : 0;
  }
  if (arg == "--explain") {
    req->explain = true;
    return 1;
  }
  if (arg == "--workers" && value(&v)) {
    return ParseDecimal(v, &cli->service.num_workers) == std::errc() ? 2 : 0;
  }
  if (arg == "--cache" && value(&v)) {
    return ParseDecimal(v, &cli->service.cache_capacity) == std::errc() ? 2 : 0;
  }
  if (arg == "--repeat" && value(&v)) {
    return ParseDecimal(v, &cli->repeat) == std::errc() ? 2 : 0;
  }
  if (arg == "--quota" && value(&v)) {
    return ApplyQuotaFlag(v, &cli->service.admission) ? 2 : 0;
  }
  if (arg == "--admission") {
    cli->service.admission.shed_deadline = true;
    return 1;
  }
  if (arg == "--no-memo") {
    cli->service.enable_pnet_memo = false;
    return 1;
  }
  if (arg == "--async") {
    cli->async = true;
    return 1;
  }
  if (arg == "--connect" && value(&v)) {
    cli->connect = v;
    return 2;
  }
  return 0;
}

void PrintResponse(const PredictRequest& req, const PredictResponse& resp, bool json,
                   bool show_trace = false) {
  if (json) {
    std::string out = "{\"interface\":";
    AppendJsonString(&out, req.interface);
    out += ",\"function\":";
    AppendJsonString(&out, req.function);
    out += ",\"attrs\":{";
    for (std::size_t i = 0; i < req.attrs.size(); ++i) {
      out += i == 0 ? "" : ",";
      AppendJsonString(&out, req.attrs[i].first);
      out += StrFormat(":%.17g", req.attrs[i].second);
    }
    out += StrFormat("},\"status\":\"%s\",\"value\":%.17g,\"throughput\":%.17g,"
                     "\"cache_hit\":%s,\"eval_ns\":%llu",
                     PredictStatusName(resp.status), resp.value, resp.throughput,
                     resp.cache_hit ? "true" : "false",
                     static_cast<unsigned long long>(resp.eval_ns));
    if (!resp.trace_id.empty()) {
      out += ",\"trace_id\":";
      AppendJsonString(&out, resp.trace_id);
    }
    if (resp.explain.filled) {
      const ExplainInfo& ex = resp.explain;
      out += ",\"explain\":{\"representation\":";
      AppendJsonString(&out, ex.representation);
      out += ",\"cache\":";
      AppendJsonString(&out, ex.cache);
      out += StrFormat(
          ",\"queue_wait_ns\":%llu,\"eval_ns\":%llu,\"steps\":%llu,"
          "\"memo_components\":%llu,\"derived_hits\":%llu,"
          "\"deadline_limited\":%s,\"shadowed\":%s}",
          static_cast<unsigned long long>(ex.queue_wait_ns),
          static_cast<unsigned long long>(ex.eval_ns),
          static_cast<unsigned long long>(ex.steps),
          static_cast<unsigned long long>(ex.memo_components),
          static_cast<unsigned long long>(ex.derived_hits),
          ex.deadline_limited ? "true" : "false", ex.shadowed ? "true" : "false");
    }
    if (!resp.error.empty()) {
      out += ",\"error\":";
      AppendJsonString(&out, resp.error);
    }
    std::printf("%s}\n", out.c_str());
    return;
  }
  const std::string trace_suffix =
      show_trace && !resp.trace_id.empty() ? StrFormat("  [trace %s]", resp.trace_id.c_str())
                                           : std::string();
  if (!resp.ok()) {
    std::printf("%s %s: %s (%s)%s\n", req.interface.c_str(), req.function.c_str(),
                PredictStatusName(resp.status), resp.error.c_str(), trace_suffix.c_str());
    return;
  }
  std::printf("%s %s = %.10g%s%s%s\n", req.interface.c_str(),
              req.function.empty() ? "<pnet>" : req.function.c_str(), resp.value,
              resp.throughput != 0 && resp.throughput != resp.value
                  ? StrFormat("  (throughput %.10g)", resp.throughput).c_str()
                  : "",
              resp.cache_hit ? "  [cached]" : "", trace_suffix.c_str());
  if (resp.explain.filled) {
    const ExplainInfo& ex = resp.explain;
    std::printf("  explain: rep=%s cache=%s queue=%lluns eval=%lluns steps=%llu derived=%llu/%llu%s%s\n",
                ex.representation.c_str(), ex.cache.c_str(),
                static_cast<unsigned long long>(ex.queue_wait_ns),
                static_cast<unsigned long long>(ex.eval_ns),
                static_cast<unsigned long long>(ex.steps),
                static_cast<unsigned long long>(ex.derived_hits),
                static_cast<unsigned long long>(ex.memo_components),
                ex.deadline_limited ? " deadline-limited" : "",
                ex.shadowed ? StrFormat(" shadow_rel_err=%.4g", ex.shadow_rel_err).c_str() : "");
  }
}

// Client-observed latency summary for `run --connect`: stderr so stdout
// stays parseable response lines.
void PrintClientLatency(std::vector<double>* latencies_us) {
  if (latencies_us->empty()) {
    return;
  }
  std::sort(latencies_us->begin(), latencies_us->end());
  const auto pct = [&](double p) {
    const std::size_t idx = static_cast<std::size_t>(p * (latencies_us->size() - 1) + 0.5);
    return (*latencies_us)[std::min(idx, latencies_us->size() - 1)];
  };
  std::fprintf(stderr, "client-observed latency over %zu responses: p50=%.1fus p99=%.1fus\n",
               latencies_us->size(), pct(0.50), pct(0.99));
}

// Parses "<interface> <function|-> [k=v ...]" into a request; options are
// handled by the caller. Returns false on malformed input.
bool ParseQueryWords(const std::vector<std::string>& words, PredictRequest* req) {
  if (words.size() < 2) {
    return false;
  }
  req->interface = words[0];
  if (words[1] == "-") {
    req->representation = Representation::kPnet;
  } else {
    req->function = words[1];
  }
  for (std::size_t i = 2; i < words.size(); ++i) {
    const auto eq = words[i].find('=');
    if (eq == std::string::npos) {
      return false;
    }
    const std::string key = words[i].substr(0, eq);
    const std::string_view text = std::string_view(words[i]).substr(eq + 1);
    double value = 0;
    if (key == "children" ? ParseDecimal(text, &req->children) != std::errc()
                          : ParseDecimal(text, &value) != std::errc()) {
      std::fprintf(stderr, "bad number in '%s'\n", words[i].c_str());
      return false;
    }
    if (key != "children") {
      req->attrs.emplace_back(key, value);
    }
  }
  return true;
}

int CmdList() {
  const InterfaceRegistry& registry = InterfaceRegistry::Default();
  for (const InterfaceBundle& b : registry.bundles()) {
    std::printf("%-18s%s%s%s\n", b.accelerator.c_str(), b.text.has_value() ? " text" : "",
                b.program_path.empty() ? "" : " program", b.pnet_path.empty() ? "" : " pnet");
  }
  return 0;
}

int CmdQuery(const std::vector<std::string>& args) {
  PredictRequest req;
  CliOptions cli;
  std::vector<std::string> words;
  for (std::size_t i = 0; i < args.size();) {
    const std::size_t consumed = ParseOption(args, i, &req, &cli);
    if (consumed > 0) {
      i += consumed;
    } else if (StartsWith(args[i], "--")) {
      return Usage();
    } else {
      words.push_back(args[i]);
      ++i;
    }
  }
  if (!ParseQueryWords(words, &req)) {
    return Usage();
  }
  if (!cli.connect.empty()) {
    std::string host;
    std::uint16_t port = 0;
    if (!ParseHostPort(cli.connect, &host, &port)) {
      return Usage();
    }
    net::NetClient client;
    std::string error;
    std::vector<PredictResponse> responses;
    if (!client.Connect(host, port, &error) || !client.Call({req}, &responses, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    PrintResponse(req, responses[0], cli.json);
    if (cli.metrics && PrintRemoteMetrics(host, port) != 0) {
      return 1;
    }
    return responses[0].ok() ? 0 : 1;
  }
  TraceSession trace(cli);
  PredictionService service(InterfaceRegistry::Default(), cli.service);
  const PredictResponse resp = service.Predict(req);
  PrintResponse(req, resp, cli.json);
  PrintStats(service, cli);
  return resp.ok() ? 0 : 1;
}

// `run` against --connect: every repeat is one request frame. --async
// pipelines all of them before reading anything (the whole point of the
// wire protocol); otherwise each repeat round-trips synchronously.
int RunRemote(const std::vector<PredictRequest>& requests, const CliOptions& cli) {
  std::string host;
  std::uint16_t port = 0;
  if (!ParseHostPort(cli.connect, &host, &port)) {
    return Usage();
  }
  net::NetClient client;
  std::string error;
  if (!client.Connect(host, port, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  using LatClock = std::chrono::steady_clock;
  const auto elapsed_us = [](LatClock::time_point since) {
    return std::chrono::duration<double, std::micro>(LatClock::now() - since).count();
  };
  std::vector<double> latencies_us;  // client-observed, per response line
  const int total = std::max(1, cli.repeat);
  std::vector<PredictResponse> last(requests.size());
  if (cli.async) {
    std::vector<std::uint64_t> ids;
    std::map<std::uint64_t, LatClock::time_point> sent_at;
    ids.reserve(static_cast<std::size_t>(total));
    for (int r = 0; r < total; ++r) {
      ids.push_back(client.NextId());
      sent_at[ids.back()] = LatClock::now();
      if (!client.SendBatch(ids.back(), requests, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
    }
    const std::size_t expected = requests.size() * static_cast<std::size_t>(total);
    for (std::size_t i = 0; i < expected; ++i) {
      net::WireResponse wire;
      if (!client.ReadResponse(&wire, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      if (wire.malformed) {
        std::fprintf(stderr, "server rejected frame: %s\n", wire.response.error.c_str());
        return 1;
      }
      const auto it = sent_at.find(wire.id);
      if (it != sent_at.end()) {
        // Latency as the client sees it: frame send to this response line.
        latencies_us.push_back(elapsed_us(it->second));
      }
      if (wire.id == ids.back() && wire.index < last.size()) {
        last[wire.index] = wire.response;
      }
    }
  } else {
    for (int r = 0; r < total; ++r) {
      const LatClock::time_point call_start = LatClock::now();
      if (!client.Call(requests, &last, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
      }
      latencies_us.push_back(elapsed_us(call_start));
    }
  }
  int failures = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // --async echoes the server's trace ids so pipelined responses can be
    // matched against /tracez and trace exports.
    PrintResponse(requests[i], last[i], cli.json, /*show_trace=*/cli.async);
    if (!last[i].ok()) {
      ++failures;
    }
  }
  PrintClientLatency(&latencies_us);
  if (cli.metrics && PrintRemoteMetrics(host, port) != 0) {
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

int CmdRun(const std::vector<std::string>& args) {
  if (args.empty()) {
    return Usage();
  }
  const std::string path = args[0];
  PredictRequest defaults;
  CliOptions cli;
  for (std::size_t i = 1; i < args.size();) {
    const std::size_t consumed = ParseOption(args, i, &defaults, &cli);
    if (consumed == 0) {
      return Usage();
    }
    i += consumed;
  }

  std::string text;
  std::string error;
  if (!ReadFile(path, &text, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());  // "cannot read <path>: <reason>"
    return 1;
  }
  std::vector<PredictRequest> requests;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    const std::string_view line = StripWhitespace(raw_line);
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::vector<std::string> words;
    for (const std::string& w : SplitString(line, ' ')) {
      if (!StripWhitespace(w).empty()) {
        words.push_back(std::string(StripWhitespace(w)));
      }
    }
    PredictRequest req = defaults;
    if (!ParseQueryWords(words, &req)) {
      std::fprintf(stderr, "bad query line: %.*s\n", static_cast<int>(line.size()), line.data());
      return 2;
    }
    requests.push_back(std::move(req));
  }

  if (!cli.connect.empty()) {
    return RunRemote(requests, cli);
  }

  TraceSession trace(cli);
  PredictionService service(InterfaceRegistry::Default(), cli.service);
  int failures = 0;
  for (int r = 0; r < std::max(1, cli.repeat); ++r) {
    const std::vector<PredictResponse> responses = service.PredictBatch(requests);
    // Print only the last repetition; earlier ones just warm the cache.
    if (r == std::max(1, cli.repeat) - 1) {
      for (std::size_t i = 0; i < requests.size(); ++i) {
        PrintResponse(requests[i], responses[i], cli.json);
        if (!responses[i].ok()) {
          ++failures;
        }
      }
    }
  }
  PrintStats(service, cli);
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string cmd = argv[1];
  std::vector<std::string> rest;
  for (int i = 2; i < argc; ++i) {
    rest.emplace_back(argv[i]);
  }
  if (cmd == "list") {
    return CmdList();
  }
  if (cmd == "query") {
    return CmdQuery(rest);
  }
  if (cmd == "run") {
    return CmdRun(rest);
  }
  return Usage();
}

}  // namespace
}  // namespace perfiface::serve

int main(int argc, char** argv) { return perfiface::serve::Main(argc, argv); }
