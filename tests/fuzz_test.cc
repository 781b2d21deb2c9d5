// Robustness ("never crash on bad input") sweeps for the two shipped
// artifact parsers, the program compiler and VM, the NDJSON wire decoders
// and the HTTP request-head parser. Interfaces come from vendors and frames from any client on the
// network; a corrupted input must produce a clean error, not undefined
// behaviour. Each TEST_P applies a seeded corruption to a shipped artifact
// or to real encoder output and requires the parser to either accept it or
// reject it with a message; accepted programs must also compile and run on
// the VM exactly as the reference interpreter runs them, and accepted nets
// must get from the exact derived tier what simulation answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/loc.h"
#include "src/common/rng.h"
#include "src/core/pnet.h"
#include "src/core/registry.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/perfscript/compile.h"
#include "src/perfscript/interp.h"
#include "src/perfscript/kv_object.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/vm.h"
#include "src/petri/compiled_net.h"
#include "src/petri/distill.h"
#include "src/petri/sim.h"
#include "src/serve/request.h"
#include "tests/wire_oracle.h"

namespace perfiface {
namespace {

std::string Corrupt(const std::string& text, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::string out = text;
  const std::size_t edits = 1 + rng.NextBelow(4);
  for (std::size_t e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t pos = rng.NextBelow(out.size());
    switch (rng.NextBelow(4)) {
      case 0:  // flip a character to random printable (or newline)
        out[pos] = static_cast<char>(rng.NextBool(0.1) ? '\n' : 32 + rng.NextBelow(95));
        break;
      case 1:  // delete a span
        out.erase(pos, 1 + rng.NextBelow(8));
        break;
      case 2: {  // duplicate a span
        const std::size_t len = 1 + rng.NextBelow(12);
        out.insert(pos, out.substr(pos, std::min(len, out.size() - pos)));
        break;
      }
      default: {  // delete a whole line
        const std::size_t begin = out.rfind('\n', pos);
        const std::size_t line_start = begin == std::string::npos ? 0 : begin + 1;
        std::size_t line_end = out.find('\n', pos);
        if (line_end == std::string::npos) {
          line_end = out.size();
        }
        out.erase(line_start, line_end - line_start);
        break;
      }
    }
  }
  return out;
}

class PnetFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// A seeded request token: every attribute a small integer (zero included),
// now and then plus a half or replaced by a large value, so mutated guards
// and delays take both branches and meet their error paths.
Token FuzzToken(const PetriNet& net, SplitMix64* rng) {
  Token token;
  for (std::size_t a = 0; a < net.attr_names().size(); ++a) {
    double v = static_cast<double>(rng->NextBelow(9));
    if (rng->NextBool(0.1)) v += 0.5;
    if (rng->NextBool(0.05)) v = 1e9;
    token.attrs.push_back(v);
  }
  return token;
}

// The canonical text of `text`, which loaded to `net`, is a fixed point of
// the canonicalizer and loads to the same structural and component hashes.
void ExpectCanonicalTextRoundTrips(const std::string& text, const PetriNet& net) {
  std::string error;
  const std::string canonical = CanonicalPnetText(text, &error);
  ASSERT_TRUE(error.empty()) << text << "\n" << error;
  EXPECT_EQ(CanonicalPnetText(canonical, &error), canonical) << text;
  const LoadedNet reloaded = LoadPnet(canonical);
  ASSERT_TRUE(reloaded.ok()) << canonical << "\n" << reloaded.error;
  const CompiledNet original(&net);
  const CompiledNet again(reloaded.net.get());
  EXPECT_EQ(original.structural_hash(), again.structural_hash()) << text;
  ASSERT_EQ(original.num_components(), again.num_components()) << text;
  for (std::size_t c = 0; c < original.num_components(); ++c) {
    EXPECT_EQ(original.component_hash(c), again.component_hash(c)) << text << "\ncomponent " << c;
  }
}

// Every shipped net (expanded: `use` resolved, in canonical text),
// corrupted: a mutant is canonicalized, and loads or is refused with a
// message. One that loads round-trips through its canonical text, and
// every component of it is run on two seeded tokens under one seeded plan,
// through a DerivedStore (the first token compiles the model, the second
// is answered from it) and through a fresh component PetriSim; whenever
// the tier answers, its quiesce time and firing count must be the
// simulation's.
TEST_P(PnetFuzz, CorruptedNetsParseOrFailCleanly) {
  constexpr std::uint64_t kBudget = 20'000;
  const std::string dir = InterfaceRegistry::InterfaceDir();
  std::uint64_t stream = 0;
  std::uint64_t compared = 0;
  for (const char* name : {"jpeg.pnet", "conv.pnet", "protoacc.pnet", "vta.pnet",
                           "components/dram_channel.pnet"}) {
    const PnetExpansion original = ExpandPnetIncludes(ReadFileOrDie(dir + "/" + name), dir);
    ASSERT_TRUE(original.ok) << name << ": " << original.error;
    for (std::uint64_t i = 0; i < 40; ++i, ++stream) {
      const std::string mutated = Corrupt(original.text, DeriveSeed(GetParam(), stream));
      const LoadedNet loaded = LoadPnet(mutated);
      if (!loaded.ok()) {
        EXPECT_FALSE(loaded.error.empty());
        std::string error;
        CanonicalPnetText(mutated, &error);  // prints or refuses, never crashes
        continue;
      }
      ASSERT_NO_FATAL_FAILURE(ExpectCanonicalTextRoundTrips(mutated, *loaded.net));
      const PetriNet& net = *loaded.net;
      const CompiledNet cnet(&net);
      SplitMix64 rng(DeriveSeed(GetParam() + 2000, stream));
      std::vector<std::pair<PlaceId, int>> plan;
      for (std::size_t k = rng.NextBelow(3); k < 3 && !net.places().empty(); ++k) {
        plan.emplace_back(rng.NextBelow(net.places().size()), 1 + rng.NextBelow(32));
      }
      const Token tokens[2] = {FuzzToken(net, &rng), FuzzToken(net, &rng)};
      DerivedStore store;
      for (std::size_t c = 0; c < cnet.num_components(); ++c) {
        for (const Token& token : tokens) {
          ComponentQuery query(cnet, token, plan);
          query.Select(c);
          ComponentResult got;
          const DerivedStore::Outcome outcome = store.Predict(query, kBudget, &got);
          PetriSim sim(&cnet, c);
          sim.set_max_firings(kBudget);
          sim.InjectPlan(plan, token);
          const bool quiesced = sim.Run(kComponentRunHorizon);
          if (outcome != DerivedStore::Outcome::kHit) {
            continue;
          }
          ++compared;
          ASSERT_TRUE(quiesced) << mutated << "\ncomponent " << c << ": " << sim.error();
          EXPECT_EQ(got.quiesce_time, sim.now()) << mutated << "\ncomponent " << c;
          EXPECT_EQ(got.firings, sim.total_firings()) << mutated << "\ncomponent " << c;
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);  // the sweep must reach the tier
}

// The shipped component file itself, corrupted and written beside a fixed
// host that `use`s it twice: the host loads or is refused with a message
// (a bare `place` line in a component once crashed here), and one that
// loads round-trips through its expanded canonical text.
TEST_P(PnetFuzz, CorruptedComponentsLoadOrFailCleanly) {
  const std::string dir = ::testing::TempDir();
  const std::string host_path = dir + "/pnet_fuzz_host.pnet";
  std::ofstream(host_path)
      << "net host\nplace ld_cmd\nplace ld_done\nplace st_cmd\nplace st_done\n"
         "use \"pnet_fuzz_component.pnet\" prefix=ld bind=\"cmd=ld_cmd,done=ld_done\"\n"
         "use \"pnet_fuzz_component.pnet\" prefix=st bind=\"cmd=st_cmd,done=st_done\"\n";
  const std::string component =
      ReadFileOrDie(InterfaceRegistry::InterfaceDir() + "/components/dram_channel.pnet");
  std::size_t accepted = 0;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::string mutated = Corrupt(component, DeriveSeed(GetParam() + 3000, i));
    std::ofstream(dir + "/pnet_fuzz_component.pnet") << mutated;
    const LoadedNet loaded = LoadPnetFile(host_path);
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.error.empty());
      continue;
    }
    ++accepted;
    const PnetExpansion expanded = ExpandPnetIncludes(ReadFileOrDie(host_path), dir);
    ASSERT_TRUE(expanded.ok) << mutated << "\n" << expanded.error;
    ASSERT_NO_FATAL_FAILURE(ExpectCanonicalTextRoundTrips(expanded.text, *loaded.net));
  }
  EXPECT_GT(accepted, 0u);  // the round trip must be reached
}

INSTANTIATE_TEST_SUITE_P(Seeds, PnetFuzz, ::testing::Range<std::uint64_t>(1, 9));

class PscFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Bit-exact: -0.0 and 0.0 differ, and so do NaN payloads.
bool SameValue(const Value& a, const Value& b) {
  if (a.kind != b.kind) {
    return false;
  }
  if (!a.IsNumber()) {
    return a.obj == b.obj;
  }
  std::uint64_t ab, bb;
  std::memcpy(&ab, &a.num, sizeof ab);
  std::memcpy(&bb, &b.num, sizeof bb);
  return ab == bb;
}

// Every attribute the shipped programs read, so mutants reach past their
// attribute reads.
const char* const kProgramAttrs[] = {
    "orig_size", "compress_rate", "num_fields", "num_writes",  "wire_bytes",
    "total_fields", "total_nodes", "varint_extra", "input_bytes", "matches",
    "tokens", "height", "width", "channels", "filters", "kernel_h", "kernel_w",
    "stride", "pad", "tile_h", "tile_w", "tile_k"};

// Two seeded workloads: uniform children (one aliased object), and
// distinct children with grandchildren beside uniform ones.
std::vector<std::unique_ptr<KvObject>> FuzzWorkloads(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::unique_ptr<KvObject>> out;
  for (int w = 0; w < 2; ++w) {
    auto object = std::make_unique<KvObject>();
    for (const char* name : kProgramAttrs) {
      object->Set(name, static_cast<double>(rng.NextBelow(64)) + (rng.NextBool(0.2) ? 0.5 : 0));
    }
    if (w == 1) {
      for (int i = 0; i < 2; ++i) {
        auto child = std::make_unique<KvObject>();
        child->Set("num_fields", 1 + i);
        child->Set("num_writes", 3);
        child->AddUniformChildren(i + 1);
        object->AddChild(std::move(child));
      }
    }
    object->AddUniformChildren(3);
    out.push_back(std::move(object));
  }
  return out;
}

// Every shipped program, corrupted: a mutant parses or is refused with a
// message; one that parses compiles or is refused with a size-limit
// message; and for every function on both workloads, the VM agrees with
// the interpreter on ok, error text and value bits whenever neither
// exhausts its step budget.
TEST_P(PscFuzz, CorruptedProgramsParseCompileAndEvaluateAlike) {
  const InterfaceRegistry& registry = InterfaceRegistry::Default();
  std::uint64_t stream = 0;
  std::uint64_t compared = 0;
  for (const InterfaceBundle& bundle : registry.bundles()) {
    if (bundle.program_path.empty()) {
      continue;
    }
    const std::string original = ReadFileOrDie(bundle.program_path);
    for (std::uint64_t i = 0; i < 40; ++i, ++stream) {
      const std::string mutated = Corrupt(original, DeriveSeed(GetParam() + 1000, stream));
      const ParseResult parsed = ParseProgram(mutated);
      if (!parsed.ok) {
        EXPECT_FALSE(parsed.error.empty());
        continue;
      }
      const CompileProgramResult compiled = CompileProgram(parsed.program, bundle.constants);
      if (!compiled.ok()) {
        EXPECT_FALSE(compiled.error.empty()) << mutated;
        continue;
      }
      Interpreter interp(&parsed.program);
      for (const auto& [name, value] : bundle.constants) {
        interp.SetGlobal(name, value);
      }
      interp.set_max_steps(200'000);
      Vm vm(compiled.program);
      vm.set_max_steps(200'000);
      const auto workloads = FuzzWorkloads(DeriveSeed(GetParam() + 4000, stream));
      for (const FunctionDef& fn : parsed.program.functions) {
        for (const auto& workload : workloads) {
          // The workload goes to the first parameter, numbers to the rest.
          std::vector<Value> args;
          for (std::size_t p = 0; p < fn.params.size(); ++p) {
            args.push_back(p == 0 ? Value::Object(workload.get())
                                  : Value::Number(static_cast<double>(p + 1)));
          }
          const EvalResult want = interp.Call(fn.name, args);
          const EvalResult got = vm.Call(fn.name, args);
          if (interp.step_budget_exhausted() || vm.step_budget_exhausted()) {
            continue;
          }
          ++compared;
          ASSERT_EQ(want.ok, got.ok) << mutated << "\nfunction " << fn.name << ": interpreter '"
                                     << want.error << "', vm '" << got.error << "'";
          if (want.ok) {
            EXPECT_TRUE(SameValue(want.value, got.value)) << mutated << "\nfunction " << fn.name;
          } else {
            EXPECT_EQ(want.error, got.error) << mutated << "\nfunction " << fn.name;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);  // the sweep must reach evaluation
}

INSTANTIATE_TEST_SUITE_P(Seeds, PscFuzz, ::testing::Range<std::uint64_t>(1, 9));

class ExprFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExprFuzz, RandomExpressionStringsNeverCrashTheParser) {
  SplitMix64 rng(GetParam());
  static const char* kAtoms[] = {"x",  "42", "1.5", "(", ")", "+",  "-",   "*",
                                 "/",  "%",  "<",   ">", "==", "and", "or", "not",
                                 "min", "max", ",",  ".", "ceil"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string expr;
    const std::size_t atoms = 1 + rng.NextBelow(14);
    for (std::size_t a = 0; a < atoms; ++a) {
      expr += kAtoms[rng.NextBelow(21)];
      expr += ' ';
    }
    const ParseExprResult r = ParseExpression(expr);
    if (!r.ok) {
      EXPECT_FALSE(r.error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprFuzz, ::testing::Range<std::uint64_t>(1, 5));

// --- NDJSON wire decoders (src/net/wire.h) ----------------------------------

// Mutants per seed and decoder: 8 seeds make 20,000 per decoder.
constexpr std::uint64_t kWireMutantsPerSeed = 2'500;

// One frame, newline stripped as the server's FrameReader strips it.
std::string RequestFrame(std::uint64_t id, const std::vector<serve::PredictRequest>& requests) {
  std::string frame;
  net::EncodeRequestFrame(id, requests, &frame);
  frame.pop_back();
  return frame;
}

// Encoder output for every request field: a program query, attributes at
// both ends of the double range, a pnet query with an entry plan, explain,
// tenant, trace_id, deadline, max_steps and children, one request per
// frame and all of them in one frame.
std::vector<std::string> RequestCorpus() {
  serve::PredictRequest program;
  program.interface = "jpeg_decoder";
  program.representation = serve::Representation::kProgram;
  program.function = "latency_jpeg_decode";
  program.attrs = {{"orig_size", 65536.0}, {"compress_rate", 0.2}};
  serve::PredictRequest extreme = program;
  extreme.attrs = {{"orig_size", 1.5e308}, {"compress_rate", 5e-324}};
  serve::PredictRequest pnet;
  pnet.interface = "jpeg_decoder";
  pnet.representation = serve::Representation::kPnet;
  pnet.entry_place = "hdr_in:1,vld_in:8";
  pnet.tokens = 3;
  pnet.attrs = {{"bits", 800.0}, {"blocks", 8.0}};
  serve::PredictRequest explain = program;
  explain.explain = true;
  serve::PredictRequest tenant = program;
  tenant.tenant = "acme";
  serve::PredictRequest traced = pnet;
  traced.trace_id = "trace-0123456789abcdef";
  serve::PredictRequest deadline = program;
  deadline.deadline_us = 250'000;
  serve::PredictRequest budget = pnet;
  budget.max_steps = 5'000'000;
  serve::PredictRequest children;
  children.interface = "protoacc";
  children.function = "tput_protoacc_ser";
  children.attrs = {{"num_fields", 6.0}, {"num_writes", 9.0}};
  children.children = 12;
  const std::vector<serve::PredictRequest> all = {program, extreme,  pnet,   explain, tenant,
                                                  traced,  deadline, budget, children};
  std::vector<std::string> corpus;
  for (std::size_t i = 0; i < all.size(); ++i) {
    corpus.push_back(RequestFrame(i + 1, {all[i]}));
  }
  corpus.push_back(RequestFrame(UINT64_MAX, all));
  return corpus;
}

// OK, ERROR and explain response lines, and a malformed-frame line.
std::vector<std::string> ResponseCorpus() {
  serve::PredictResponse ok;
  ok.status = serve::PredictStatus::kOk;
  ok.value = 71234.0;
  ok.throughput = 0.125;
  ok.cache_hit = true;
  ok.eval_ns = 1234;
  ok.trace_id = "trace-1";
  ok.tenant = "acme";
  serve::PredictResponse error;
  error.status = serve::PredictStatus::kError;
  error.error = "transition 'vld': delay: line 1: division by zero \"q\"\n";
  error.trace_id = "trace-2";
  serve::PredictResponse explained = ok;
  explained.cache_hit = false;
  serve::ExplainInfo& ex = explained.explain;
  ex.filled = true;
  ex.representation = "pnet-derived";
  ex.cache = "miss";
  ex.queue_wait_ns = 7;
  ex.eval_ns = 8;
  ex.steps = 97;
  ex.memo_components = 1;
  ex.derived_hits = 1;
  ex.deadline_limited = true;
  ex.shadowed = true;
  ex.shadow_truth = 70000.5;
  ex.shadow_rel_err = -0.0125;
  std::vector<std::string> corpus(4);
  net::EncodeResponseLine(7, 0, ok, &corpus[0]);
  net::EncodeResponseLine(7, 1, error, &corpus[1]);
  net::EncodeResponseLine(UINT64_MAX, 2, explained, &corpus[2]);
  net::EncodeMalformedLine(8, "bad \"frame\"", &corpus[3]);
  for (std::string& line : corpus) {
    line.pop_back();  // the client decodes lines without their newline
  }
  return corpus;
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// The server's decoder: every mutant is accepted or refused with a
// message, and an accepted frame re-encodes to a fixed point (encode ->
// decode -> encode gives the same bytes), so what the server understood
// is exactly what a client could have sent. Every mutant also decodes as
// the JSON DOM oracle decodes it (tests/wire_oracle.h): the same verdict,
// error bytes, id and fields.
TEST_P(WireFuzz, CorruptedRequestFramesDecodeOrFailCleanly) {
  const std::vector<std::string> corpus = RequestCorpus();
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < kWireMutantsPerSeed; ++i) {
    const std::string mutated =
        Corrupt(corpus[i % corpus.size()], DeriveSeed(GetParam() + 2000, i));
    const auto [decoded, oracle] = net::oracle::DecodeRequestFrameBothWays(mutated);
    ASSERT_EQ(decoded, oracle) << "mutant: " << mutated;
    std::uint64_t id = 0;
    std::vector<serve::PredictRequest> requests;
    std::string error;
    if (!net::DecodeRequestFrame(mutated, &id, &requests, &error)) {
      EXPECT_FALSE(error.empty()) << mutated;
      continue;
    }
    ++accepted;
    const std::string once = RequestFrame(id, requests);
    std::uint64_t again_id = 0;
    std::vector<serve::PredictRequest> again;
    ASSERT_TRUE(net::DecodeRequestFrame(once, &again_id, &again, &error))
        << "mutant: " << mutated << "\nre-encoded: " << once << "\nerror: " << error;
    EXPECT_EQ(RequestFrame(again_id, again), once) << "mutant: " << mutated;
  }
  EXPECT_GT(accepted, 0u);  // the sweep must reach the accept path
}

// The client's decoder: every mutant is accepted or refused with a message,
// and decodes as the DOM oracle decodes it.
TEST_P(WireFuzz, CorruptedResponseLinesDecodeOrFailCleanly) {
  const std::vector<std::string> corpus = ResponseCorpus();
  std::uint64_t accepted = 0;
  for (std::uint64_t i = 0; i < kWireMutantsPerSeed; ++i) {
    const std::string mutated =
        Corrupt(corpus[i % corpus.size()], DeriveSeed(GetParam() + 3000, i));
    const auto [decoded, oracle] = net::oracle::DecodeResponseLineBothWays(mutated);
    ASSERT_EQ(decoded, oracle) << "mutant: " << mutated;
    net::WireResponse response;
    std::string error;
    if (net::DecodeResponseLine(mutated, &response, &error)) {
      ++accepted;
    } else {
      EXPECT_FALSE(error.empty()) << mutated;
    }
  }
  EXPECT_GT(accepted, 0u);
}

// The members of every object in `json` (valid JSON), each as the span
// from its key's opening quote to the end of its value.
std::vector<std::vector<std::pair<std::size_t, std::size_t>>> ObjectMembers(
    const std::string& json) {
  constexpr std::size_t kNone = std::string::npos;
  struct Open {
    bool object = false;
    std::size_t index = 0;       // into the result, for objects
    std::size_t member = kNone;  // where the member being read began
  };
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> objects;
  std::vector<Open> open;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      if (!open.empty() && open.back().object && open.back().member == kNone) {
        open.back().member = i;  // a key: values never start a member
      }
      for (++i; i < json.size() && json[i] != '"'; ++i) {
        i += json[i] == '\\' ? 1 : 0;
      }
    } else if (c == '{' || c == '[') {
      open.push_back({c == '{', objects.size(), kNone});
      if (c == '{') {
        objects.emplace_back();
      }
    } else if (c == ',' || c == '}' || c == ']') {
      Open& top = open.back();
      if (top.object && top.member != kNone) {
        objects[top.index].emplace_back(top.member, i);
        top.member = kNone;
      }
      if (c != ',') {
        open.pop_back();
      }
    }
  }
  return objects;
}

// Corrupt() for JSON: first one to three edits of whole members of one
// object — duplicate a member after another, swap two, drop one (required
// ones included), or give one a value of another type or range — then,
// half the time, Corrupt()'s byte edits. Byte edits alone almost never
// yield a frame without "requests" but with a bad id, or a line with two
// different "explain" objects.
std::string CorruptMembers(const std::string& json, std::uint64_t seed) {
  static const char* const kValues[] = {"-1", "\"\"", "null", "0.5", "true", "{}", "[]",
                                        "18446744073709551616"};
  SplitMix64 rng(seed);
  std::string out = json;
  const std::size_t edits = 1 + rng.NextBelow(3);
  for (std::size_t e = 0; e < edits; ++e) {
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> objects = ObjectMembers(out);
    std::erase_if(objects, [](const auto& members) { return members.empty(); });
    if (objects.empty()) {
      break;
    }
    const auto& members = objects[rng.NextBelow(objects.size())];
    const auto [begin, end] = members[rng.NextBelow(members.size())];
    const auto [other_begin, other_end] = members[rng.NextBelow(members.size())];
    switch (rng.NextBelow(4)) {
      case 0:
        out.insert(other_end, "," + out.substr(begin, end - begin));
        break;
      case 1: {
        // Keys hold no ':' outside escapes in this corpus.
        const std::size_t value = out.find(':', begin) + 1;
        out.replace(value, end - value, kValues[rng.NextBelow(std::size(kValues))]);
        break;
      }
      case 2:
        if (begin != other_begin) {
          const std::size_t b1 = std::min(begin, other_begin);
          const std::size_t e1 = b1 == begin ? end : other_end;
          const std::size_t b2 = std::max(begin, other_begin);
          const std::size_t e2 = b2 == begin ? end : other_end;
          out = out.substr(0, b1) + out.substr(b2, e2 - b2) + out.substr(e1, b2 - e1) +
                out.substr(b1, e1 - b1) + out.substr(e2);
        }
        break;
      default:
        if (out[end] == ',') {
          out.erase(begin, end + 1 - begin);
        } else if (out[begin - 1] == ',') {
          out.erase(begin - 1, end + 1 - begin);
        } else {
          out.erase(begin, end - begin);
        }
        break;
    }
  }
  return rng.NextBool(0.5) ? Corrupt(out, rng.Next()) : out;
}

// What a reused request vector holds after a frame that set every field of
// every request (values no corpus frame uses), one more request than the
// largest corpus frame.
std::vector<serve::PredictRequest> DirtyRequests() {
  serve::PredictRequest dirty;
  dirty.interface = "left_over_interface";
  dirty.representation = serve::Representation::kPnet;
  dirty.function = "left_over_function_name";
  dirty.attrs = {{"left_over_a", 1.0}, {"left_over_b", 2.0}, {"z", 3.0}};
  dirty.children = 77;
  dirty.entry_place = "left_over_place:3";
  dirty.tokens = 9;
  dirty.max_steps = 123;
  dirty.deadline_us = 456;
  dirty.trace_id = "left-over-trace-id";
  dirty.explain = true;
  dirty.tenant = "left-over-tenant";
  std::uint64_t id = 0;
  std::vector<serve::PredictRequest> requests;
  std::string error;
  EXPECT_TRUE(net::DecodeRequestFrame(
      RequestFrame(99, std::vector<serve::PredictRequest>(10, dirty)), &id, &requests, &error))
      << error;
  return requests;
}

// What a reused WireResponse holds after a line that set every field, and
// after a malformed line.
std::vector<net::WireResponse> DirtyResponses() {
  serve::PredictResponse full;
  full.status = serve::PredictStatus::kResourceExhausted;
  full.error = "left over error";
  full.value = 3.25;
  full.throughput = 9.5;
  full.cache_hit = true;
  full.eval_ns = 31;
  full.trace_id = "left-over-trace-id";
  full.tenant = "left-over-tenant";
  serve::ExplainInfo& ex = full.explain;
  ex.filled = true;
  ex.representation = "left-over";
  ex.cache = "left-over";
  ex.queue_wait_ns = 41;
  ex.eval_ns = 42;
  ex.steps = 43;
  ex.memo_components = 44;
  ex.derived_hits = 45;
  ex.deadline_limited = true;
  ex.shadowed = true;
  ex.shadow_truth = 46.5;
  ex.shadow_rel_err = 0.5;
  std::string full_line;
  net::EncodeResponseLine(98, 5, full, &full_line);
  std::string malformed_line;
  net::EncodeMalformedLine(97, "left over", &malformed_line);
  std::vector<net::WireResponse> dirty(2);
  std::string error;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    std::string& line = i == 0 ? full_line : malformed_line;
    line.pop_back();
    EXPECT_TRUE(net::DecodeResponseLine(line, &dirty[i], &error)) << error;
  }
  return dirty;
}

// Member-level mutants of request frames: each decodes as the oracle
// decodes it, both into a fresh vector and into one left over from a frame
// that set every field, so no field of an earlier decode carries over.
TEST_P(WireFuzz, MemberMutantsOfRequestFramesDecodeAsTheOracle) {
  const std::vector<std::string> corpus = RequestCorpus();
  const std::vector<serve::PredictRequest> dirty = DirtyRequests();
  for (std::uint64_t i = 0; i < kWireMutantsPerSeed; ++i) {
    const std::string mutated =
        CorruptMembers(corpus[i % corpus.size()], DeriveSeed(GetParam() + 5000, i));
    const auto [decoded, oracle] = net::oracle::DecodeRequestFrameBothWays(mutated);
    ASSERT_EQ(decoded, oracle) << "mutant: " << mutated;
    const auto [reused, reused_oracle] = net::oracle::DecodeRequestFrameBothWays(mutated, dirty);
    ASSERT_EQ(reused, reused_oracle) << "mutant, decoded into a used vector: " << mutated;
  }
}

// Member-level mutants of response lines, decoded fresh and into a
// WireResponse left over from another line.
TEST_P(WireFuzz, MemberMutantsOfResponseLinesDecodeAsTheOracle) {
  const std::vector<std::string> corpus = ResponseCorpus();
  const std::vector<net::WireResponse> dirty = DirtyResponses();
  for (std::uint64_t i = 0; i < kWireMutantsPerSeed; ++i) {
    const std::string mutated =
        CorruptMembers(corpus[i % corpus.size()], DeriveSeed(GetParam() + 6000, i));
    const auto [decoded, oracle] = net::oracle::DecodeResponseLineBothWays(mutated);
    ASSERT_EQ(decoded, oracle) << "mutant: " << mutated;
    const auto [reused, reused_oracle] =
        net::oracle::DecodeResponseLineBothWays(mutated, dirty[i % dirty.size()]);
    ASSERT_EQ(reused, reused_oracle) << "mutant, decoded into a used response: " << mutated;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range<std::uint64_t>(1, 9));

// --- HTTP request head (src/net/server.h) -----------------------------------

// Heads as the front end hands them to ParseHttpHead (everything before the
// blank line): the scrape, the status page, a predict POST, and the POST
// with duplicate, negative, overflowing and junk-suffixed lengths.
std::vector<std::string> HttpHeadCorpus() {
  const std::string predict =
      "POST /predict HTTP/1.1\r\nHost: 127.0.0.1:7077\r\nContent-Type: application/json\r\n";
  std::vector<std::string> corpus = {
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:7077\r\nAccept: */*",
      "GET /statusz HTTP/1.1\r\nHost: localhost\r\nUser-Agent: curl/8.5.0\r\nAccept: */*",
      predict + "Content-Length: 142",
  };
  for (const char* length :
       {"Content-Length: 5\r\ncontent-length: 5", "Content-Length: 5\r\nContent-Length: 6",
        "Content-Length: -1", "Content-Length: 18446744073709551616",
        "Content-Length: 99999999999999999999999", "Content-Length: 142abc",
        "Content-Length: 0x10", "Content-Length: 1 2", "CONTENT-LENGTH:\t 0042 "}) {
    corpus.push_back(predict + length);
  }
  return corpus;
}

class HttpFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Every head is accepted or refused with 400/413. An accepted head's
// fields survive a round trip: the minimal head spelling them out parses
// to the same method, path and body length, and the length is within the
// limit.
TEST_P(HttpFuzz, CorruptedRequestHeadsParseOrAnswerAStatus) {
  constexpr std::size_t kMaxBody = 1 << 20;
  const std::vector<std::string> corpus = HttpHeadCorpus();
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;
  for (std::uint64_t i = 0; i < kWireMutantsPerSeed; ++i) {
    const std::string& original = corpus[i % corpus.size()];
    const std::string mutated =
        i < corpus.size() ? original : Corrupt(original, DeriveSeed(GetParam() + 4000, i));
    const net::HttpHead head = net::ParseHttpHead(mutated, kMaxBody);
    if (head.status != 0) {
      EXPECT_TRUE(head.status == 400 || head.status == 413) << head.status << ": " << mutated;
      ++refused;
      continue;
    }
    ++accepted;
    EXPECT_LE(head.content_length, kMaxBody) << mutated;
    const net::HttpHead again = net::ParseHttpHead(
        head.method + " " + head.path + " HTTP/1.1\r\nContent-Length: " +
            std::to_string(head.content_length),
        kMaxBody);
    EXPECT_EQ(again.status, 0) << mutated;
    EXPECT_EQ(again.method, head.method) << mutated;
    EXPECT_EQ(again.path, head.path) << mutated;
    EXPECT_EQ(again.content_length, head.content_length) << mutated;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(refused, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpFuzz, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace perfiface
