// Differential suite for the exact derived tier (src/petri/distill.h):
// every answer of an accepted component — quiesce time and firing count —
// must equal a fresh PetriSim run, at attribute vectors far from the one
// the component was compiled at; every racy construction must be refused
// with a reason that names the race. Covers the shipped nets (jpeg across
// and beyond sweep_cold's range, conv/vta/protoacc under single-opcode
// plans), the random pipelines of tests/property_test.cc written as .pnet
// text, and seeded random small nets. This binary also runs under TSan.
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/pnet.h"
#include "src/petri/compiled_net.h"
#include "src/petri/distill.h"
#include "src/petri/sim.h"

namespace perfiface {
namespace {

using Plan = std::vector<std::pair<PlaceId, int>>;
using Outcome = DerivedStore::Outcome;

constexpr std::uint64_t kBudget = 1ULL << 30;
constexpr int kVectorsPerKey = 50;

LoadedNet LoadShipped(const std::string& name) {
  return LoadPnetFile(std::string(PERFIFACE_SOURCE_DIR) + "/src/core/interfaces/" + name +
                      ".pnet");
}

// A fresh whole-component simulation: the oracle.
ComponentResult Simulate(const CompiledNet& cnet, std::size_t component, const Plan& plan,
                         const Token& token, bool* quiesced) {
  PetriSim sim(&cnet, component);
  sim.set_max_firings(kBudget);
  sim.InjectPlan(plan, token);
  *quiesced = sim.Run(kComponentRunHorizon);
  return {sim.now(), sim.total_firings()};
}

// Log-uniform over [1, 10^decades).
double LogUniform(SplitMix64* rng, double decades) {
  return std::floor(std::pow(10.0, decades * rng->NextDouble()));
}

struct Tally {
  int accepted_keys = 0;
  int refused_keys = 0;
  int compared = 0;
};

// Consults the store for every component of `plan` at `token`; a hit must
// equal simulation. Returns whether every component was answered.
bool CheckQuery(DerivedStore* store, const CompiledNet& cnet, const Plan& plan,
                const Token& token, const std::string& context, Tally* tally) {
  ComponentQuery query(cnet, token, plan);
  bool all = true;
  for (std::size_t c = 0; c < cnet.num_components(); ++c) {
    query.Select(c);
    ComponentResult got;
    if (store->Predict(query, kBudget, &got) != Outcome::kHit) {
      all = false;
      continue;
    }
    bool quiesced = false;
    const ComponentResult want = Simulate(cnet, c, plan, token, &quiesced);
    ++tally->compared;
    EXPECT_TRUE(quiesced) << context << " component " << c;
    EXPECT_EQ(got.quiesce_time, want.quiesce_time) << context << " component " << c;
    EXPECT_EQ(got.firings, want.firings) << context << " component " << c;
  }
  return all;
}

// Compiles the key at `seed`, then compares `kVectorsPerKey` random
// vectors drawn by `draw` (which keeps the key's guard outcomes).
template <typename Draw>
void CheckKey(const CompiledNet& cnet, const Plan& plan, const Token& seed, Draw draw,
              SplitMix64* rng, const std::string& context, Tally* tally) {
  DerivedStore store;
  if (!CheckQuery(&store, cnet, plan, seed, context + " seed", tally)) {
    ++tally->refused_keys;
    ComponentQuery query(cnet, seed, plan);
    for (std::size_t c = 0; c < cnet.num_components(); ++c) {
      query.Select(c);
      ComponentResult ignored;
      if (store.Predict(query, kBudget, &ignored) == Outcome::kRefused) {
        EXPECT_FALSE(store.RefusalReason(query).empty()) << context;
      }
    }
    return;
  }
  ++tally->accepted_keys;
  for (int v = 0; v < kVectorsPerKey; ++v) {
    const Token token = draw(rng);
    EXPECT_TRUE(CheckQuery(&store, cnet, plan, token, context + StrFormat(" vector %d", v),
                           tally))
        << context << " vector " << v << " refused after the key was accepted";
  }
  // Components with one structure and one plan share a model.
  EXPECT_GE(store.distilled(), 1u) << context;
  EXPECT_LE(store.distilled(), cnet.num_components()) << context;
}

// --- jpeg -----------------------------------------------------------------

TEST(MaxPlusDiff, JpegMatchesSimulationFarOutsideSweepColdsRange) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const PetriNet& net = *loaded.net;
  const std::size_t bits = net.FindAttr("bits"), blocks = net.FindAttr("blocks");
  SplitMix64 rng(17);
  auto draw = [&](SplitMix64* r) {
    Token t;
    t.attrs.assign(net.attr_names().size(), 0.0);
    t.attrs[bits] = 1 + std::floor(std::pow(2.0, 20 * r->NextDouble()));  // 1..2^20
    t.attrs[blocks] = 1 + static_cast<double>(r->NextBelow(16));         // 1..16
    return t;
  };
  Tally tally;
  for (const int stripes : {1, 2, 7, 32, 100, 256}) {
    for (const int headers : {0, 1}) {
      Plan plan = {{net.PlaceByName("vld_in"), stripes}};
      if (headers != 0) {
        plan.emplace_back(net.PlaceByName("hdr_in"), headers);
      }
      CheckKey(cnet, plan, draw(&rng), draw, &rng,
               StrFormat("jpeg hdr_in:%d,vld_in:%d", headers, stripes), &tally);
    }
  }
  // Every jpeg plan is race-free: one producer per place, one server each.
  EXPECT_EQ(tally.refused_keys, 0);
  EXPECT_EQ(tally.accepted_keys, 12);
}

// Both bottleneck regimes of one plan: the entropy decoder (few bits per
// block) and the writer (many) — the max in the Fig 2 program.
TEST(MaxPlusDiff, JpegCoversBothBottleneckRegimes) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const PetriNet& net = *loaded.net;
  const Plan plan = {{net.PlaceByName("hdr_in"), 1}, {net.PlaceByName("vld_in"), 32}};
  DerivedStore store;
  Tally tally;
  for (const double bits : {1.0, 64.0, 4096.0, 65536.0, 262144.0, 1048576.0}) {
    for (const double blocks : {1.0, 8.0, 16.0}) {
      Token t;
      t.attrs.assign(net.attr_names().size(), 0.0);
      t.attrs[net.FindAttr("bits")] = bits;
      t.attrs[net.FindAttr("blocks")] = blocks;
      EXPECT_TRUE(CheckQuery(&store, cnet, plan, t, StrFormat("bits=%g blocks=%g", bits, blocks),
                             &tally));
    }
  }
  EXPECT_EQ(tally.compared, 18);
  EXPECT_EQ(store.distilled(), 1u);
}

// --- conv / vta / protoacc under single-opcode plans ------------------------

struct ShippedCase {
  const char* net;
  const char* place;
  std::vector<std::pair<const char*, double>> fixed;  // the guard key
  std::vector<const char*> free;                      // drawn log-uniform
};

TEST(MaxPlusDiff, ShippedGuardedNetsMatchSimulationPerGuardKey) {
  const std::vector<ShippedCase> cases = {
      {"conv", "prog", {{"op", 1}, {"pop_w", 0}}, {"words", "groups"}},
      {"conv", "prog", {{"op", 2}, {"pop_w", 0}}, {"words", "groups"}},
      {"conv", "prog", {{"op", 3}, {"pop_w", 1}}, {"words", "groups"}},
      {"conv", "prog", {{"op", 3}, {"pop_w", 0}}, {"words", "groups"}},
      {"conv", "prog", {{"op", 4}, {"pop_w", 0}}, {"words", "groups"}},
      {"vta", "prog", {{"op", 1}, {"push_next", 0}}, {"words", "uops", "iters"}},
      {"vta", "prog", {{"op", 2}, {"push_next", 0}}, {"words", "uops", "iters"}},
      {"vta", "prog", {{"op", 2}, {"push_next", 1}}, {"words", "uops", "iters"}},
      {"vta", "prog", {{"op", 3}, {"push_next", 0}}, {"words", "uops", "iters"}},
      {"vta", "prog", {{"op", 4}, {"push_next", 0}}, {"words", "uops", "iters"}},
      {"protoacc", "node_q", {{"first", 1}}, {"groups", "writes"}},
      {"protoacc", "node_q", {{"first", 0}}, {"groups", "writes"}},
  };
  SplitMix64 rng(29);
  Tally tally;
  for (const ShippedCase& sc : cases) {
    const LoadedNet loaded = LoadShipped(sc.net);
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    const CompiledNet cnet(loaded.net.get());
    const PetriNet& net = *loaded.net;
    auto draw = [&](SplitMix64* r) {
      Token t;
      t.attrs.assign(net.attr_names().size(), 0.0);
      for (const auto& [name, value] : sc.fixed) t.attrs[net.FindAttr(name)] = value;
      for (const char* name : sc.free) t.attrs[net.FindAttr(name)] = LogUniform(r, 6);
      return t;
    };
    for (const int count : {1, 3, 9}) {
      Plan plan = {{net.PlaceByName(sc.place), count}};
      if (net.HasPlace("msg_q")) {
        plan.emplace_back(net.PlaceByName("msg_q"), 1);
      }
      std::string key = sc.net;
      for (const auto& [name, value] : sc.fixed) key += StrFormat(" %s=%g", name, value);
      CheckKey(cnet, plan, draw(&rng), draw, &rng, StrFormat("%s %s:%d", key.c_str(), sc.place, count),
               &tally);
    }
  }
  EXPECT_GT(tally.accepted_keys, 0);
  EXPECT_GT(tally.compared, 1000);
}

// --- random pipelines (tests/property_test.cc PipelineEquivalence) ---------

TEST(MaxPlusDiff, RandomPipelinesAsPnetTextMatchSimulation) {
  Tally tally;
  for (std::uint64_t seed = 1; seed < 25; ++seed) {
    SplitMix64 rng(seed);
    const std::size_t stages = 2 + rng.NextBelow(4);  // 2..5 stages
    const int items = 5 + static_cast<int>(rng.NextBelow(40));
    std::string text = "net pipeline\n";
    for (std::size_t s = 0; s < stages; ++s) text += StrFormat("attr c%zu\n", s);
    text += "place p0\n";
    for (std::size_t s = 1; s < stages; ++s) {
      text += StrFormat("place p%zu cap=%llu\n", s,
                        static_cast<unsigned long long>(1 + rng.NextBelow(4)));
    }
    text += StrFormat("place p%zu\n", stages);
    for (std::size_t s = 0; s < stages; ++s) {
      text += StrFormat("trans s%zu in=p%zu out=p%zu delay=\"c%zu\"\n", s, s, s + 1, s);
    }
    const LoadedNet loaded = LoadPnet(text);
    ASSERT_TRUE(loaded.ok()) << loaded.error << "\n" << text;
    const CompiledNet cnet(loaded.net.get());
    const Plan plan = {{loaded.net->PlaceByName("p0"), items}};
    auto draw = [&](SplitMix64* r) {
      Token t;
      for (std::size_t s = 0; s < stages; ++s) t.attrs.push_back(LogUniform(r, 6));
      return t;
    };
    CheckKey(cnet, plan, draw(&rng), draw, &rng, StrFormat("pipeline seed %llu",
                                                           static_cast<unsigned long long>(seed)),
             &tally);
  }
  EXPECT_EQ(tally.refused_keys, 0);
  EXPECT_EQ(tally.accepted_keys, 24);
}

// --- seeded random small nets ----------------------------------------------

// Shared places, self-loops, weight-2 arcs, capacities 1-4, initial
// markings, and with `guarded` attribute guards and two-server
// transitions: most of these nets race, and must be refused; the rest
// must match simulation everywhere.
std::string RandomNet(SplitMix64* rng, bool guarded) {
  const std::size_t places = 2 + rng->NextBelow(4);
  const std::size_t transitions = 1 + rng->NextBelow(4);
  std::string text = "net random\nattr x\nattr y\n";
  for (std::size_t p = 0; p < places; ++p) {
    const std::uint64_t cap = rng->NextBelow(3) == 0 ? 0 : 1 + rng->NextBelow(4);
    std::uint64_t init = rng->NextBelow(4) == 0 ? 1 + rng->NextBelow(2) : 0;
    if (cap != 0) init = std::min(init, cap);
    text += StrFormat("place q%zu", p);
    if (cap != 0) text += StrFormat(" cap=%llu", static_cast<unsigned long long>(cap));
    if (init != 0) text += StrFormat(" init=%llu", static_cast<unsigned long long>(init));
    text += "\n";
  }
  const char* delays[] = {"x", "y", "3 + x", "2 * y + 1", "x + y", "7", "0", "ceil(x / 3)"};
  for (std::size_t t = 0; t < transitions; ++t) {
    auto arc = [&](std::size_t place) {
      return rng->NextBelow(4) == 0 ? StrFormat("q%zu:2", place) : StrFormat("q%zu", place);
    };
    const std::size_t in = rng->NextBelow(places);
    std::string ins = arc(in);
    if (rng->NextBelow(3) == 0) {
      const std::size_t in2 = rng->NextBelow(places);
      if (in2 != in) {
        ins += ',';
        ins += arc(in2);
      }
    }
    // A self-loop half the time (the jpeg gate's shape), else a forward arc.
    const std::size_t out = rng->NextBelow(2) == 0 ? in : rng->NextBelow(places);
    std::string outs = arc(out);
    if (rng->NextBelow(3) == 0) {
      const std::size_t out2 = rng->NextBelow(places);
      if (out2 != out) {
        outs += ',';
        outs += arc(out2);
      }
    }
    std::string extra;
    if (guarded && rng->NextBelow(3) == 0) {
      const char* guards[] = {"x > 100", "y < 1000", "x > y", "x <= 10 or y > 5000"};
      extra += StrFormat(" guard=\"%s\"", guards[rng->NextBelow(4)]);
    }
    if (guarded && rng->NextBelow(10) == 0) {
      extra += " servers=2";
    }
    text += StrFormat("trans t%zu in=%s out=%s%s delay=\"%s\"\n", t, ins.c_str(), outs.c_str(),
                      extra.c_str(), delays[rng->NextBelow(8)]);
  }
  return text;
}

TEST(MaxPlusDiff, RandomSmallNetsMatchSimulationOrAreRefused) {
  SplitMix64 rng(41);
  Tally tally;
  for (int n = 0; n < 300; ++n) {
    const std::string text = RandomNet(&rng, /*guarded=*/false);
    const LoadedNet loaded = LoadPnet(text);
    ASSERT_TRUE(loaded.ok()) << loaded.error << "\n" << text;
    const CompiledNet cnet(loaded.net.get());
    Plan plan;
    for (std::size_t p = 0; p < loaded.net->places().size(); ++p) {
      if (rng.NextBelow(2) == 0) {
        plan.emplace_back(p, 1 + static_cast<int>(rng.NextBelow(5)));
      }
    }
    auto draw = [](SplitMix64* r) {
      Token t;
      t.attrs = {LogUniform(r, 6), LogUniform(r, 6)};
      return t;
    };
    CheckKey(cnet, plan, draw(&rng), draw, &rng, StrFormat("random net %d:\n%s", n, text.c_str()),
             &tally);
  }
  // Not vacuous either way.
  EXPECT_GT(tally.accepted_keys, 60);
  EXPECT_GT(tally.refused_keys, 10);
}

// With guards, each attribute vector may fall under another guard key,
// which compiles (or is refused) on its own: every answer the tier gives
// must still equal simulation.
TEST(MaxPlusDiff, RandomGuardedNetsMatchSimulationWheneverAnswered) {
  SplitMix64 rng(43);
  Tally tally;
  int lookups = 0;
  for (int n = 0; n < 300; ++n) {
    const std::string text = RandomNet(&rng, /*guarded=*/true);
    const LoadedNet loaded = LoadPnet(text);
    ASSERT_TRUE(loaded.ok()) << loaded.error << "\n" << text;
    const CompiledNet cnet(loaded.net.get());
    Plan plan;
    for (std::size_t p = 0; p < loaded.net->places().size(); ++p) {
      if (rng.NextBelow(2) == 0) {
        plan.emplace_back(p, 1 + static_cast<int>(rng.NextBelow(5)));
      }
    }
    DerivedStore store;
    for (int v = 0; v < 20; ++v) {
      Token token;
      token.attrs = {LogUniform(&rng, 6), LogUniform(&rng, 6)};
      CheckQuery(&store, cnet, plan, token, StrFormat("random guarded net %d:\n%s", n, text.c_str()),
                 &tally);
      lookups += static_cast<int>(cnet.num_components());
    }
  }
  EXPECT_GT(tally.compared, lookups / 3);
}

// --- racy constructions ----------------------------------------------------

std::string RefusalOf(const std::string& text, const std::vector<std::pair<const char*, int>>& plan_by_name,
                      std::vector<double> attrs) {
  const LoadedNet loaded = LoadPnet(text);
  EXPECT_TRUE(loaded.ok()) << loaded.error;
  if (!loaded.ok()) return "";
  const CompiledNet cnet(loaded.net.get());
  Plan plan;
  for (const auto& [name, count] : plan_by_name) {
    plan.emplace_back(loaded.net->PlaceByName(name), count);
  }
  Token token;
  for (const double a : attrs) token.attrs.push_back(a);
  ComponentQuery query(cnet, token, plan);
  query.Select(0);
  DerivedStore store;
  ComponentResult ignored;
  EXPECT_EQ(store.Predict(query, kBudget, &ignored), Outcome::kRefused);
  // The refusal is cached under the key: nothing is compiled twice.
  EXPECT_EQ(store.Predict(query, kBudget, &ignored), Outcome::kRefused);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.distilled(), 0u);
  return store.RefusalReason(query);
}

TEST(MaxPlusDiffRaces, TwoConcurrentProducersIntoOnePlace) {
  const std::string why = RefusalOf(
      "net race\nattr x\nattr y\nplace a\nplace b\nplace m\nplace out\n"
      "trans pa in=a out=m delay=\"x\"\n"
      "trans pb in=b out=m delay=\"y\"\n"
      "trans c in=m out=out delay=\"1\"\n",
      {{"a", 1}, {"b", 1}}, {5, 9});
  EXPECT_NE(why.find("tokens into place 'm' from 'pa' and 'pb' race"), std::string::npos) << why;
}

// Whichever of pa and pb is ready first takes room in m first; with one
// slot the other waits forever.
TEST(MaxPlusDiffRaces, TwoProducersRacingForRoom) {
  const auto net = [](const char* cap) {
    return StrFormat(
        "net room\nattr x\nattr y\nplace a\nplace b\nplace a2\nplace b2\nplace m cap=%s\n"
        "trans ta in=a out=a2 delay=\"x\"\n"
        "trans tb in=b out=b2 delay=\"y\"\n"
        "trans pa in=a2 out=m delay=\"1\"\n"
        "trans pb in=b2 out=m delay=\"1\"\n",
        cap);
  };
  const std::string two = RefusalOf(net("2"), {{"a", 1}, {"b", 1}}, {5, 9});
  EXPECT_NE(two.find("'pa' and 'pb' race for room in place 'm'"), std::string::npos) << two;
  const std::string one = RefusalOf(net("1"), {{"a", 1}, {"b", 1}}, {5, 9});
  EXPECT_NE(one.find("transition 'pb' stays blocked on room in place 'm' that 'pa' took"),
            std::string::npos)
      << one;
}

TEST(MaxPlusDiffRaces, TwoGuardTrueConsumersOfOnePlace) {
  const std::string why = RefusalOf(
      "net consumers\nattr x\nplace in\nplace o1\nplace o2\n"
      "trans t1 in=in out=o1 guard=\"x > 0\" delay=\"x\"\n"
      "trans t2 in=in out=o2 guard=\"x > 1\" delay=\"2 * x\"\n",
      {{"in", 3}}, {5});
  EXPECT_NE(why.find("place 'in' has two enabled consumers, 't1' and 't2'"), std::string::npos)
      << why;
  // Under a key where one guard is false the same net is race-free.
  const LoadedNet loaded = LoadPnet(
      "net consumers\nattr x\nplace in\nplace o1\nplace o2\n"
      "trans t1 in=in out=o1 guard=\"x > 0\" delay=\"x\"\n"
      "trans t2 in=in out=o2 guard=\"x > 1\" delay=\"2 * x\"\n");
  ASSERT_TRUE(loaded.ok());
  const CompiledNet cnet(loaded.net.get());
  const Plan plan = {{loaded.net->PlaceByName("in"), 3}};
  Token token;
  token.attrs = {0.5};
  DerivedStore store;
  Tally tally;
  EXPECT_TRUE(CheckQuery(&store, cnet, plan, token, "x=0.5", &tally));
  EXPECT_EQ(tally.compared, 1);
}

TEST(MaxPlusDiffRaces, TwoServers) {
  const std::string why = RefusalOf(
      "net servers\nattr x\nplace in\nplace out\n"
      "trans t in=in out=out servers=2 delay=\"x\"\n",
      {{"in", 4}}, {5});
  EXPECT_NE(why.find("transition 't' has 2 servers"), std::string::npos) << why;
}

TEST(MaxPlusDiffRaces, GuardReadThroughAnInitialMarkingToken) {
  const std::string why = RefusalOf(
      "net marking\nattr x\nplace credit init=1\nplace in\nplace out\n"
      "trans t in=credit,in out=out guard=\"x > 0\" delay=\"x\"\n",
      {{"in", 2}}, {5});
  EXPECT_NE(why.find("the guard of transition 't' can read an initial-marking token"),
            std::string::npos)
      << why;
}

// --- concurrency -------------------------------------------------------------

// Concurrent first lookups and predictions on one store, over two keys:
// both compile once, every answer is exact. The TSan job runs this.
TEST(MaxPlusDiffConcurrency, ConcurrentFirstLookupAndPredict) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const PetriNet& net = *loaded.net;
  const Plan plans[2] = {{{net.PlaceByName("hdr_in"), 1}, {net.PlaceByName("vld_in"), 8}},
                         {{net.PlaceByName("hdr_in"), 1}, {net.PlaceByName("vld_in"), 5}}};
  std::vector<Token> tokens;
  std::vector<ComponentResult> want[2];
  for (int i = 0; i < 40; ++i) {
    Token t;
    t.attrs.assign(net.attr_names().size(), 0.0);
    t.attrs[net.FindAttr("bits")] = 100.0 + 997.0 * i;
    t.attrs[net.FindAttr("blocks")] = 1 + i % 16;
    tokens.push_back(t);
    for (int p = 0; p < 2; ++p) {
      bool quiesced = false;
      want[p].push_back(Simulate(cnet, 0, plans[p], t, &quiesced));
    }
  }
  DerivedStore store;
  std::vector<std::thread> threads;
  for (int th = 0; th < 4; ++th) {
    threads.emplace_back([&, th] {
      for (int rep = 0; rep < 5; ++rep) {
        for (std::size_t i = 0; i < tokens.size(); ++i) {
          const int p = (th + static_cast<int>(i)) % 2;
          ComponentQuery query(cnet, tokens[i], plans[p]);
          query.Select(0);
          ComponentResult got;
          ASSERT_EQ(store.Predict(query, kBudget, &got), DerivedStore::Outcome::kHit);
          EXPECT_EQ(got.quiesce_time, want[p][i].quiesce_time);
          EXPECT_EQ(got.firings, want[p][i].firings);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.distilled(), 2u);
  EXPECT_EQ(store.hits(), 4u * 5u * 40u);
}

}  // namespace
}  // namespace perfiface
