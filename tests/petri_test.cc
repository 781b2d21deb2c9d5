#include <algorithm>
#include <climits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnet.h"
#include "src/obs/trace.h"
#include "src/petri/analysis.h"
#include "src/petri/compiled_net.h"
#include "src/petri/distill.h"
#include "src/petri/net.h"
#include "src/petri/sim.h"
#include "src/sim/pipeline_model.h"
#include "tests/net_builder.h"

namespace perfiface {
namespace {

using testing::ExprTransition;

TEST(PetriNet, AttrRegistrationIsIdempotent) {
  PetriNet net;
  const std::size_t a = net.RegisterAttr("x");
  const std::size_t b = net.RegisterAttr("y");
  EXPECT_NE(a, b);
  EXPECT_EQ(net.RegisterAttr("x"), a);
  EXPECT_EQ(net.FindAttr("y"), b);
  EXPECT_EQ(net.FindAttr("z"), PetriNet::kNoAttr);
}

TEST(PetriSim, SingleTransitionDelay) {
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "t", {{in, 1}}, {{out, 1}}, "7"));

  PetriSim sim(&net);
  sim.Observe(out);
  sim.Inject(in, Token{});
  EXPECT_TRUE(sim.Run(1000));
  ASSERT_EQ(sim.arrivals(out).size(), 1u);
  EXPECT_EQ(sim.arrivals(out)[0].time, 7u);
}

TEST(PetriSim, SingleServerSerializes) {
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "t", {{in, 1}}, {{out, 1}}, "10"));

  PetriSim sim(&net);
  sim.Observe(out);
  for (int i = 0; i < 3; ++i) {
    sim.Inject(in, Token{});
  }
  EXPECT_TRUE(sim.Run(1000));
  ASSERT_EQ(sim.arrivals(out).size(), 3u);
  EXPECT_EQ(sim.arrivals(out)[2].time, 30u);
}

TEST(PetriSim, MultiServerOverlaps) {
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "t", {{in, 1}}, {{out, 1}}, "10", 3));

  PetriSim sim(&net);
  sim.Observe(out);
  for (int i = 0; i < 3; ++i) {
    sim.Inject(in, Token{});
  }
  EXPECT_TRUE(sim.Run(1000));
  EXPECT_EQ(sim.arrivals(out)[2].time, 10u);
}

TEST(PetriSim, DelayDependsOnTokenAttrs) {
  PetriNet net;
  net.RegisterAttr("work");
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "t", {{in, 1}}, {{out, 1}}, "work"));

  PetriSim sim(&net);
  sim.Observe(out);
  Token t1;
  t1.attrs = {5};
  Token t2;
  t2.attrs = {11};
  sim.Inject(in, t1);
  sim.Inject(in, t2);
  EXPECT_TRUE(sim.Run(1000));
  EXPECT_EQ(sim.arrivals(out)[0].time, 5u);
  EXPECT_EQ(sim.arrivals(out)[1].time, 16u);
}

TEST(PetriSim, GuardBlocksFiring) {
  PetriNet net;
  net.RegisterAttr("kind");
  const PlaceId in = net.AddPlace("in");
  const PlaceId a = net.AddPlace("a");
  const PlaceId b = net.AddPlace("b");
  net.AddTransition(ExprTransition(net, "to_a", {{in, 1}}, {{a, 1}}, "1", 1, "kind == 1"));
  net.AddTransition(ExprTransition(net, "to_b", {{in, 1}}, {{b, 1}}, "1", 1, "kind == 2"));

  PetriSim sim(&net);
  sim.Observe(a);
  sim.Observe(b);
  Token t1;
  t1.attrs = {2};
  Token t2;
  t2.attrs = {1};
  sim.Inject(in, t1);
  sim.Inject(in, t2);
  EXPECT_TRUE(sim.Run(1000));
  EXPECT_EQ(sim.arrivals(b).size(), 1u);  // routed by guard
  EXPECT_EQ(sim.arrivals(a).size(), 1u);
}

TEST(PetriSim, CreditPlaceLimitsConcurrency) {
  // Classic double-buffer: `credits` starts with 2 tokens; each firing of
  // `use` consumes one and `restore` returns it after a delay.
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId credits = net.AddPlace("credits", 0, 2);
  const PlaceId mid = net.AddPlace("mid");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "use", {{in, 1}, {credits, 1}}, {{mid, 1}}, "1", 4));
  net.AddTransition(
      ExprTransition(net, "restore", {{mid, 1}}, {{out, 1}, {credits, 1}}, "10", 4));

  PetriSim sim(&net);
  sim.Observe(out);
  for (int i = 0; i < 4; ++i) {
    sim.Inject(in, Token{});
  }
  EXPECT_TRUE(sim.Run(1000));
  // Despite 4 servers, only 2 can be in flight: completions at 11 (x2), 22 (x2).
  ASSERT_EQ(sim.arrivals(out).size(), 4u);
  EXPECT_EQ(sim.arrivals(out)[1].time, 11u);
  EXPECT_EQ(sim.arrivals(out)[3].time, 22u);
}

TEST(PetriSim, BoundedPlaceBackpressure) {
  // fast -> bounded(1) -> slow: fast stage is throttled by the slow one.
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId buf = net.AddPlace("buf", 1);
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "fast", {{in, 1}}, {{buf, 1}}, "1"));
  net.AddTransition(ExprTransition(net, "slow", {{buf, 1}}, {{out, 1}}, "10"));

  PetriSim sim(&net);
  sim.Observe(out);
  for (int i = 0; i < 4; ++i) {
    sim.Inject(in, Token{});
  }
  EXPECT_TRUE(sim.Run(1000));
  EXPECT_EQ(sim.arrivals(out)[3].time, 41u);
}

// The load-bearing equivalence: a linear Petri net with bounded places must
// time-match PipelineModel exactly (same semantics, two formulations).
TEST(PetriSim, MatchesPipelineModelExactly) {
  const std::vector<Cycles> s0 = {3, 9, 2, 14, 5, 7, 1, 8};
  const std::vector<Cycles> s1 = {6, 2, 11, 3, 9, 4, 10, 2};
  const std::vector<Cycles> s2 = {5, 5, 5, 12, 1, 9, 3, 6};
  const std::size_t cap = 2;

  PipelineModel model({s0, s1, s2}, {cap, cap});

  PetriNet net;
  net.RegisterAttr("c0");
  net.RegisterAttr("c1");
  net.RegisterAttr("c2");
  const PlaceId in = net.AddPlace("in");
  const PlaceId f1 = net.AddPlace("f1", cap);
  const PlaceId f2 = net.AddPlace("f2", cap);
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "s0", {{in, 1}}, {{f1, 1}}, "c0"));
  net.AddTransition(ExprTransition(net, "s1", {{f1, 1}}, {{f2, 1}}, "c1"));
  net.AddTransition(ExprTransition(net, "s2", {{f2, 1}}, {{out, 1}}, "c2"));

  PetriSim sim(&net);
  sim.Observe(out);
  for (std::size_t i = 0; i < s0.size(); ++i) {
    Token t;
    t.attrs = {static_cast<double>(s0[i]), static_cast<double>(s1[i]),
               static_cast<double>(s2[i])};
    sim.Inject(in, t);
  }
  EXPECT_TRUE(sim.Run(100000));
  ASSERT_EQ(sim.arrivals(out).size(), s0.size());
  for (std::size_t i = 0; i < s0.size(); ++i) {
    EXPECT_EQ(sim.arrivals(out)[i].time, model.FinishTime(2, i)) << "item " << i;
  }
}

TEST(PetriSim, LatencyStampsPreserved) {
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "t", {{in, 1}}, {{out, 1}}, "5"));
  PetriSim sim(&net);
  sim.Observe(out);
  sim.Inject(in, Token{});
  sim.Inject(in, Token{});
  EXPECT_TRUE(sim.Run(100));
  EXPECT_EQ(ArrivalLatency(sim, out, 0), 5u);
  EXPECT_EQ(ArrivalLatency(sim, out, 1), 10u);  // includes queueing
}

TEST(PetriSim, ResetRestoresInitialMarking) {
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId credits = net.AddPlace("credits", 0, 3);
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "t", {{in, 1}, {credits, 1}}, {{out, 1}}, "1"));
  PetriSim sim(&net);
  sim.Inject(in, Token{});
  EXPECT_TRUE(sim.Run(100));
  EXPECT_EQ(sim.tokens_at(credits), 2u);
  sim.Reset();
  EXPECT_EQ(sim.tokens_at(credits), 3u);
  EXPECT_EQ(sim.now(), 0u);
}

TEST(PetriSim, RunStopsAtMaxTime) {
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "t", {{in, 1}}, {{out, 1}}, "100"));
  PetriSim sim(&net);
  sim.Inject(in, Token{});
  EXPECT_FALSE(sim.Run(50));
  EXPECT_EQ(sim.now(), 50u);
}

TEST(Analysis, SummarizeCountsElements) {
  PetriNet net;
  const PlaceId a = net.AddPlace("a", 2);
  const PlaceId b = net.AddPlace("b", 3);
  net.AddTransition(ExprTransition(net, "t", {{a, 1}}, {{b, 1}}, "1"));
  const NetSummary s = Summarize(net);
  EXPECT_EQ(s.places, 2u);
  EXPECT_EQ(s.transitions, 1u);
  EXPECT_EQ(s.arcs, 2u);
  EXPECT_TRUE(s.structurally_bounded);
}

TEST(Analysis, LintFlagsDisconnectedAndCappedSinks) {
  PetriNet net;
  net.AddPlace("orphan");
  const PlaceId a = net.AddPlace("a");
  const PlaceId sink = net.AddPlace("sink", 1);
  net.AddTransition(ExprTransition(net, "t", {{a, 1}}, {{sink, 1}}, "1"));
  const auto issues = LintNet(net);
  EXPECT_EQ(issues.size(), 2u);
}

TEST(Analysis, SteadyStateThroughput) {
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "t", {{in, 1}}, {{out, 1}}, "4"));
  PetriSim sim(&net);
  sim.Observe(out);
  for (int i = 0; i < 10; ++i) {
    sim.Inject(in, Token{});
  }
  EXPECT_TRUE(sim.Run(1000));
  EXPECT_DOUBLE_EQ(SteadyStateThroughput(sim, out), 0.25);
}

// ---------------------------------------------------------------------------
// CompiledNet: lowering, components, structural hashing.

// Two disconnected chains plus an orphan place. `scale` shifts the delay
// expression so structurally-identical and structurally-different variants
// come from the same builder.
PetriNet TwoChainNet(const char* prefix, Cycles chain_b_delay = 3) {
  PetriNet net;
  const PlaceId a_in = net.AddPlace(std::string(prefix) + "a_in");
  const PlaceId a_out = net.AddPlace(std::string(prefix) + "a_out");
  const PlaceId b_in = net.AddPlace(std::string(prefix) + "b_in");
  const PlaceId b_mid = net.AddPlace(std::string(prefix) + "b_mid", 2);
  const PlaceId b_out = net.AddPlace(std::string(prefix) + "b_out");
  net.AddPlace(std::string(prefix) + "orphan");
  net.AddTransition(ExprTransition(net, "a0", {{a_in, 1}}, {{a_out, 1}}, "5"));
  net.AddTransition(
      ExprTransition(net, "b0", {{b_in, 1}}, {{b_mid, 1}}, std::to_string(chain_b_delay)));
  net.AddTransition(ExprTransition(net, "b1", {{b_mid, 1}}, {{b_out, 1}}, "2"));
  return net;
}

TEST(CompiledNet, PartitionsDisconnectedComponents) {
  const PetriNet net = TwoChainNet("");
  const CompiledNet cnet(&net);
  ASSERT_EQ(cnet.num_components(), 3u);  // chain a, chain b, orphan place

  // Chain a is discovered first (transition declaration order), the orphan
  // place last.
  EXPECT_EQ(cnet.transitions()[0].component, 0u);
  EXPECT_EQ(cnet.transitions()[1].component, 1u);
  EXPECT_EQ(cnet.transitions()[2].component, 1u);
  EXPECT_EQ(cnet.places()[net.PlaceByName("a_in")].component, 0u);
  EXPECT_EQ(cnet.places()[net.PlaceByName("b_out")].component, 1u);
  EXPECT_EQ(cnet.places()[net.PlaceByName("orphan")].component, 2u);

  // Local indices restart per component, in declaration order.
  EXPECT_EQ(cnet.places()[net.PlaceByName("a_in")].local_index, 0u);
  EXPECT_EQ(cnet.places()[net.PlaceByName("a_out")].local_index, 1u);
  EXPECT_EQ(cnet.places()[net.PlaceByName("b_in")].local_index, 0u);
  EXPECT_EQ(cnet.places()[net.PlaceByName("b_mid")].local_index, 1u);
  EXPECT_EQ(cnet.places()[net.PlaceByName("orphan")].local_index, 0u);
}

TEST(CompiledNet, StructuralHashIgnoresNamesButNotStructure) {
  const PetriNet base = TwoChainNet("");
  const PetriNet renamed = TwoChainNet("x_");     // same structure, new names
  const PetriNet different = TwoChainNet("", 4);  // chain b delay 3 -> 4
  const CompiledNet c_base(&base);
  const CompiledNet c_renamed(&renamed);
  const CompiledNet c_diff(&different);

  EXPECT_NE(c_base.structural_hash(), 0u);
  EXPECT_EQ(c_base.structural_hash(), c_renamed.structural_hash());
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(c_base.component_hash(c), c_renamed.component_hash(c)) << "component " << c;
  }
  // Only chain b changed, so only its component hash moves.
  EXPECT_EQ(c_base.component_hash(0), c_diff.component_hash(0));
  EXPECT_NE(c_base.component_hash(1), c_diff.component_hash(1));
  EXPECT_EQ(c_base.component_hash(2), c_diff.component_hash(2));
  EXPECT_NE(c_base.structural_hash(), c_diff.structural_hash());
}

TEST(PetriSim, ComponentRestrictedRunMatchesFullRun) {
  const PetriNet net = TwoChainNet("");
  const CompiledNet cnet(&net);
  const PlaceId a_in = net.PlaceByName("a_in");
  const PlaceId a_out = net.PlaceByName("a_out");
  const PlaceId b_in = net.PlaceByName("b_in");
  const PlaceId b_out = net.PlaceByName("b_out");

  PetriSim full(&cnet);
  full.Observe(a_out);
  full.Observe(b_out);
  for (int i = 0; i < 3; ++i) {
    full.Inject(a_in, Token{});
  }
  for (int i = 0; i < 5; ++i) {
    full.Inject(b_in, Token{});
  }
  ASSERT_TRUE(full.Run(100000));

  PetriSim only_a(&cnet, 0);
  only_a.Observe(a_out);
  only_a.Observe(b_out);
  for (int i = 0; i < 3; ++i) {
    only_a.Inject(a_in, Token{});
  }
  // Tokens for the other component sit inert: its transitions are excluded.
  for (int i = 0; i < 5; ++i) {
    only_a.Inject(b_in, Token{});
  }
  ASSERT_TRUE(only_a.Run(100000));
  ASSERT_EQ(only_a.arrivals(a_out).size(), 3u);
  EXPECT_EQ(only_a.arrivals(b_out).size(), 0u);
  EXPECT_EQ(only_a.tokens_at(b_in), 5u);

  PetriSim only_b(&cnet, 1);
  only_b.Observe(b_out);
  for (int i = 0; i < 5; ++i) {
    only_b.Inject(b_in, Token{});
  }
  ASSERT_TRUE(only_b.Run(100000));
  ASSERT_EQ(only_b.arrivals(b_out).size(), 5u);

  // Per-arrival times and total work match the interleaved full run.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(only_a.arrivals(a_out)[i].time, full.arrivals(a_out)[i].time);
  }
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(only_b.arrivals(b_out)[i].time, full.arrivals(b_out)[i].time);
  }
  EXPECT_EQ(only_a.total_firings() + only_b.total_firings(), full.total_firings());
  EXPECT_EQ(std::max(only_a.now(), only_b.now()), full.now());
}

// Regression: the firing-budget clean stop must pin an instant event on the
// trace timeline (it is the difference between "the net quiesced" and "the
// service gave up on a pathological net").
TEST(PetriSim, BudgetStopEmitsTraceInstant) {
  PetriNet net;
  const PlaceId loop = net.AddPlace("loop", 0, 1);
  net.AddTransition(ExprTransition(net, "spin", {{loop, 1}}, {{loop, 1}}, "0"));

  obs::Tracer& tracer = obs::Tracer::Global();
  obs::TracerOptions options;
  options.sample_every = 1;  // instants are sampled; record all of them
  tracer.Start(options);
  PetriSim sim(&net);
  sim.set_max_firings(25);
  EXPECT_FALSE(sim.Run(1000));
  EXPECT_TRUE(sim.firing_budget_exhausted());
  tracer.Stop();

  const std::string json = tracer.ExportChromeJson();
  EXPECT_NE(json.find("budget_exhausted"), std::string::npos)
      << "budget stop must emit a pnet/budget_exhausted instant";
}

// ---------------------------------------------------------------------------
// Component model keys (ComponentQuery, src/petri/distill.h).

// The model key of `component` under `plan`, as the derived tier sees it.
std::string ModelKey(const CompiledNet& cnet, std::size_t component, const Token& token,
                     const std::vector<std::pair<PlaceId, int>>& plan) {
  ComponentQuery query(cnet, token, plan);
  query.Select(component);
  return query.model_key();
}

TEST(ComponentQuery, KeyMergesAndCanonicalizesInjections) {
  const PetriNet net = TwoChainNet("");
  const CompiledNet cnet(&net);
  const PlaceId b_in = net.PlaceByName("b_in");
  const PlaceId b_mid = net.PlaceByName("b_mid");
  const PlaceId a_in = net.PlaceByName("a_in");

  Token token;
  const std::string key = ModelKey(cnet, 1, token, {{b_in, 2}, {b_mid, 1}, {b_in, 3}});
  ASSERT_FALSE(key.empty());
  // Reordered and duplicate-merged plans key identically; injections into
  // other components are irrelevant to this component's key.
  EXPECT_EQ(key, ModelKey(cnet, 1, token, {{b_mid, 1}, {b_in, 5}}));
  EXPECT_EQ(key, ModelKey(cnet, 1, token, {{a_in, 7}, {b_in, 5}, {b_mid, 1}}));
  EXPECT_NE(key, ModelKey(cnet, 1, token, {{b_in, 4}, {b_mid, 1}}));
  // The same plan keys other components differently (component hash).
  const std::vector<std::pair<PlaceId, int>> plan = {{b_mid, 1}, {b_in, 5}};
  const std::string other = ModelKey(cnet, 0, token, plan);
  EXPECT_NE(key, other);
  // One query re-pointed across components rebuilds its key in place.
  ComponentQuery query(cnet, token, plan);
  for (const std::size_t component : {1, 0, 1}) {
    query.Select(component);
    EXPECT_EQ(query.model_key(), component == 1 ? key : other) << component;
  }
}

// The key's bytes: the component hash as 16 hex digits, then per injected
// place "\x1f@<local index>:<count>", the count summed without overflow.
TEST(ComponentQuery, KeyBytesArePinned) {
  const PetriNet net = TwoChainNet("");
  const CompiledNet cnet(&net);
  const PlaceId b_in = net.PlaceByName("b_in");
  const PlaceId b_mid = net.PlaceByName("b_mid");
  Token token;
  EXPECT_EQ(ModelKey(cnet, 1, token, {{b_mid, 1}, {b_in, 5}}),
            "f2d57ecd8ca6328f\x1f@0:5\x1f@1:1");
  EXPECT_EQ(ModelKey(cnet, 1, token, {{b_in, INT_MAX}, {b_in, INT_MAX}, {b_mid, 10}}),
            "f2d57ecd8ca6328f\x1f@0:4294967294\x1f@1:10");
  // A hash with leading zero digits.
  const PetriNet slow = TwoChainNet("", 48);
  const CompiledNet slow_cnet(&slow);
  EXPECT_EQ(ModelKey(slow_cnet, 1, token, {{slow.PlaceByName("b_in"), 3}}),
            "08560061648c5ff4\x1f@0:3");
}

// The model key names a derived model, whose inputs are the attributes:
// queries that differ only in their attributes share one key, whatever
// the values, and the key never spells an attribute name or value.
TEST(ComponentQuery, AttributesNeverEnterTheModelKey) {
  const LoadedNet loaded = LoadPnet(
      "net affine\n"
      "attr xattr\n"
      "attr yattr\n"
      "place in\n"
      "place out\n"
      "trans t in=in out=out delay=\"100 + 3 * xattr + 7 * yattr\"\n");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet compiled(loaded.net.get());

  const std::vector<std::pair<PlaceId, int>> plan = {{loaded.net->PlaceByName("in"), 3}};
  Token zero;
  zero.attrs = {0.0, 0.0};
  const std::string key = ModelKey(compiled, 0, zero, plan);
  ASSERT_FALSE(key.empty());
  for (const auto& [x, y] : std::vector<std::pair<double, double>>{
           {1.0, 2.0}, {9.0, 4.0}, {-0.5, 1e300}, {0.125, 0.0}}) {
    Token token;
    token.attrs = {x, y};
    EXPECT_EQ(ModelKey(compiled, 0, token, plan), key) << x << "," << y;
  }
  EXPECT_EQ(key.find("xattr"), std::string::npos) << key;
  EXPECT_EQ(key.find("yattr"), std::string::npos) << key;
  EXPECT_EQ(key.find('.'), std::string::npos) << key;  // no formatted value
}

}  // namespace
}  // namespace perfiface
