// Edge-case coverage for the Petri-net engine beyond the happy paths of
// petri_test.cc: multi-weight arcs, competing transitions, zero delays,
// token provenance, and failure modes.
#include <gtest/gtest.h>

#include "src/petri/analysis.h"
#include "src/petri/net.h"
#include "src/petri/sim.h"
#include "tests/net_builder.h"

namespace perfiface {
namespace {

using testing::ExprTransition;

TEST(PetriEdge, MultiWeightInputConsumesInFifoOrder) {
  PetriNet net;
  net.RegisterAttr("v");
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  // Consumes pairs; delay = first (older, primary) token's value.
  net.AddTransition(ExprTransition(net, "pair", {{in, 2}}, {{out, 1}}, "v"));
  PetriSim sim(&net);
  sim.Observe(out);
  for (double v : {10.0, 99.0, 20.0, 99.0}) {
    Token t;
    t.attrs = {v};
    sim.Inject(in, t);
  }
  ASSERT_TRUE(sim.Run(1000));
  ASSERT_EQ(sim.arrivals(out).size(), 2u);
  EXPECT_EQ(sim.arrivals(out)[0].time, 10u);        // pair (10, 99)
  EXPECT_EQ(sim.arrivals(out)[1].time, 10u + 20u);  // pair (20, 99)
}

TEST(PetriEdge, MultiOutputWeightsDepositAllCopies) {
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "dup", {{in, 1}}, {{out, 3}}, "5"));
  PetriSim sim(&net);
  sim.Observe(out);
  sim.Inject(in, Token{});
  ASSERT_TRUE(sim.Run(100));
  EXPECT_EQ(sim.arrivals(out).size(), 3u);
}

TEST(PetriEdge, CompetingUnguardedTransitionsAlternateDeterministically) {
  // Two transitions share an input place without guards: firing order is
  // id-order, re-armed as servers free up — and must be reproducible.
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId a = net.AddPlace("a");
  const PlaceId b = net.AddPlace("b");
  net.AddTransition(ExprTransition(net, "ta", {{in, 1}}, {{a, 1}}, "10"));
  net.AddTransition(ExprTransition(net, "tb", {{in, 1}}, {{b, 1}}, "10"));

  auto run = [&] {
    PetriSim sim(&net);
    sim.Observe(a);
    sim.Observe(b);
    for (int i = 0; i < 6; ++i) {
      sim.Inject(in, Token{});
    }
    EXPECT_TRUE(sim.Run(1000));
    return std::make_pair(sim.arrivals(a).size(), sim.arrivals(b).size());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.first + first.second, 6u);
  EXPECT_GT(first.first, 0u);  // both make progress (they run in parallel)
  EXPECT_GT(first.second, 0u);
}

TEST(PetriEdge, ZeroDelayChainsCompleteInOneInstant) {
  PetriNet net;
  const PlaceId p0 = net.AddPlace("p0");
  const PlaceId p1 = net.AddPlace("p1");
  const PlaceId p2 = net.AddPlace("p2");
  net.AddTransition(ExprTransition(net, "t0", {{p0, 1}}, {{p1, 1}}, "0"));
  net.AddTransition(ExprTransition(net, "t1", {{p1, 1}}, {{p2, 1}}, "0"));
  PetriSim sim(&net);
  sim.Observe(p2);
  sim.Inject(p0, Token{});
  ASSERT_TRUE(sim.Run(10));
  ASSERT_EQ(sim.arrivals(p2).size(), 1u);
  EXPECT_EQ(sim.arrivals(p2)[0].time, 0u);
}

TEST(PetriEdge, FiringBudgetStopsRunawayLoopCleanly) {
  // A self-regenerating zero-delay loop must hit the firing budget and
  // stop — a clean failure, not an abort, so a service evaluating an
  // untrusted net can reject it and keep running.
  PetriNet net;
  const PlaceId p = net.AddPlace("p", 0, 1);
  net.AddTransition(ExprTransition(net, "loop", {{p, 1}}, {{p, 1}}, "0"));
  PetriSim sim(&net);
  sim.set_max_firings(1000);
  EXPECT_FALSE(sim.Run(100));
  EXPECT_TRUE(sim.firing_budget_exhausted());
  EXPECT_LE(sim.total_firings(), 1000u);

  // Reset clears the exhaustion latch and the sim is usable again.
  sim.Reset();
  EXPECT_FALSE(sim.firing_budget_exhausted());
}

TEST(PetriEdge, InjectionStampSurvivesMultipleHops) {
  PetriNet net;
  const PlaceId p0 = net.AddPlace("p0");
  const PlaceId p1 = net.AddPlace("p1");
  const PlaceId p2 = net.AddPlace("p2");
  net.AddTransition(ExprTransition(net, "t0", {{p0, 1}}, {{p1, 1}}, "7"));
  net.AddTransition(ExprTransition(net, "t1", {{p1, 1}}, {{p2, 1}}, "9"));
  PetriSim sim(&net);
  sim.Observe(p2);
  sim.Inject(p0, Token{});
  ASSERT_TRUE(sim.Run(100));
  EXPECT_EQ(ArrivalLatency(sim, p2, 0), 16u);
}

TEST(PetriEdge, SelfLoopOnBoundedPlaceDoesNotDeadlock) {
  // A mutex pattern: the transition consumes and re-deposits into a cap-1
  // place; capacity accounting must net out the consumption.
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId mutex = net.AddPlace("mutex", 1, 1);
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(
      ExprTransition(net, "t", {{in, 1}, {mutex, 1}}, {{out, 1}, {mutex, 1}}, "4"));
  PetriSim sim(&net);
  sim.Observe(out);
  for (int i = 0; i < 5; ++i) {
    sim.Inject(in, Token{});
  }
  ASSERT_TRUE(sim.Run(1000));
  EXPECT_EQ(sim.arrivals(out).size(), 5u);
  EXPECT_EQ(sim.arrivals(out)[4].time, 20u);
}

TEST(PetriEdge, MultiServerWithCreditInteraction) {
  // 3 servers but only 2 credits: effective concurrency is 2.
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId credits = net.AddPlace("credits", 0, 2);
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(
      ExprTransition(net, "t", {{in, 1}, {credits, 1}}, {{out, 1}, {credits, 1}}, "10", 3));
  PetriSim sim(&net);
  sim.Observe(out);
  for (int i = 0; i < 4; ++i) {
    sim.Inject(in, Token{});
  }
  ASSERT_TRUE(sim.Run(1000));
  EXPECT_EQ(sim.arrivals(out)[1].time, 10u);
  EXPECT_EQ(sim.arrivals(out)[3].time, 20u);
}

TEST(PetriEdge, RunIsResumable) {
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition(ExprTransition(net, "t", {{in, 1}}, {{out, 1}}, "100"));
  PetriSim sim(&net);
  sim.Observe(out);
  sim.Inject(in, Token{});
  EXPECT_FALSE(sim.Run(50));  // stops mid-firing
  EXPECT_EQ(sim.now(), 50u);
  EXPECT_TRUE(sim.Run(1000));  // resumes and completes
  EXPECT_EQ(sim.arrivals(out)[0].time, 100u);
}

}  // namespace
}  // namespace perfiface
