// The derived tier's correctness contract (src/petri/distill.h): a
// distilled closed form must reproduce the simulator exactly — same
// quiesce time, same firing count — everywhere inside its probed hull,
// and must refuse everything else (attr-dependent guards, unhashable
// nets, out-of-hull queries, budget exhaustion), falling back to
// bit-identical simulation. These tests drive a local DerivedStore
// against the shipped jpeg interface and small hand-built nets.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnet.h"
#include "src/petri/compiled_net.h"
#include "src/petri/component_tier.h"
#include "src/petri/distill.h"
#include "src/petri/net.h"
#include "src/petri/sim.h"
#include "src/petri/token.h"

namespace perfiface {
namespace {

LoadedNet LoadShipped(const std::string& name) {
  return LoadPnetFile(std::string(PERFIFACE_SOURCE_DIR) + "/src/core/interfaces/" +
                      name + ".pnet");
}

Token JpegToken(double bits, double blocks) {
  Token tok;
  tok.attrs.push_back(bits);
  tok.attrs.push_back(blocks);
  return tok;
}

// The jpeg decode entry plan the serving layer uses: one header token,
// eight MCU tokens.
std::vector<std::pair<PlaceId, int>> JpegInjections(const PetriNet& net) {
  return {{net.PlaceByName("hdr_in"), 1}, {net.PlaceByName("vld_in"), 8}};
}

TEST(Distill, JpegDistillsAndMatchesSimulationAcrossTheHull) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  ASSERT_TRUE(cnet.hashable());
  ASSERT_EQ(cnet.num_components(), 1u);

  const auto injections = JpegInjections(*loaded.net);
  const Token seed = JpegToken(1000, 8);
  ComponentQuery query(cnet, seed, injections);
  query.Select(0);
  const std::string& key = query.model_key();
  ASSERT_FALSE(key.empty());
  DerivedStore store;
  ASSERT_TRUE(store.Distill(query)) << store.RefusalReason(key);
  EXPECT_EQ(store.distilled(), 1u);
  EXPECT_EQ(store.refusals(), 0u);

  // The rendered program is the paper's human-readable artifact.
  const std::string program = store.ProgramText(key);
  EXPECT_NE(program.find("fn latency"), std::string::npos) << program;
  EXPECT_NE(program.find("bits"), std::string::npos) << program;

  // Exactness everywhere inside the probed hull, including points no
  // probe visited: the closed form must equal a fresh simulation, cycle
  // for cycle, firing for firing.
  for (const double bits : {1000.0, 1100.0, 1250.0, 1600.0, 1999.0, 2000.0}) {
    for (const double blocks : {8.0, 9.0, 11.0, 13.0, 15.0, 16.0}) {
      const Token tok = JpegToken(bits, blocks);
      ComponentResult pred;
      ASSERT_EQ(store.Predict(key, tok, /*budget=*/1u << 30, &pred),
                DerivedStore::Outcome::kHit)
          << "bits=" << bits << " blocks=" << blocks;

      PetriSim sim(&cnet, 0);
      for (const auto& [place, count] : injections) {
        for (int i = 0; i < count; ++i) sim.Inject(place, tok);
      }
      ASSERT_TRUE(sim.Run(static_cast<Cycles>(1) << 40));
      EXPECT_EQ(pred.quiesce_time, sim.now())
          << "bits=" << bits << " blocks=" << blocks;
      EXPECT_EQ(pred.firings, sim.total_firings())
          << "bits=" << bits << " blocks=" << blocks;
    }
  }
  EXPECT_GT(store.hits(), 0u);
}

TEST(Distill, OutsideHullAndBudgetRefuseToServe) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const auto injections = JpegInjections(*loaded.net);
  const Token seed = JpegToken(1000, 8);
  ComponentQuery query(cnet, seed, injections);
  query.Select(0);
  const std::string& key = query.model_key();
  DerivedStore store;
  ASSERT_TRUE(store.Distill(query)) << store.RefusalReason(key);

  ComponentResult pred;
  // Outside the probed attribute range: refuse, never extrapolate.
  EXPECT_EQ(store.Predict(key, JpegToken(50000, 8), 1u << 30, &pred),
            DerivedStore::Outcome::kOutsideHull);
  EXPECT_EQ(store.Predict(key, JpegToken(1000, 4), 1u << 30, &pred),
            DerivedStore::Outcome::kOutsideHull);
  // A hit charges its firing count against the caller's budget exactly
  // like a memo hit; an exhausted budget refuses the same way the
  // simulator would have.
  EXPECT_EQ(store.Predict(key, JpegToken(1000, 8), /*budget=*/1, &pred),
            DerivedStore::Outcome::kBudget);
  // An unknown key reports kNoModel, not a refusal.
  EXPECT_EQ(store.Predict("no-such-key", JpegToken(1000, 8), 1u << 30, &pred),
            DerivedStore::Outcome::kNoModel);
}

// As a tier, the store distills on a key's first lookup and serves the
// closed form from then on; the first answer is already exact.
TEST(Distill, LookupDistillsOnFirstMissThenServes) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const auto injections = JpegInjections(*loaded.net);
  DerivedStore store;
  for (const double bits : {1000.0, 1500.0}) {
    const Token tok = JpegToken(bits, 8);
    ComponentQuery query(cnet, tok, injections);
    query.Select(0);
    ComponentResult got;
    ASSERT_TRUE(store.Lookup(query, /*budget=*/1u << 30, &got)) << "bits=" << bits;
    PetriSim sim(&cnet, 0);
    for (const auto& [place, count] : injections) {
      for (int i = 0; i < count; ++i) sim.Inject(place, tok);
    }
    ASSERT_TRUE(sim.Run(static_cast<Cycles>(1) << 40));
    EXPECT_EQ(got.quiesce_time, sim.now()) << "bits=" << bits;
    EXPECT_EQ(got.firings, sim.total_firings()) << "bits=" << bits;
  }
  EXPECT_EQ(store.distilled(), 1u);
  EXPECT_EQ(store.hits(), 2u);
}

TEST(Distill, AttrDependentGuardRefuses) {
  // A guard over a token attribute means data-dependent routing: the
  // firing pattern is not a fixed function of the injection plan, so the
  // distiller must refuse (the shipped conv/vta/protoacc nets all carry
  // such guards and are covered by the serving-layer tests).
  const char* src =
      "net guarded\n"
      "attr x\n"
      "place in\n"
      "place out\n"
      "trans t in=in out=out delay=\"5 + x\" guard=\"x > 2\"\n";
  const LoadedNet loaded = LoadPnet(src);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  ASSERT_TRUE(cnet.hashable());

  Token tok;
  tok.attrs.push_back(7);
  const std::vector<std::pair<PlaceId, int>> injections = {
      {loaded.net->PlaceByName("in"), 3}};
  ComponentQuery query(cnet, tok, injections);
  query.Select(0);
  const std::string& key = query.model_key();
  ASSERT_FALSE(key.empty());
  DerivedStore store;
  EXPECT_FALSE(store.Distill(query));
  EXPECT_EQ(store.distilled(), 0u);
  EXPECT_EQ(store.refusals(), 1u);
  EXPECT_NE(store.RefusalReason(key).find("guard"), std::string::npos)
      << store.RefusalReason(key);
  // The refusal is cached: probing again must not re-simulate or flip.
  EXPECT_FALSE(store.Distill(query));
  EXPECT_EQ(store.refusals(), 1u);
  ComponentResult pred;
  EXPECT_EQ(store.Predict(key, tok, 1u << 30, &pred), DerivedStore::Outcome::kRefused);
  EXPECT_FALSE(store.Lookup(query, 1u << 30, &pred));
}

TEST(Distill, UnhashableNetRefuses) {
  // An opaque C++ delay closure has no canonical text, so the net has no
  // structural hash, no key, and no derived model — same rule as the
  // memo layers.
  PetriNet net;
  const PlaceId in = net.AddPlace("in");
  const PlaceId out = net.AddPlace("out");
  net.AddTransition({"t",
                     {{in, 1}},
                     {{out, 1}},
                     1,
                     [](const TokenRefs&) -> Cycles { return 7; },
                     nullptr,
                     nullptr});
  const CompiledNet cnet(&net);
  ASSERT_FALSE(cnet.hashable());

  const std::vector<std::pair<PlaceId, int>> injections = {{in, 1}};
  const Token tok;
  ComponentQuery query(cnet, tok, injections);
  query.Select(0);
  EXPECT_TRUE(query.model_key().empty());
  DerivedStore store;
  EXPECT_FALSE(store.Distill(query));
  EXPECT_EQ(store.distilled(), 0u);
}

TEST(Distill, DistinctInjectionPlansGetDistinctModels) {
  // The firing multiplicities depend on how many tokens enter the
  // pipeline, so the injection plan is part of the model's identity.
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const std::vector<std::pair<PlaceId, int>> plan8 = JpegInjections(*loaded.net);
  const std::vector<std::pair<PlaceId, int>> plan4 = {
      {loaded.net->PlaceByName("hdr_in"), 1}, {loaded.net->PlaceByName("vld_in"), 4}};
  const Token seed = JpegToken(1000, 8);
  ComponentQuery q8(cnet, seed, plan8);
  ComponentQuery q4(cnet, seed, plan4);
  q8.Select(0);
  q4.Select(0);
  EXPECT_NE(q8.model_key(), q4.model_key());

  DerivedStore store;
  ASSERT_TRUE(store.Distill(q8));
  ASSERT_TRUE(store.Distill(q4));
  ComponentResult p8, p4;
  ASSERT_EQ(store.Predict(q8.model_key(), seed, 1u << 30, &p8), DerivedStore::Outcome::kHit);
  ASSERT_EQ(store.Predict(q4.model_key(), seed, 1u << 30, &p4), DerivedStore::Outcome::kHit);
  EXPECT_NE(p8.quiesce_time, p4.quiesce_time);
  EXPECT_NE(p8.firings, p4.firings);
}

}  // namespace
}  // namespace perfiface
