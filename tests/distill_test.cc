// The exact derived tier's serving contract (src/petri/distill.h): a
// compiled component answers exactly what simulation answers, and every
// edge the engine treats specially — the firing budget, the run horizon,
// expression errors, the model caps — refuses, so the service falls back
// to the simulation's own answer. The differential suite over many nets
// is tests/maxplus_diff_test.cc; these tests pin the edges on the shipped
// jpeg interface and small hand-built nets.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnet.h"
#include "src/core/registry.h"
#include "src/perfscript/compile.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/vm.h"
#include "src/petri/compiled_net.h"
#include "src/petri/distill.h"
#include "src/petri/net.h"
#include "src/petri/sim.h"
#include "src/petri/token.h"
#include "src/serve/service.h"

namespace perfiface {
namespace {

using Outcome = DerivedStore::Outcome;
using Plan = std::vector<std::pair<PlaceId, int>>;

constexpr std::uint64_t kBudget = 1u << 30;

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

Plan JpegPlan(const PetriNet& net, int stripes) {
  return {{net.PlaceByName("hdr_in"), 1}, {net.PlaceByName("vld_in"), stripes}};
}

ComponentResult Simulate(const CompiledNet& cnet, const Plan& plan, const Token& tok) {
  PetriSim sim(&cnet, 0);
  sim.InjectPlan(plan, tok);
  EXPECT_TRUE(sim.Run(kComponentRunHorizon));
  return {sim.now(), sim.total_firings()};
}

serve::PredictRequest JpegRequest(const std::string& plan,
                                  std::vector<std::pair<std::string, double>> attrs) {
  serve::PredictRequest req;
  req.interface = "jpeg_decoder";
  req.representation = serve::Representation::kPnet;
  req.entry_place = plan;
  req.attrs = std::move(attrs);
  req.explain = true;
  return req;
}

// One service with the component tiers, one that always simulates.
struct Services {
  Services() : tiers(InterfaceRegistry::Default(), Options(true)),
               sim(InterfaceRegistry::Default(), Options(false)) {}
  static serve::ServiceOptions Options(bool tiers_on) {
    serve::ServiceOptions options;
    options.num_workers = 1;
    options.cache_capacity = 0;
    options.enable_pnet_memo = tiers_on;
    return options;
  }
  const DerivedStore& derived() const { return *tiers.derived_store(); }
  serve::PredictionService tiers;
  serve::PredictionService sim;
};

void ExpectSameAnswer(const serve::PredictResponse& got, const serve::PredictResponse& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.value, want.value);
}

TEST(Distill, JpegCompilesOnFirstLookupAndMatchesSimulationEverywhere) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  ASSERT_EQ(cnet.num_components(), 1u);
  const Plan plan = JpegPlan(*loaded.net, 8);
  DerivedStore store;
  // No hull: the model compiled at bits=1000 answers six orders of
  // magnitude away, cycle for cycle and firing for firing.
  for (const double bits : {1000.0, 1.0, 64.0, 1999.0, 50000.0, 262144.0, 1048576.0}) {
    for (const double blocks : {1.0, 4.0, 8.0, 16.0}) {
      const Token tok = JpegToken(bits, blocks);
      ComponentQuery query(cnet, tok, plan);
      query.Select(0);
      ComponentResult got;
      ASSERT_EQ(store.Predict(query, kBudget, &got), Outcome::kHit)
          << "bits=" << bits << " blocks=" << blocks << ": " << store.RefusalReason(query);
      const ComponentResult want = Simulate(cnet, plan, tok);
      EXPECT_EQ(got.quiesce_time, want.quiesce_time) << "bits=" << bits << " blocks=" << blocks;
      EXPECT_EQ(got.firings, want.firings) << "bits=" << bits << " blocks=" << blocks;
    }
  }
  EXPECT_EQ(store.distilled(), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.refusals(), 0u);
  EXPECT_EQ(store.hits(), 28u);
}

// firings == remaining budget: the simulation reports exhaustion at
// exactly the budget, so the tier refuses and the service answers what a
// tier-less service answers.
TEST(Distill, BudgetEqualToTheFiringCountRefuses) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const Plan plan = JpegPlan(*loaded.net, 32);
  const Token tok = JpegToken(5000, 8);
  ComponentQuery query(cnet, tok, plan);
  query.Select(0);
  DerivedStore store;
  ComponentResult got;
  ASSERT_EQ(store.Predict(query, kBudget, &got), Outcome::kHit);
  ASSERT_EQ(got.firings, 97u);
  EXPECT_EQ(store.Predict(query, 97, &got), Outcome::kBudget);
  EXPECT_EQ(store.Predict(query, 98, &got), Outcome::kHit);

  Services services;
  serve::PredictRequest req = JpegRequest("hdr_in:1,vld_in:32", {{"bits", 5000}, {"blocks", 8}});
  ASSERT_EQ(services.tiers.Predict(req).explain.representation, "pnet-derived");
  req.max_steps = 97;
  const serve::PredictResponse at_budget = services.tiers.Predict(req);
  EXPECT_EQ(at_budget.status, serve::PredictStatus::kResourceExhausted);
  ExpectSameAnswer(at_budget, services.sim.Predict(req));
  req.max_steps = 98;
  const serve::PredictResponse above = services.tiers.Predict(req);
  EXPECT_EQ(above.explain.representation, "pnet-derived");
  ExpectSameAnswer(above, services.sim.Predict(req));
}

// bits=1e-7 makes one vld delay ~7e12 cycles: inside the delay range, past
// the 2^40 run horizon. Whether the model already exists or the request is
// the key's first, the service answers as simulation does.
TEST(Distill, CompletionPastTheHorizonFallsBackToSimulation) {
  const serve::PredictRequest normal =
      JpegRequest("hdr_in:1,vld_in:8", {{"bits", 5000}, {"blocks", 8}});
  const serve::PredictRequest slow =
      JpegRequest("hdr_in:1,vld_in:8", {{"bits", 1e-7}, {"blocks", 8}});
  for (const bool compiled_first : {true, false}) {
    Services services;
    if (compiled_first) {
      ASSERT_EQ(services.tiers.Predict(normal).explain.representation, "pnet-derived");
    }
    const serve::PredictResponse got = services.tiers.Predict(slow);
    EXPECT_EQ(got.status, serve::PredictStatus::kResourceExhausted);
    EXPECT_EQ(got.error, "net did not quiesce within the time horizon");
    ExpectSameAnswer(got, services.sim.Predict(slow));
    // Nothing about the failed run is kept.
    EXPECT_EQ(services.derived().size(), compiled_first ? 1u : 0u);
    EXPECT_EQ(services.tiers.Predict(normal).explain.representation, "pnet-derived");
  }
}

// Zero attributes divide by zero in the vld delay; negative bits leave
// [0, 1e15). Both answer the simulation's ERROR, and nothing is stored.
TEST(Distill, ExpressionErrorsAnswerTheSimulationsErrorAndKeepNothing) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const Plan plan = JpegPlan(*loaded.net, 8);
  DerivedStore store;
  for (const Token& tok : {JpegToken(0, 0), JpegToken(-8000, 8)}) {
    ComponentQuery query(cnet, tok, plan);
    query.Select(0);
    ComponentResult got;
    EXPECT_EQ(store.Predict(query, kBudget, &got), Outcome::kEvalFailed);
    EXPECT_EQ(store.size(), 0u);
  }
  // After a model exists, the same requests still refuse per request.
  const Token good = JpegToken(5000, 8);
  ComponentQuery query(cnet, good, plan);
  query.Select(0);
  ComponentResult got;
  ASSERT_EQ(store.Predict(query, kBudget, &got), Outcome::kHit);
  const Token negative = JpegToken(-8000, 8);
  ComponentQuery bad(cnet, negative, plan);
  bad.Select(0);
  EXPECT_EQ(store.Predict(bad, kBudget, &got), Outcome::kEvalFailed);
  EXPECT_EQ(store.size(), 1u);

  Services services;
  for (const auto& req :
       {JpegRequest("hdr_in:1,vld_in:1", {}),
        JpegRequest("hdr_in:1,vld_in:8", {{"bits", -8000}, {"blocks", 8}})}) {
    const serve::PredictResponse want = services.sim.Predict(req);
    ASSERT_EQ(want.status, serve::PredictStatus::kError);
    EXPECT_EQ(want.error.rfind("transition 'vld': delay: ", 0), 0u) << want.error;
    ExpectSameAnswer(services.tiers.Predict(req), want);
    EXPECT_EQ(services.derived().size(), 0u);
  }
}

TEST(Distill, PerModelFiringCapRefusesAndTheRefusalIsCached) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  // Three firings per stripe plus the header: past kMaxModelFirings.
  const int stripes = static_cast<int>(DerivedStore::kMaxModelFirings / 3 + 1);
  const Plan plan = JpegPlan(*loaded.net, stripes);
  const Token tok = JpegToken(5000, 8);
  ComponentQuery query(cnet, tok, plan);
  query.Select(0);
  DerivedStore store;
  ComponentResult got;
  EXPECT_EQ(store.Predict(query, kBudget, &got), Outcome::kRefused);
  EXPECT_NE(store.RefusalReason(query).find("more than 16384 firings"), std::string::npos)
      << store.RefusalReason(query);
  EXPECT_EQ(store.Predict(query, kBudget, &got), Outcome::kRefused);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.distilled(), 0u);
  EXPECT_EQ(store.refusals(), 2u);
}

TEST(Distill, PerStoreCapRefusesNewKeysWithoutCompiling) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const Token tok = JpegToken(5000, 8);
  DerivedStore store(/*max_models=*/1);
  const Plan first = JpegPlan(*loaded.net, 8);
  const Plan second = JpegPlan(*loaded.net, 4);
  ComponentQuery q1(cnet, tok, first), q2(cnet, tok, second);
  q1.Select(0);
  q2.Select(0);
  ComponentResult got;
  ASSERT_EQ(store.Predict(q1, kBudget, &got), Outcome::kHit);
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_EQ(store.Predict(q2, kBudget, &got), Outcome::kFull);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.RefusalReason(q2).empty());
  }
  EXPECT_EQ(store.distilled(), 1u);
  EXPECT_EQ(store.refusals(), 2u);
  EXPECT_EQ(store.Predict(q1, kBudget, &got), Outcome::kHit);
}

// The rendered recurrence is a PerfScript program: run through the
// bytecode VM it reproduces the tier's answers.
TEST(Distill, ProgramTextRunsOnTheVmAndReproducesTheTier) {
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const Plan plan = JpegPlan(*loaded.net, 8);
  DerivedStore store;
  const Token seed = JpegToken(1000, 8);
  ComponentQuery query(cnet, seed, plan);
  query.Select(0);
  ComponentResult got;
  ASSERT_EQ(store.Predict(query, kBudget, &got), Outcome::kHit);
  const std::string program = store.ProgramText(query);
  ASSERT_NE(program.find("def latency(bits, blocks):"), std::string::npos) << program;

  ParseResult parsed = ParseProgram(program);
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << program;
  const CompileProgramResult compiled = CompileProgram(parsed.program, {});
  ASSERT_TRUE(compiled.ok()) << compiled.error << "\n" << program;
  Vm vm(compiled.program);
  for (const auto& [bits, blocks] : std::vector<std::pair<double, double>>{
           {1000, 8}, {64, 1}, {4096, 3}, {262144, 16}, {1048576, 8}}) {
    const Token tok = JpegToken(bits, blocks);
    ComponentQuery q(cnet, tok, plan);
    q.Select(0);
    ASSERT_EQ(store.Predict(q, kBudget, &got), Outcome::kHit);
    const EvalResult r = vm.Call("latency", {Value::Number(bits), Value::Number(blocks)});
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.num, static_cast<double>(got.quiesce_time))
        << "bits=" << bits << " blocks=" << blocks;
  }
}

// An attribute-dependent guard is a per-request constant: each outcome
// vector keys its own model, and both are exact.
TEST(Distill, AttrDependentGuardsKeyTheirOwnModels) {
  const LoadedNet loaded = LoadPnet(
      "net guarded\n"
      "attr x\n"
      "place in\n"
      "place out\n"
      "trans t in=in out=out delay=\"5 + x\" guard=\"x > 2\"\n");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const Plan plan = {{loaded.net->PlaceByName("in"), 3}};
  DerivedStore store;
  for (const double x : {7.0, 1.0, 9.0, 0.5}) {
    Token tok;
    tok.attrs.push_back(x);
    ComponentQuery query(cnet, tok, plan);
    query.Select(0);
    ComponentResult got;
    ASSERT_EQ(store.Predict(query, kBudget, &got), Outcome::kHit) << "x=" << x;
    const ComponentResult want = Simulate(cnet, plan, tok);
    EXPECT_EQ(got.quiesce_time, want.quiesce_time) << "x=" << x;
    EXPECT_EQ(got.firings, want.firings) << "x=" << x;
    EXPECT_EQ(got.firings, x > 2 ? 3u : 0u);
  }
  EXPECT_EQ(store.distilled(), 2u);
}

TEST(Distill, DistinctInjectionPlansGetDistinctModels) {
  // The firing DAG depends on how many tokens enter the pipeline, so the
  // injection plan is part of the model's identity.
  const LoadedNet loaded = LoadShipped("jpeg");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet cnet(loaded.net.get());
  const Token seed = JpegToken(1000, 8);
  const Plan plan8 = JpegPlan(*loaded.net, 8);
  const Plan plan4 = JpegPlan(*loaded.net, 4);
  ComponentQuery q8(cnet, seed, plan8);
  ComponentQuery q4(cnet, seed, plan4);
  q8.Select(0);
  q4.Select(0);
  EXPECT_NE(q8.model_key(), q4.model_key());
  DerivedStore store;
  ComponentResult p8, p4;
  ASSERT_EQ(store.Predict(q8, kBudget, &p8), Outcome::kHit);
  ASSERT_EQ(store.Predict(q4, kBudget, &p4), Outcome::kHit);
  EXPECT_NE(p8.quiesce_time, p4.quiesce_time);
  EXPECT_NE(p8.firings, p4.firings);
  EXPECT_EQ(store.distilled(), 2u);
}

}  // namespace
}  // namespace perfiface
