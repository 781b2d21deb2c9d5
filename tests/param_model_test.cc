// Tests for the parametric memoization store (src/petri/param_model.h):
// the affine/quadratic recovery property the serving gate relies on, every
// refusal gate, fixed-memory behavior, and concurrent fit+lookup (this
// binary joins serve_test in the ThreadSanitizer CI job).
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnet.h"
#include "src/petri/compiled_net.h"
#include "src/petri/net.h"
#include "src/petri/component_tier.h"
#include "src/petri/param_model.h"
#include "src/petri/sim.h"

namespace perfiface {
namespace {

// One simulated run of a single-transition net: inject a token carrying
// (x, y), run to quiescence, report the arrival time and firing count.
struct SimResult {
  double quiesce_time = 0;
  std::uint64_t firings = 0;
};

SimResult Simulate(const LoadedNet& loaded, double x, double y) {
  PetriSim sim(loaded.net.get());
  const PlaceId out = loaded.net->PlaceByName("out");
  sim.Observe(out);
  Token token;
  token.attrs.assign(loaded.net->attr_names().size(), 0.0);
  token.attrs[loaded.net->FindAttr("x")] = x;
  token.attrs[loaded.net->FindAttr("y")] = y;
  sim.Inject(loaded.net->PlaceByName("in"), token);
  EXPECT_TRUE(sim.Run(1'000'000'000));
  SimResult r;
  r.quiesce_time = static_cast<double>(sim.arrivals(out).back().time);
  r.firings = sim.total_firings();
  return r;
}

constexpr const char* kAffineNet =
    "net affine\n"
    "attr x\n"
    "attr y\n"
    "place in\n"
    "place out\n"
    "trans t in=in out=out delay=\"100 + 3 * x + 7 * y\"\n";

// The tentpole property: a delay that *is* affine in the attributes is
// recovered by the fit so precisely that an interpolated answer equals the
// simulated one within 1e-9 — at query points the fitter never saw.
TEST(ParamModel, AffineRecoveryMatchesSimulation) {
  const LoadedNet loaded = LoadPnet(kAffineNet);
  ASSERT_TRUE(loaded.ok()) << loaded.error;

  ParamModelStore store(ParamGate{/*min_samples=*/16, /*max_rel_err=*/0.02});
  const std::string key = "affine-demo";
  // Observe an even-coordinate grid; query odd coordinates inside it, so
  // every checked point is a genuine near-miss, not a replay. Several
  // passes: the residual ring judges the *recent* prequential errors, and
  // the earliest ones (scored while the design was still rank-deficient)
  // must age out, exactly as they do under live traffic.
  for (int pass = 0; pass < 3; ++pass) {
    for (int x = 0; x <= 10; x += 2) {
      for (int y = 0; y <= 10; y += 2) {
        const SimResult r = Simulate(loaded, x, y);
        store.Observe(key, {static_cast<double>(x), static_cast<double>(y)}, r.quiesce_time,
                      r.firings);
      }
    }
  }

  for (int x = 1; x <= 9; x += 2) {
    for (int y = 1; y <= 9; y += 2) {
      const SimResult truth = Simulate(loaded, x, y);
      double quiesce_time = 0;
      std::uint64_t firings = 0;
      ASSERT_EQ(store.Predict(key, {static_cast<double>(x), static_cast<double>(y)},
                              /*budget=*/1000, &quiesce_time, &firings),
                ParamModelStore::Outcome::kHit)
          << "x=" << x << " y=" << y;
      EXPECT_NEAR(quiesce_time, truth.quiesce_time, 1e-9 * truth.quiesce_time);
      // Conservative budget charge: the max firing count ever observed.
      EXPECT_EQ(firings, truth.firings);
    }
  }
  EXPECT_GT(store.hits(), 0u);
  EXPECT_EQ(store.refused_hull(), 0u);
  EXPECT_EQ(store.refused_residual(), 0u);
}

// Pairwise products are in the feature basis, so an interaction term is
// recovered exactly too.
TEST(ParamModel, QuadraticRecovery) {
  ParamModelStore store(ParamGate{16, 0.02});
  const std::string key = "quad";
  const auto f = [](double x, double y) { return 2.0 + 0.5 * x * x + 3.0 * x * y; };
  for (int pass = 0; pass < 3; ++pass) {
    for (int x = 1; x <= 8; ++x) {
      for (int y = 1; y <= 8; ++y) {
        store.Observe(key, {static_cast<double>(x), static_cast<double>(y)}, f(x, y), 1);
      }
    }
  }
  double quiesce_time = 0;
  std::uint64_t firings = 0;
  ASSERT_EQ(store.Predict(key, {3.5, 6.5}, 100, &quiesce_time, &firings),
            ParamModelStore::Outcome::kHit);
  EXPECT_NEAR(quiesce_time, f(3.5, 6.5), 1e-9 * f(3.5, 6.5));
}

TEST(ParamModel, GateRefusesUnknownKeyAndEmptyKey) {
  ParamModelStore store;
  double quiesce_time = 0;
  std::uint64_t firings = 0;
  EXPECT_EQ(store.Predict("missing", {1.0}, 100, &quiesce_time, &firings),
            ParamModelStore::Outcome::kNoModel);
  store.Observe("", {1.0}, 10.0, 1);  // empty key (unhashable net): no-op
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Predict("", {1.0}, 100, &quiesce_time, &firings),
            ParamModelStore::Outcome::kNoModel);
}

TEST(ParamModel, GateRefusesFewSamples) {
  ParamModelStore store(ParamGate{/*min_samples=*/32, 0.02});
  for (int i = 0; i < 10; ++i) {
    store.Observe("k", {static_cast<double>(i)}, 5.0 + i, 1);
  }
  double quiesce_time = 0;
  std::uint64_t firings = 0;
  EXPECT_EQ(store.Predict("k", {4.0}, 100, &quiesce_time, &firings),
            ParamModelStore::Outcome::kFewSamples);
}

TEST(ParamModel, GateRefusesOutsideHull) {
  ParamModelStore store(ParamGate{16, 0.02});
  for (int i = 0; i <= 40; ++i) {
    store.Observe("k", {static_cast<double>(i)}, 5.0 + 2.0 * i, 1);
  }
  double quiesce_time = 0;
  std::uint64_t firings = 0;
  // Inside the hull: served. Outside (either side): refused, never
  // extrapolated — even though the fit itself would be exact here.
  EXPECT_EQ(store.Predict("k", {20.5}, 100, &quiesce_time, &firings),
            ParamModelStore::Outcome::kHit);
  EXPECT_EQ(store.Predict("k", {-1.0}, 100, &quiesce_time, &firings),
            ParamModelStore::Outcome::kOutsideHull);
  EXPECT_EQ(store.Predict("k", {41.0}, 100, &quiesce_time, &firings),
            ParamModelStore::Outcome::kOutsideHull);
  EXPECT_EQ(store.refused_hull(), 2u);
}

TEST(ParamModel, GateRefusesHighResidual) {
  ParamModelStore store(ParamGate{16, /*max_rel_err=*/1e-4});
  // A cubic is outside the quadratic feature basis: prequential residuals
  // stay high, so the gate must keep refusing at a tight threshold.
  for (int i = 1; i <= 60; ++i) {
    const double x = static_cast<double>(i);
    store.Observe("k", {x}, x * x * x, 1);
  }
  double quiesce_time = 0;
  std::uint64_t firings = 0;
  EXPECT_EQ(store.Predict("k", {30.5}, 1000, &quiesce_time, &firings),
            ParamModelStore::Outcome::kResidual);
  EXPECT_GT(store.refused_residual(), 0u);
}

TEST(ParamModel, GateRefusesWhenBudgetWouldBeExhausted) {
  ParamModelStore store(ParamGate{16, 0.02});
  for (int i = 0; i <= 40; ++i) {
    store.Observe("k", {static_cast<double>(i)}, 5.0 + 2.0 * i, /*firings=*/25);
  }
  double quiesce_time = 0;
  std::uint64_t firings = 0;
  // Mirrors the exact memo rule (firings < budget, strictly).
  EXPECT_EQ(store.Predict("k", {20.0}, /*budget=*/25, &quiesce_time, &firings),
            ParamModelStore::Outcome::kBudget);
  ASSERT_EQ(store.Predict("k", {20.0}, /*budget=*/26, &quiesce_time, &firings),
            ParamModelStore::Outcome::kHit);
  EXPECT_EQ(firings, 25u);
}

TEST(ParamModel, ArityChangeNeverPoisonsTheModel) {
  ParamModelStore store(ParamGate{16, 0.02});
  for (int i = 0; i <= 40; ++i) {
    store.Observe("k", {static_cast<double>(i)}, 5.0 + 2.0 * i, 1);
  }
  const std::uint64_t fits_before = store.fits();
  store.Observe("k", {1.0, 2.0}, 99.0, 1);  // wrong arity: dropped
  EXPECT_EQ(store.fits(), fits_before);
  double quiesce_time = 0;
  std::uint64_t firings = 0;
  EXPECT_EQ(store.Predict("k", {1.0, 2.0}, 100, &quiesce_time, &firings),
            ParamModelStore::Outcome::kNoModel);
  EXPECT_EQ(store.Predict("k", {20.0}, 100, &quiesce_time, &firings),
            ParamModelStore::Outcome::kHit);
}

TEST(ParamModel, FixedMemoryNeverGrowsPastMaxModels) {
  ParamModelStore store(ParamGate{}, /*max_models=*/2, /*num_shards=*/1);
  store.Observe("a", {1.0}, 1.0, 1);
  store.Observe("b", {1.0}, 1.0, 1);
  store.Observe("c", {1.0}, 1.0, 1);  // at capacity: ignored
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.fits(), 2u);
  // Resident models keep learning at capacity.
  store.Observe("a", {2.0}, 2.0, 1);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.fits(), 3u);
}

// The model key is the exact memo key minus the attribute section: same
// component hash, same canonical plan — so near-miss queries (different
// attrs, same structure) share one model.
TEST(ParamModel, KeyIsMemoKeyWithoutAttributes) {
  const LoadedNet loaded = LoadPnet(kAffineNet);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const CompiledNet compiled(loaded.net.get());
  ASSERT_TRUE(compiled.hashable());

  const std::vector<std::pair<PlaceId, int>> plan = {
      {loaded.net->PlaceByName("in"), 3}};
  Token t1;
  t1.attrs = {1.0, 2.0};
  Token t2;
  t2.attrs = {9.0, 4.0};
  ComponentQuery q1(compiled, t1, plan);
  ComponentQuery q2(compiled, t2, plan);
  q1.Select(0);
  q2.Select(0);
  EXPECT_FALSE(q1.model_key().empty());
  EXPECT_NE(q1.exact_key(), q2.exact_key());  // attrs separate exact entries...
  EXPECT_EQ(q1.model_key(), q2.model_key());  // ...but not models,
  // and the exact key is the model key extended by the attributes.
  for (const ComponentQuery* q : {&q1, &q2}) {
    EXPECT_GT(q->exact_key().size(), q->model_key().size());
    EXPECT_EQ(q->exact_key().compare(0, q->model_key().size(), q->model_key()), 0);
  }
}

// Concurrent Observe + Predict on a shared store: the TSan job runs this.
TEST(ParamModel, ConcurrentFitAndLookup) {
  ParamModelStore store(ParamGate{16, 0.02});
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&store, t] {
      const std::string key = t == 0 ? "left" : "right";
      for (int i = 0; i <= 60; ++i) {
        const double x = static_cast<double>(i);
        const double z = static_cast<double>((i * 7) % 11);
        store.Observe(key, {x, z}, 50.0 + 3.0 * x + 2.0 * z, 2);
      }
    });
    threads.emplace_back([&store, t] {
      const std::string key = t == 0 ? "left" : "right";
      double quiesce_time = 0;
      std::uint64_t firings = 0;
      for (int i = 0; i < 200; ++i) {
        const double x = 10.0 + (i % 40);
        (void)store.Predict(key, {x, 5.0}, 1000, &quiesce_time, &firings);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  // After the dust settles both models serve interior queries exactly.
  for (const char* key : {"left", "right"}) {
    double quiesce_time = 0;
    std::uint64_t firings = 0;
    ASSERT_EQ(store.Predict(key, {20.5, 5.0}, 1000, &quiesce_time, &firings),
              ParamModelStore::Outcome::kHit)
        << key;
    const double want = 50.0 + 3.0 * 20.5 + 2.0 * 5.0;
    EXPECT_NEAR(quiesce_time, want, 1e-9 * want);
  }
}

}  // namespace
}  // namespace perfiface
