#include "src/petri/distill.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <utility>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/perfscript/compile.h"
#include "src/petri/sim.h"

namespace perfiface {

namespace {

// Probe runs are bounded independently of any request budget: a component
// that cannot quiesce within this many firings is refused, never served.
constexpr std::uint64_t kProbeFiringCap = 1ULL << 26;
constexpr Cycles kProbeTimeHorizon = static_cast<Cycles>(1) << 40;

// The fit must reproduce every probe to better than half a cycle: quiesce
// times are integers, so this makes the rounded closed form exact at every
// probe point.
constexpr double kMaxResidual = 0.49;

// Distinct delay expressions a component may contribute as fit features.
// Real interface nets have a handful; past this the "one-page closed form"
// premise has already failed.
constexpr std::size_t kMaxFeatures = 24;

// --- Canonical-stream infix rendering ---------------------------------
//
// CompiledExpr::Canonical() serializes the stack ops as "op:value:slot;"
// triples using the raw ExprOp numbering, which is pinned (compile.h:
// "Numbering is load-bearing", tests/canonical_golden_test.cc). Decoding
// that stream back to infix gives ProgramText real PerfScript expressions
// without widening CompiledExpr's API. Unknown ops fail the rendering
// (the model is still served; only the program text degrades).
constexpr unsigned kCanonConst = 0, kCanonSlot = 1, kCanonAdd = 2, kCanonSub = 3,
                   kCanonMul = 4, kCanonDiv = 5, kCanonMod = 6, kCanonLt = 7, kCanonLe = 8,
                   kCanonGt = 9, kCanonGe = 10, kCanonEq = 11, kCanonNe = 12, kCanonAnd = 13,
                   kCanonOr = 14, kCanonNeg = 15, kCanonNot = 16, kCanonCeil = 17,
                   kCanonFloor = 18, kCanonAbs = 19, kCanonSqrt = 20, kCanonMin = 21,
                   kCanonMax = 22;

std::string FormatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return StrFormat("%.0f", v);
  }
  return StrFormat("%.17g", v);  // round-trip: the program must reproduce the model
}

std::string RenderInfix(const std::string& canonical, const std::vector<std::string>& attrs,
                        bool* ok) {
  *ok = false;
  std::vector<std::string> stack;
  const char* p = canonical.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long op = std::strtoul(p, &end, 10);
    if (end == p || *end != ':') return std::string();
    p = end + 1;
    const double value = std::strtod(p, &end);
    if (end == p || *end != ':') return std::string();
    p = end + 1;
    const unsigned long slot = std::strtoul(p, &end, 10);
    if (*end != ';') return std::string();
    p = end + 1;

    auto pop = [&stack]() {
      std::string s = std::move(stack.back());
      stack.pop_back();
      return s;
    };
    auto binary = [&](const char* sym) -> bool {
      if (stack.size() < 2) return false;
      const std::string b = pop();
      const std::string a = pop();
      stack.push_back("(" + a + " " + sym + " " + b + ")");
      return true;
    };
    auto fn2 = [&](const char* name) -> bool {
      if (stack.size() < 2) return false;
      const std::string b = pop();
      const std::string a = pop();
      stack.push_back(std::string(name) + "(" + a + ", " + b + ")");
      return true;
    };
    auto fn1 = [&](const char* name) -> bool {
      if (stack.empty()) return false;
      stack.back() = std::string(name) + "(" + stack.back() + ")";
      return true;
    };

    bool good = true;
    switch (op) {
      case kCanonConst: stack.push_back(FormatNumber(value)); break;
      case kCanonSlot:
        stack.push_back(slot < attrs.size() ? attrs[slot]
                                            : StrFormat("attr%lu", slot));
        break;
      case kCanonAdd: good = binary("+"); break;
      case kCanonSub: good = binary("-"); break;
      case kCanonMul: good = binary("*"); break;
      case kCanonDiv: good = binary("/"); break;
      case kCanonMod: good = binary("%"); break;
      case kCanonLt: good = binary("<"); break;
      case kCanonLe: good = binary("<="); break;
      case kCanonGt: good = binary(">"); break;
      case kCanonGe: good = binary(">="); break;
      case kCanonEq: good = binary("=="); break;
      case kCanonNe: good = binary("!="); break;
      case kCanonAnd: good = binary("and"); break;
      case kCanonOr: good = binary("or"); break;
      case kCanonNeg:
        good = !stack.empty();
        if (good) stack.back() = "(-" + stack.back() + ")";
        break;
      case kCanonNot:
        good = !stack.empty();
        if (good) stack.back() = "(not " + stack.back() + ")";
        break;
      case kCanonCeil: good = fn1("ceil"); break;
      case kCanonFloor: good = fn1("floor"); break;
      case kCanonAbs: good = fn1("abs"); break;
      case kCanonSqrt: good = fn1("sqrt"); break;
      case kCanonMin: good = fn2("min"); break;
      case kCanonMax: good = fn2("max"); break;
      default: return std::string();
    }
    if (!good) return std::string();
  }
  if (stack.size() != 1) return std::string();
  *ok = true;
  return stack.front();
}

// Least squares via column-pivoted modified Gram-Schmidt QR. Exactly
// proportional feature columns are common here — two transitions whose
// delays are both pure multiples of the same attribute (jpeg's idct and
// writer stages, say) — and they make the normal equations singular. A
// ridge term rescues solvability but biases the fitted values past the
// sub-cycle exactness check, so instead rank-deficient columns are
// dropped (coefficient pinned to 0) and the surviving system is solved
// exactly. Returns false only when no column carries signal or the
// solution is non-finite; p is tiny (<= 1 + kMaxFeatures).
bool SolveLeastSquares(const std::vector<std::vector<double>>& rows,
                       const std::vector<double>& y, std::size_t p, std::vector<double>* coef) {
  const std::size_t n = rows.size();
  std::vector<std::vector<double>> q(p, std::vector<double>(n));
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t r = 0; r < n; ++r) q[j][r] = rows[r][j];
  }
  std::vector<double> qty(p, 0.0);
  std::vector<double> rmat(p * p, 0.0);
  std::vector<std::size_t> perm(p);
  for (std::size_t j = 0; j < p; ++j) perm[j] = j;

  double max_norm = 0;
  for (std::size_t j = 0; j < p; ++j) {
    double s = 0;
    for (const double v : q[j]) s += v * v;
    max_norm = std::max(max_norm, std::sqrt(s));
  }
  if (!(max_norm > 0)) return false;
  const double tol = max_norm * 1e-9;

  std::vector<double> resid = y;  // deflated alongside the columns
  std::size_t rank = 0;
  for (std::size_t k = 0; k < p; ++k) {
    std::size_t best = k;
    double best_norm = -1;
    for (std::size_t j = k; j < p; ++j) {
      double s = 0;
      for (const double v : q[j]) s += v * v;
      const double nrm = std::sqrt(s);
      if (nrm > best_norm) {
        best_norm = nrm;
        best = j;
      }
    }
    if (best_norm <= tol) break;  // remaining columns are dependent
    if (best != k) {
      std::swap(q[k], q[best]);
      std::swap(perm[k], perm[best]);
      for (std::size_t i = 0; i < k; ++i) std::swap(rmat[i * p + k], rmat[i * p + best]);
    }
    rmat[k * p + k] = best_norm;
    for (double& v : q[k]) v /= best_norm;
    double qy = 0;
    for (std::size_t r = 0; r < n; ++r) qy += q[k][r] * resid[r];
    qty[k] = qy;
    for (std::size_t r = 0; r < n; ++r) resid[r] -= qy * q[k][r];
    for (std::size_t j = k + 1; j < p; ++j) {
      double d = 0;
      for (std::size_t r = 0; r < n; ++r) d += q[k][r] * q[j][r];
      rmat[k * p + j] = d;
      for (std::size_t r = 0; r < n; ++r) q[j][r] -= d * q[k][r];
    }
    ++rank;
  }
  if (rank == 0) return false;

  coef->assign(p, 0.0);
  for (std::size_t i = rank; i-- > 0;) {
    double v = qty[i];
    for (std::size_t j = i + 1; j < rank; ++j) v -= rmat[i * p + j] * (*coef)[perm[j]];
    (*coef)[perm[i]] = v / rmat[i * p + i];
  }
  for (const double c : *coef) {
    if (!std::isfinite(c)) return false;
  }
  return true;
}

double Dot(const std::vector<double>& coef, const std::vector<double>& phi) {
  double v = 0;
  for (std::size_t i = 0; i < coef.size(); ++i) v += coef[i] * phi[i];
  return v;
}

}  // namespace

DerivedStore::DerivedStore(std::size_t max_models, std::size_t num_shards)
    : max_models_(max_models) {
  shards_.reserve(std::max<std::size_t>(1, num_shards));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, num_shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool DerivedStore::Lookup(const ComponentQuery& query, std::uint64_t budget,
                          ComponentResult* out) {
  Outcome outcome = Predict(query.model_key(), query.token(), budget, out);
  if (outcome == Outcome::kNoModel && Distill(query)) {
    outcome = Predict(query.model_key(), query.token(), budget, out);
  }
  return outcome == Outcome::kHit;
}

DerivedStore::Shard& DerivedStore::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

std::shared_ptr<const DerivedStore::Model> DerivedStore::Find(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.models.find(key);
  return it == shard.models.end() ? nullptr : it->second;
}

std::shared_ptr<const DerivedStore::Model> DerivedStore::BuildModel(
    const ComponentQuery& query) {
  const CompiledNet& net = query.net();
  const std::size_t component = query.component();
  const Token& token = query.token();
  auto model = std::make_shared<Model>();
  auto refuse = [&model](std::string why) {
    model->ok = false;
    model->refusal = std::move(why);
    return model;
  };

  if (!net.hashable()) {
    return refuse("net carries opaque closures (unhashable)");
  }

  // --- Static precheck + feature selection ------------------------------
  // Deterministic paths require every guard to fold to a compile-time
  // constant; the non-constant delay expressions (deduplicated by their
  // canonical text — sibling transitions often share one) become the fit
  // features, and constant delays fold into the intercept.
  const std::vector<TransitionSpec>& specs = net.source().transitions();
  const std::vector<CompiledNet::Transition>& trans = net.transitions();
  const std::vector<std::string>& attr_names = net.source().attr_names();
  std::map<std::string, std::size_t> feature_by_text;
  std::vector<std::uint32_t> active_slots;
  for (std::size_t t = 0; t < trans.size(); ++t) {
    if (trans[t].component != component) {
      continue;
    }
    const TransitionSpec& spec = specs[t];
    if (spec.has_guard()) {
      if (!trans[t].guard_const) {
        return refuse(StrFormat("transition '%s' has an attribute-dependent guard",
                                spec.name.c_str()));
      }
      if (!trans[t].guard_value) {
        continue;  // constant-false guard: the transition never fires
      }
    }
    if (trans[t].delay_const) {
      continue;  // folds into the intercept
    }
    if (spec.delay_compiled == nullptr) {
      return refuse(StrFormat("transition '%s' has no compiled delay expression",
                              spec.name.c_str()));
    }
    if (feature_by_text.emplace(spec.delay_expr, model->features.size()).second) {
      Feature f;
      f.expr = spec.delay_compiled;
      bool rendered = false;
      f.text = RenderInfix(spec.delay_expr, attr_names, &rendered);
      if (!rendered) {
        f.text = "<" + spec.delay_expr + ">";
      }
      for (const std::uint32_t s : f.expr->used_slots()) {
        if (std::find(active_slots.begin(), active_slots.end(), s) == active_slots.end()) {
          active_slots.push_back(s);
        }
      }
      model->features.push_back(std::move(f));
    }
  }
  if (model->features.size() > kMaxFeatures) {
    return refuse("too many distinct delay expressions");
  }
  std::sort(active_slots.begin(), active_slots.end());

  // --- Probe grid -------------------------------------------------------
  // Scaled variants of the seed attribute vector: each active attribute
  // alone at 1.5x and 2x, joint sweeps, then deterministic mixed patterns
  // until the system is comfortably overdetermined.
  std::vector<double> base;
  base.reserve(attr_names.size());
  for (std::size_t s = 0; s < attr_names.size(); ++s) {
    base.push_back(token.Attr(s));
  }
  const std::size_t p = 1 + model->features.size();
  std::vector<std::vector<double>> probes;
  probes.push_back(base);
  for (const std::uint32_t s : active_slots) {
    for (const double f : {1.5, 2.0}) {
      std::vector<double> v = base;
      v[s] *= f;
      probes.push_back(std::move(v));
    }
  }
  for (const double f : {1.25, 1.75}) {
    std::vector<double> v = base;
    for (const std::uint32_t s : active_slots) v[s] *= f;
    probes.push_back(std::move(v));
  }
  for (std::size_t j = 0; probes.size() < p + 4 && j < p + 16; ++j) {
    std::vector<double> v = base;
    for (std::size_t i = 0; i < active_slots.size(); ++i) {
      v[active_slots[i]] *= 1.0 + static_cast<double>((i + 1) * (j + 2) % 7 + 1) / 8.0;
    }
    probes.push_back(std::move(v));
  }

  // --- Probe simulations + feature evaluation ---------------------------
  auto eval_features = [&model](const std::vector<double>& attrs,
                                std::vector<double>* phi) -> bool {
    phi->clear();
    phi->push_back(1.0);
    for (const Feature& f : model->features) {
      const EvalResult r = f.expr->EvalRegsChecked(
          [&attrs](std::uint32_t s) { return s < attrs.size() ? attrs[s] : 0.0; });
      if (!r.ok || !r.value.IsNumber()) {
        return false;
      }
      const double v = r.value.num;
      if (!(v >= 0 && v < 1e15)) {
        return false;
      }
      phi->push_back(static_cast<double>(std::llround(v)));
    }
    return true;
  };

  std::vector<std::vector<double>> rows;
  std::vector<double> ys;
  bool first_probe = true;
  for (const std::vector<double>& attrs : probes) {
    std::vector<double> phi;
    if (!eval_features(attrs, &phi)) {
      model->cacheable = false;
      return refuse("a delay expression failed or left [0, 1e15) at a probe point");
    }
    Token tk;
    for (const double a : attrs) {
      tk.attrs.push_back(a);
    }
    PetriSim sim(&net, component);
    sim.set_max_firings(kProbeFiringCap);
    sim.InjectPlan(query.injections(), tk);
    if (!sim.Run(kProbeTimeHorizon)) {
      model->cacheable = sim.error().empty();
      return refuse("a probe simulation did not quiesce");
    }
    if (first_probe) {
      model->firings = sim.total_firings();
      first_probe = false;
    } else if (sim.total_firings() != model->firings) {
      // The guards looked constant but the workload still routed
      // differently across probes (e.g. capacity-induced reordering that
      // changes the firing count): not a fixed closed form.
      return refuse("firing count varies across probe points");
    }
    rows.push_back(std::move(phi));
    ys.push_back(static_cast<double>(sim.now()));
  }

  // --- Fit + exactness check --------------------------------------------
  std::vector<double> coef;
  if (!SolveLeastSquares(rows, ys, p, &coef)) {
    return refuse("probe system is singular");
  }
  // The true multiplicities are integers; snap near-integer coefficients
  // so between-probe predictions are exact, but only keep the snap if it
  // still reproduces every probe.
  std::vector<double> snapped = coef;
  bool snap_valid = false;
  for (double& c : snapped) {
    if (std::fabs(c - std::round(c)) < 1e-6) {
      c = std::round(c);
    }
  }
  auto max_residual = [&rows, &ys](const std::vector<double>& c) {
    double worst = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      worst = std::max(worst, std::fabs(Dot(c, rows[r]) - ys[r]));
    }
    return worst;
  };
  if (max_residual(snapped) < kMaxResidual) {
    coef = std::move(snapped);
    snap_valid = true;
  }
  if (!snap_valid && max_residual(coef) >= kMaxResidual) {
    return refuse("fit does not reproduce the probes (non-linear in the delay basis)");
  }
  model->coef = std::move(coef);

  // --- Hull -------------------------------------------------------------
  for (const std::uint32_t s : active_slots) {
    double lo = probes[0][s], hi = probes[0][s];
    for (const std::vector<double>& attrs : probes) {
      lo = std::min(lo, attrs[s]);
      hi = std::max(hi, attrs[s]);
    }
    model->hull_slots.push_back(s);
    model->hull_lo.push_back(lo);
    model->hull_hi.push_back(hi);
  }

  // --- PerfScript rendering ---------------------------------------------
  std::string args;
  for (std::size_t i = 0; i < model->hull_slots.size(); ++i) {
    if (i != 0) args += ", ";
    args += attr_names[model->hull_slots[i]];
  }
  model->program = "# Derived performance interface (pnet-derived tier).\n";
  for (std::size_t i = 0; i < model->hull_slots.size(); ++i) {
    model->program += StrFormat("# valid: %s in [%s, %s]\n",
                                attr_names[model->hull_slots[i]].c_str(),
                                FormatNumber(model->hull_lo[i]).c_str(),
                                FormatNumber(model->hull_hi[i]).c_str());
  }
  model->program += "fn latency(" + args + ") {\n  return " + FormatNumber(model->coef[0]);
  for (std::size_t i = 0; i < model->features.size(); ++i) {
    const double c = model->coef[i + 1];
    if (c == 0) {
      continue;
    }
    model->program += "\n      + ";
    if (c != 1) {
      model->program += FormatNumber(c) + " * ";
    }
    model->program += model->features[i].text;
  }
  model->program += ";\n}\n";

  model->ok = true;
  return model;
}

bool DerivedStore::Distill(const ComponentQuery& query) {
  const std::string& key = query.model_key();
  if (key.empty()) {
    refusals_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (const std::shared_ptr<const Model> existing = Find(key)) {
    return existing->ok;
  }
  obs::SpanGuard span("pnet", "distill");
  const std::shared_ptr<const Model> model = BuildModel(query);
  if (model->ok) {
    distilled_.fetch_add(1, std::memory_order_relaxed);
  } else {
    refusals_.fetch_add(1, std::memory_order_relaxed);
    if (!model->cacheable) {
      return false;
    }
  }
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.models.find(key);
  if (it != shard.models.end()) {
    return it->second->ok;  // a concurrent distiller won the race
  }
  if (total_models_.load(std::memory_order_relaxed) >= max_models_) {
    return false;  // fixed memory, like the parametric store
  }
  shard.models.emplace(key, model);
  total_models_.fetch_add(1, std::memory_order_relaxed);
  return model->ok;
}

DerivedStore::Outcome DerivedStore::Predict(const std::string& model_key, const Token& token,
                                            std::uint64_t budget, ComponentResult* out) {
  const std::shared_ptr<const Model> model = model_key.empty() ? nullptr : Find(model_key);
  if (model == nullptr) {
    return Outcome::kNoModel;
  }
  auto refused = [this](Outcome o) {
    refusals_.fetch_add(1, std::memory_order_relaxed);
    return o;
  };
  if (!model->ok) {
    return refused(Outcome::kRefused);
  }
  for (std::size_t i = 0; i < model->hull_slots.size(); ++i) {
    const double v = token.Attr(model->hull_slots[i]);
    if (!(v >= model->hull_lo[i] && v <= model->hull_hi[i])) {
      return refused(Outcome::kOutsideHull);
    }
  }
  std::vector<double> phi;
  phi.reserve(model->coef.size());
  phi.push_back(1.0);
  for (const Feature& f : model->features) {
    const EvalResult r =
        f.expr->EvalRegsChecked([&token](std::uint32_t s) { return token.Attr(s); });
    if (!r.ok || !r.value.IsNumber()) {
      return refused(Outcome::kEvalFailed);
    }
    const double v = r.value.num;
    if (!(v >= 0 && v < 1e15)) {
      return refused(Outcome::kEvalFailed);
    }
    phi.push_back(static_cast<double>(std::llround(v)));
  }
  const double y = Dot(model->coef, phi);
  if (!(y > -0.5 && y < 1e15)) {
    return refused(Outcome::kEvalFailed);
  }
  if (model->firings >= budget) {
    // Mirrors the exact memo rule (firings strictly below the budget), so
    // a derived hit never hides a budget exhaustion simulation would hit.
    return refused(Outcome::kBudget);
  }
  out->quiesce_time = static_cast<Cycles>(std::llround(std::max(0.0, y)));
  out->firings = model->firings;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return Outcome::kHit;
}

std::string DerivedStore::ProgramText(const std::string& key) const {
  const std::shared_ptr<const Model> model = Find(key);
  return (model != nullptr && model->ok) ? model->program : std::string();
}

std::string DerivedStore::RefusalReason(const std::string& key) const {
  const std::shared_ptr<const Model> model = Find(key);
  return (model != nullptr && !model->ok) ? model->refusal : std::string();
}

std::size_t DerivedStore::size() const { return total_models_.load(std::memory_order_relaxed); }

void DerivedStore::AppendPrometheus(std::string* out) const {
  obs::AppendCounter(out, "perfiface_derived_hits_total",
                     "Component results served from distilled closed-form interfaces", hits());
  obs::AppendCounter(
      out, "perfiface_derived_refusals_total",
      "Derived-tier consultations refused (distillation or serving; fell back to simulation)",
      refusals());
  obs::AppendCounter(out, "perfiface_derived_distilled_total",
                     "Components successfully distilled into closed-form interfaces",
                     distilled());
}

std::string DerivedStore::SummaryJson() const {
  return StrFormat("{\"models\":%llu,\"distilled\":%llu,\"refusals\":%llu,\"hits\":%llu}",
                   static_cast<unsigned long long>(size()),
                   static_cast<unsigned long long>(distilled()),
                   static_cast<unsigned long long>(refusals()),
                   static_cast<unsigned long long>(hits()));
}

}  // namespace perfiface
