#include "src/petri/distill.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string_view>
#include <utility>

#include "src/common/strings.h"
#include "src/obs/exposition.h"
#include "src/obs/trace.h"
#include "src/perfscript/compile.h"
#include "src/petri/sim.h"

namespace perfiface {

namespace {

constexpr std::uint32_t kNone = FiringLog::kNone;

// A chain of kMaxModelFirings delays, each below 1e15, stays inside Cycles.
static_assert(static_cast<double>(DerivedStore::kMaxModelFirings) * 1e15 < 1.8e19);

// The vector clocks hold firings x fired transitions entries, twice; a
// component past this is refused rather than verified.
constexpr std::size_t kMaxClockEntries = std::size_t{1} << 20;

// A guard the store key carries: one that reads request attributes.
bool KeyedGuard(const CompiledNet::Transition& t) {
  return t.guard_code != nullptr && !t.guard_const;
}

// A keyed guard's outcome on the request token; false when it fails.
bool EvalGuard(const CompiledNet::Transition& t, const Token& token, bool* on) {
  double g = 0;
  std::string error;
  if (!t.guard_code->EvalRegs([&token](std::uint32_t s) { return token.Attr(s); }, &g,
                              &error)) {
    return false;
  }
  *on = g != 0;
  return true;
}

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

}  // namespace

void ComponentQuery::Select(std::size_t component) {
  component_ = component;
  model_key_.clear();
  // The component hash as 16 hex digits, then "\x1f@<index>:<count>" per
  // injected place, appended through to_chars (no printf per request).
  char item[24];
  char* end = std::to_chars(item, item + sizeof(item), net_.component_hash(component), 16).ptr;
  model_key_.append(16 - (end - item), '0');
  model_key_.append(item, end);

  // The plan restricted to this component, as (local place index, count)
  // pairs: the same sub-net keys identically wherever it sits inside the
  // enclosing net. All injected tokens carry the same attributes, so
  // per-place counts describe the plan fully.
  plan_.clear();
  for (const auto& [place, count] : injections_) {
    const CompiledNet::PlaceInfo& info = net_.places()[place];
    if (info.component == component) {
      plan_.emplace_back(info.local_index, count);
    }
  }
  std::sort(plan_.begin(), plan_.end());
  // A place listed twice injects the sum.
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    long long count = plan_[i].second;
    while (i + 1 < plan_.size() && plan_[i + 1].first == plan_[i].first) {
      count += plan_[++i].second;
    }
    model_key_ += "\x1f@";
    model_key_.append(item, std::to_chars(item, item + sizeof(item), plan_[i].first).ptr);
    model_key_ += ':';
    model_key_.append(item, std::to_chars(item, item + sizeof(item), count).ptr);
  }
}

// One accepted component (or a cached refusal).
struct DerivedStore::Model {
  std::string refusal;  // empty: accepted
  // A refusal that only these attributes caused (an expression error, a
  // run past the horizon): reported as `failure` and never stored.
  bool cacheable = true;
  Outcome failure = Outcome::kRefused;

  // Delay slots: the first exprs.size() are evaluated per request, the
  // rest are constants (constant delays, and delays read off initial-
  // marking tokens, whose attributes are all zero).
  std::vector<std::shared_ptr<const CompiledExpr>> exprs;
  std::vector<Cycles> delays;  // constants in place, expression slots 0

  // The firing table. Times live in one array: [0] is time zero, step i
  // writes its start at 2i+1 and its end at 2i+2; a predecessor is an
  // index into that array (0 when unused).
  struct Step {
    std::uint32_t delay = 0;
    std::uint32_t pred[3] = {0, 0, 0};
  };
  std::vector<Step> steps;
  std::vector<std::uint32_t> transition;  // per step; kNone for a join
  std::uint64_t firings = 0;
  std::string guards;  // "name=0|1" per keyed guard, for ProgramText
};

struct alignas(64) DerivedStore::WorkerMemo {
  // The last model resolved per component index (modulo kSlots) and its
  // store key: a net's components keep their own slots.
  static constexpr std::size_t kSlots = 8;
  struct Slot {
    std::string key;
    const Model* model = nullptr;
  };
  Slot last[kSlots];
  std::string keyed;  // a guarded store key, built by KeyOf
  std::vector<Cycles> delays;
  std::vector<Cycles> times;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> refusals{0};
};

DerivedStore::DerivedStore(std::size_t max_models, std::size_t num_shards)
    : max_models_(max_models) {
  shards_.reserve(std::max<std::size_t>(1, num_shards));
  for (std::size_t i = 0; i < std::max<std::size_t>(1, num_shards); ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

DerivedStore::~DerivedStore() = default;

DerivedStore::Shard& DerivedStore::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const DerivedStore::Model* DerivedStore::Find(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.models.find(key);
  return it == shard.models.end() ? nullptr : it->second.get();
}

const std::string* DerivedStore::KeyOf(const ComponentQuery& query, std::string* keyed) {
  bool guarded = false;
  const Token& token = query.token();
  const CompiledNet& net = query.net();
  for (const CompiledNet::Transition& t : net.transitions()) {
    if (t.component != query.component() || !KeyedGuard(t)) {
      continue;
    }
    bool on = false;
    if (!EvalGuard(t, token, &on)) {
      return nullptr;
    }
    if (!guarded) {
      *keyed = query.model_key();
      *keyed += "\x1fg";
      guarded = true;
    }
    *keyed += on ? '1' : '0';
  }
  return guarded ? keyed : &query.model_key();
}

std::unique_ptr<DerivedStore::Model> DerivedStore::Compile(const ComponentQuery& query) {
  const CompiledNet& net = query.net();
  const std::size_t component = query.component();
  const Token& token = query.token();
  const std::vector<TransitionSpec>& specs = net.source().transitions();
  const std::vector<Place>& place_specs = net.source().places();
  const std::vector<CompiledNet::Transition>& trans = net.transitions();
  const std::vector<CompiledNet::PlaceInfo>& places = net.places();
  auto model = std::make_unique<Model>();
  auto refuse = [&model](std::string why) {
    model->refusal = std::move(why);
    return std::move(model);
  };
  auto fail = [&model, &refuse](Outcome outcome, std::string why) {
    model->cacheable = false;
    model->failure = outcome;
    return refuse(std::move(why));
  };
  auto name = [&specs](std::size_t t) { return specs[t].name.c_str(); };

  // --- Static conditions ------------------------------------------------
  // Which transitions the key enables: constant guards by value, the
  // attribute-dependent ones by their outcome on the request token.
  std::vector<bool> enabled(trans.size(), false);
  for (std::size_t t = 0; t < trans.size(); ++t) {
    const CompiledNet::Transition& tr = trans[t];
    if (tr.component != component) {
      continue;
    }
    if (tr.servers > 1) {
      return refuse(StrFormat("transition '%s' has %u servers", name(t), tr.servers));
    }
    bool on = !tr.guard_const || tr.guard_value;
    if (KeyedGuard(tr)) {
      if (!EvalGuard(tr, token, &on)) {
        return fail(Outcome::kEvalFailed, "a guard failed on the request token");
      }
      model->guards += StrFormat("%s%s=%d", model->guards.empty() ? "" : ", ", name(t), on);
    }
    enabled[t] = on;
  }
  // Places that may hold a token descended from the initial marking: a
  // transition copies its primary input token to every output.
  std::vector<bool> initial(places.size(), false);
  for (std::size_t p = 0; p < places.size(); ++p) {
    initial[p] = places[p].component == component && places[p].initial_tokens > 0;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const CompiledNet::Transition& tr : trans) {
      if (tr.component != component || !initial[net.inputs()[tr.in_begin].place]) {
        continue;
      }
      for (std::uint32_t i = tr.out_begin; i < tr.out_end; ++i) {
        changed = changed || !initial[net.outputs()[i].place];
        initial[net.outputs()[i].place] = true;
      }
    }
  }
  std::vector<std::uint32_t> consumer(places.size(), kNone);
  for (std::size_t t = 0; t < trans.size(); ++t) {
    const CompiledNet::Transition& tr = trans[t];
    if (tr.component != component) {
      continue;
    }
    if (KeyedGuard(tr) && initial[net.inputs()[tr.in_begin].place]) {
      return refuse(StrFormat(
          "the guard of transition '%s' can read an initial-marking token", name(t)));
    }
    if (!enabled[t]) {
      continue;
    }
    for (std::uint32_t i = tr.in_begin; i < tr.in_end; ++i) {
      const std::uint32_t p = net.inputs()[i].place;
      if (consumer[p] != kNone && consumer[p] != t) {
        return refuse(StrFormat("place '%s' has two enabled consumers, '%s' and '%s'",
                                place_specs[p].name.c_str(), name(consumer[p]), name(t)));
      }
      consumer[p] = static_cast<std::uint32_t>(t);
    }
  }

  // --- Recording run ----------------------------------------------------
  FiringLog log;
  PetriSim sim(&net, component);
  sim.set_firing_log(&log);
  sim.set_max_firings(kMaxModelFirings + 1);
  sim.InjectPlan(query.injections(), token);
  const bool quiesced = sim.Run(kComponentRunHorizon);
  if (!sim.error().empty()) {
    return fail(Outcome::kEvalFailed, "the recording run failed: " + sim.error());
  }
  if (sim.firing_budget_exhausted()) {
    return refuse(StrFormat("the component takes more than %llu firings",
                            static_cast<unsigned long long>(kMaxModelFirings)));
  }
  if (!quiesced) {
    return fail(Outcome::kHorizon, "the recording run did not quiesce within the horizon");
  }
  const std::vector<FiringLog::Firing>& firings = log.firings();
  const std::size_t n = firings.size();
  model->firings = n;

  // --- Happens-before ---------------------------------------------------
  // Firings of one transition are totally ordered (one server), so "the
  // first k firings of transition T precede this event" is one count per
  // transition. started[i*K + T]: firings of T that start no later than
  // firing i starts; ended[i*K + T]: those that also end by then.
  std::vector<std::uint32_t> dense(trans.size(), kNone);
  std::vector<std::uint32_t> ordinal(n);
  std::vector<std::uint32_t> per_transition;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t& d = dense[firings[i].transition];
    if (d == kNone) {
      d = static_cast<std::uint32_t>(per_transition.size());
      per_transition.push_back(0);
    }
    ordinal[i] = per_transition[d]++;
  }
  const std::size_t k = per_transition.size();
  if (n * k > kMaxClockEntries) {
    return refuse(StrFormat("%zu firings over %zu transitions is too large to verify", n, k));
  }
  // A place whose room only one transition ever took hands that room out
  // in a fixed order; where several did, the order is what the race
  // checks below must prove, so its room waits cannot serve as evidence.
  std::vector<bool> shared_room(places.size(), false);
  for (std::size_t p = 0; p < places.size(); ++p) {
    for (const std::uint32_t taker : log.room_takers()[p]) {
      shared_room[p] = shared_room[p] ||
                       firings[taker].transition != firings[log.room_takers()[p][0]].transition;
    }
  }
  // Enabling events per firing: ends of token producers and of the
  // server's previous firing, starts of the pops that freed room.
  std::vector<std::vector<std::uint32_t>> after_end(n), after_start(n);
  std::vector<std::uint32_t> last(trans.size(), kNone);
  std::vector<std::uint32_t> started(n * k, 0), ended(n * k, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const FiringLog::Firing& f = firings[i];
    std::vector<std::uint32_t>& ends = after_end[i];
    for (const std::uint32_t p : f.producers) {
      if (p != kNone) {
        ends.push_back(p);
      }
    }
    if (last[f.transition] != kNone) {
      ends.push_back(last[f.transition]);
    }
    last[f.transition] = static_cast<std::uint32_t>(i);
    std::uint32_t* s = &started[i * k];
    std::uint32_t* e = &ended[i * k];
    auto merge = [&](std::uint32_t pred, bool its_end) {
      for (std::size_t j = 0; j < k; ++j) {
        s[j] = std::max(s[j], started[pred * k + j]);
        e[j] = std::max(e[j], ended[pred * k + j]);
      }
      const std::uint32_t d = dense[firings[pred].transition];
      s[d] = std::max(s[d], ordinal[pred] + 1);
      if (its_end) {
        e[d] = std::max(e[d], ordinal[pred] + 1);
      }
    };
    for (const std::uint32_t p : ends) merge(p, true);
    // room_from follows the transition's bounded output arcs.
    const CompiledNet::Transition& tr = trans[f.transition];
    std::size_t r = 0;
    for (std::uint32_t a = tr.out_begin; a < tr.out_end; ++a) {
      const std::uint32_t place = net.outputs()[a].place;
      if (places[place].capacity == 0) {
        continue;
      }
      const std::uint32_t c = f.room_from[r++];
      if (c != kNone) {
        after_start[i].push_back(c);
        if (!shared_room[place]) {
          merge(c, false);
        }
      }
    }
  }
  // a's end precedes b's start / a's start precedes b's start, for every
  // choice of delays.
  auto ends_before = [&](std::uint32_t a, std::uint32_t b) {
    return ended[b * k + dense[firings[a].transition]] > ordinal[a];
  };
  auto starts_before = [&](std::uint32_t a, std::uint32_t b) {
    return a == b || started[b * k + dense[firings[a].transition]] > ordinal[a];
  };

  // --- Races --------------------------------------------------------------
  for (std::size_t p = 0; p < places.size(); ++p) {
    if (places[p].component != component) {
      continue;
    }
    const std::vector<std::uint32_t>& deposits = log.deposits()[p];
    for (std::size_t j = 0; log.pops(p) != 0 && j + 1 < deposits.size(); ++j) {
      const std::uint32_t a = deposits[j], b = deposits[j + 1];
      if (a != b && !ends_before(a, b)) {
        return refuse(StrFormat("tokens into place '%s' from '%s' and '%s' race",
                                place_specs[p].name.c_str(), name(firings[a].transition),
                                name(firings[b].transition)));
      }
    }
    const std::vector<std::uint32_t>& takers = log.room_takers()[p];
    for (std::size_t j = 0; j + 1 < takers.size(); ++j) {
      const std::uint32_t a = takers[j], b = takers[j + 1];
      if (!starts_before(a, b)) {
        return refuse(StrFormat("'%s' and '%s' race for room in place '%s'",
                                name(firings[a].transition), name(firings[b].transition),
                                place_specs[p].name.c_str()));
      }
    }
  }

  // A transition left with its input tokens but no room lost the room to
  // whoever took it; if that was another transition, timing decided.
  for (std::size_t t = 0; t < trans.size(); ++t) {
    const CompiledNet::Transition& tr = trans[t];
    if (tr.component != component || !enabled[t] || !tr.has_bounded_output) {
      continue;
    }
    bool ready = true;
    for (std::uint32_t i = tr.in_begin; i < tr.in_end && ready; ++i) {
      std::uint32_t weight = 0;
      for (std::uint32_t j = tr.in_begin; j < tr.in_end; ++j) {
        weight += net.inputs()[j].place == net.inputs()[i].place ? net.inputs()[j].weight : 0;
      }
      ready = sim.tokens_at(net.inputs()[i].place) >= weight;
    }
    for (std::uint32_t a = tr.out_begin; a < tr.out_end && ready; ++a) {
      const CompiledNet::CompiledArc& out = net.outputs()[a];
      const std::uint32_t capacity = places[out.place].capacity;
      if (capacity == 0 ||
          sim.tokens_at(out.place) - out.consumed_from_place + out.weight <= capacity) {
        continue;
      }
      for (const std::uint32_t taker : log.room_takers()[out.place]) {
        if (firings[taker].transition != t) {
          return refuse(StrFormat("transition '%s' stays blocked on room in place '%s' that '%s' took",
                                  name(t), place_specs[out.place].name.c_str(),
                                  name(firings[taker].transition)));
        }
      }
    }
  }

  // --- Delay slots ----------------------------------------------------------
  std::vector<std::uint32_t> slot(n);
  std::map<std::string_view, std::uint32_t> expr_slot;  // by canonical text
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t t = firings[i].transition;
    if (!trans[t].delay_const && !firings[i].primary_initial &&
        expr_slot.emplace(trans[t].delay_code->Canonical(), model->exprs.size()).second) {
      model->exprs.push_back(specs[t].delay_compiled);
    }
  }
  model->delays.assign(model->exprs.size(), 0);
  std::map<Cycles, std::uint32_t> const_slot;
  auto constant = [&](Cycles c) {
    const auto [it, added] =
        const_slot.emplace(c, static_cast<std::uint32_t>(model->delays.size()));
    if (added) {
      model->delays.push_back(c);
    }
    return it->second;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t t = firings[i].transition;
    slot[i] = trans[t].delay_const || firings[i].primary_initial
                  ? constant(firings[i].delay)
                  : expr_slot.at(trans[t].delay_code->Canonical());
  }

  // --- Firing table -------------------------------------------------------
  // Keep the enabling events no other one of them implies, then fold them
  // three at a time through zero-delay joins.
  struct Event {
    std::uint32_t firing;
    bool end;
  };
  auto implies = [&](const Event& later, const Event& x) {
    if (later.firing == x.firing) {
      return later.end && !x.end;
    }
    return x.end ? ends_before(x.firing, later.firing)
                 : starts_before(x.firing, later.firing);
  };
  std::vector<std::uint32_t> step_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Event> events;
    for (const std::uint32_t p : after_end[i]) events.push_back({p, true});
    for (const std::uint32_t c : after_start[i]) events.push_back({c, false});
    std::vector<std::uint32_t> refs;
    for (std::size_t a = 0; a < events.size(); ++a) {
      bool implied = false;
      for (std::size_t b = 0; b < events.size() && !implied; ++b) {
        const bool same = events[a].firing == events[b].firing && events[a].end == events[b].end;
        implied = same ? b < a : implies(events[b], events[a]);
      }
      if (!implied) {
        refs.push_back(2 * step_of[events[a].firing] + (events[a].end ? 2 : 1));
      }
    }
    while (refs.size() > 3) {
      Model::Step join;
      join.delay = constant(0);
      std::copy(refs.end() - 3, refs.end(), join.pred);
      refs.resize(refs.size() - 3);
      refs.push_back(static_cast<std::uint32_t>(2 * model->steps.size() + 2));
      model->steps.push_back(join);
      model->transition.push_back(kNone);
    }
    Model::Step step;
    step.delay = slot[i];
    std::copy(refs.begin(), refs.end(), step.pred);
    step_of[i] = static_cast<std::uint32_t>(model->steps.size());
    model->steps.push_back(step);
    model->transition.push_back(firings[i].transition);
  }

  // --- Self-check -----------------------------------------------------------
  // The table, evaluated on the recording's own attributes, must reproduce
  // the recorded quiesce time and every recorded delay and start.
  std::vector<Cycles> delays;
  std::vector<Cycles> times;
  if (!EvalDelays(*model, token, &delays)) {
    return refuse("the delay slots do not evaluate on the recorded attributes");
  }
  if (RunTable(*model, delays.data(), &times) != sim.now()) {
    return refuse("the recurrence does not reproduce the recorded quiesce time");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (times[2 * step_of[i] + 1] != firings[i].start || delays[slot[i]] != firings[i].delay) {
      return refuse(StrFormat("the recurrence does not reproduce the start of firing %zu ('%s')",
                              i, name(firings[i].transition)));
    }
  }
  return model;
}

bool DerivedStore::EvalDelays(const Model& model, const Token& token,
                              std::vector<Cycles>* delays) {
  delays->assign(model.delays.begin(), model.delays.end());
  for (std::size_t e = 0; e < model.exprs.size(); ++e) {
    double v = 0;
    std::string error;
    if (!model.exprs[e]->EvalRegs([&token](std::uint32_t s) { return token.Attr(s); }, &v,
                                  &error) ||
        !(v >= 0 && v < 1e15)) {
      return false;
    }
    (*delays)[e] = static_cast<Cycles>(std::llround(v));
  }
  return true;
}

Cycles DerivedStore::RunTable(const Model& model, const Cycles* delays,
                              std::vector<Cycles>* times) {
  times->resize(1 + 2 * model.steps.size());
  Cycles* t = times->data();
  t[0] = 0;
  Cycles quiesce = 0;
  Cycles* next = t + 1;
  for (const Model::Step& step : model.steps) {
    const Cycles start = std::max(t[step.pred[0]], std::max(t[step.pred[1]], t[step.pred[2]]));
    const Cycles end = start + delays[step.delay];
    next[0] = start;
    next[1] = end;
    next += 2;
    quiesce = std::max(quiesce, end);
  }
  return quiesce;
}

DerivedStore::Outcome DerivedStore::Evaluate(const Model& model, const Token& token,
                                             std::uint64_t budget, ComponentResult* out,
                                             WorkerMemo* memo) {
  // Strict: PetriSim reports exhaustion when firings reach the budget
  // exactly.
  if (model.firings >= budget) {
    return Outcome::kBudget;
  }
  if (!EvalDelays(model, token, &memo->delays)) {
    return Outcome::kEvalFailed;
  }
  const Cycles quiesce = RunTable(model, memo->delays.data(), &memo->times);
  if (quiesce > kComponentRunHorizon) {
    return Outcome::kHorizon;
  }
  out->quiesce_time = quiesce;
  out->firings = model.firings;
  return Outcome::kHit;
}

DerivedStore::WorkerMemo* DerivedStore::NewWorkerMemo() {
  std::lock_guard<std::mutex> lock(memos_mu_);
  memos_.push_back(std::make_unique<WorkerMemo>());
  return memos_.back().get();
}

DerivedStore::Outcome DerivedStore::Predict(const ComponentQuery& query, std::uint64_t budget,
                                            ComponentResult* out, WorkerMemo* memo) {
  if (memo == nullptr) {
    // Callers without a memo share the store's own counters.
    WorkerMemo local;
    const Outcome outcome = Lookup(query, budget, out, &local);
    (outcome == Outcome::kHit ? hits_ : refusals_).fetch_add(1, std::memory_order_relaxed);
    return outcome;
  }
  const Outcome outcome = Lookup(query, budget, out, memo);
  // A worker's memo has one writer.
  std::atomic<std::uint64_t>& counter = outcome == Outcome::kHit ? memo->hits : memo->refusals;
  counter.store(counter.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  return outcome;
}

DerivedStore::Outcome DerivedStore::Lookup(const ComponentQuery& query, std::uint64_t budget,
                                           ComponentResult* out, WorkerMemo* memo) {
  const std::string* key = KeyOf(query, &memo->keyed);
  if (key == nullptr) {
    return Outcome::kEvalFailed;
  }
  WorkerMemo::Slot& last = memo->last[query.component() % WorkerMemo::kSlots];
  if (last.model == nullptr || last.key != *key) {
    const Model* model = Find(*key);
    if (model == nullptr) {
      if (total_models_.load(std::memory_order_relaxed) >= max_models_) {
        return Outcome::kFull;
      }
      obs::SpanGuard span("pnet", "distill");
      std::unique_ptr<const Model> built = Compile(query);
      if (!built->cacheable) {
        return built->failure;
      }
      Shard& shard = ShardFor(*key);
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.models.find(*key);
      if (it != shard.models.end()) {
        model = it->second.get();  // a concurrent first lookup won the race
      } else if (total_models_.load(std::memory_order_relaxed) >= max_models_) {
        return Outcome::kFull;
      } else {
        if (built->refusal.empty()) {
          distilled_.fetch_add(1, std::memory_order_relaxed);
        }
        model = built.get();
        shard.models.emplace(*key, std::move(built));
        total_models_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    last.key = *key;
    last.model = model;
  }
  if (!last.model->refusal.empty()) {
    return Outcome::kRefused;
  }
  return Evaluate(*last.model, query.token(), budget, out, memo);
}

std::string DerivedStore::Render(const Model& model, const CompiledNet& net) {
  const std::vector<std::string>& attrs = net.source().attr_names();
  const std::vector<TransitionSpec>& specs = net.source().transitions();
  std::string params;
  for (const std::uint32_t s : net.attr_order()) {
    params += (params.empty() ? "" : ", ") + attrs[s];
  }
  std::string out = StrFormat(
      "# Exact derived performance interface (pnet-derived tier): the firing\n"
      "# DAG of one Petri-net component under one injection plan, %llu\n"
      "# firings, as a max-plus recurrence. A firing starts at the max of its\n"
      "# enabling events and ends its delay later; the answer is the last end.\n",
      static_cast<unsigned long long>(model.firings));
  if (!model.guards.empty()) {
    out += "# Valid for the guard outcomes " + model.guards + ".\n";
  }
  out += "def latency(" + params + "):\n";
  for (std::size_t e = 0; e < model.exprs.size(); ++e) {
    bool ok = false;
    std::string text = RenderInfix(model.exprs[e]->Canonical(), attrs, &ok);
    out += StrFormat("  d%zu = floor(%s + 0.5)\n", e, ok ? text.c_str() : "<unrenderable>");
  }
  // Time values get names only while some later step still reads them.
  const std::size_t steps = model.steps.size();
  std::vector<std::size_t> last_read(1 + 2 * steps, 0);
  for (std::size_t s = 0; s < steps; ++s) {
    for (const std::uint32_t p : model.steps[s].pred) {
      last_read[p] = s;
    }
  }
  std::vector<std::string> value(1 + 2 * steps);
  value[0].push_back('0');  // not `= "0"`: GCC 12 -O3 warns -Wrestrict there
  std::vector<std::string> free_names;
  std::size_t next_name = 0;
  std::vector<std::size_t> occurrence(specs.size(), 0);
  out += "  last = 0\n";
  for (std::size_t s = 0; s < steps; ++s) {
    const Model::Step& step = model.steps[s];
    std::vector<std::string> terms;
    for (const std::uint32_t p : step.pred) {
      if (p != 0 && std::find(terms.begin(), terms.end(), value[p]) == terms.end()) {
        terms.push_back(value[p]);
      }
    }
    std::string start = terms.empty() ? "0" : terms[0];
    if (terms.size() > 1) {
      start = "max(" + terms[0];
      for (std::size_t j = 1; j < terms.size(); ++j) start += ", " + terms[j];
      start += ")";
    }
    for (const std::uint32_t p : step.pred) {
      if (p != 0 && last_read[p] == s && !value[p].empty()) {
        free_names.push_back(value[p]);
        value[p].clear();
      }
    }
    auto take = [&]() {
      if (free_names.empty()) return StrFormat("t%zu", next_name++);
      std::string name = free_names.back();
      free_names.pop_back();
      return name;
    };
    const std::uint32_t t = model.transition[s];
    const std::string label =
        t == kNone ? std::string("join")
                   : StrFormat("%s #%zu", specs[t].name.c_str(), occurrence[t]++);
    if (last_read[2 * s + 1] > s) {
      value[2 * s + 1] = take();
      out += StrFormat("  %s = %s  # %s starts\n", value[2 * s + 1].c_str(), start.c_str(),
                       label.c_str());
      start = value[2 * s + 1];
    }
    const std::string delay =
        step.delay < model.exprs.size()
            ? StrFormat("d%u", step.delay)
            : FormatNumber(static_cast<double>(model.delays[step.delay]));
    const std::string end = delay == "0" ? start : start + " + " + delay;
    if (last_read[2 * s + 2] > s) {
      value[2 * s + 2] = take();
      out += StrFormat("  %s = %s  # %s ends\n", value[2 * s + 2].c_str(), end.c_str(),
                       label.c_str());
    } else if (t != kNone) {
      out += StrFormat("  last = max(last, %s)  # %s ends\n", end.c_str(), label.c_str());
    }
  }
  out += "  return last\nend\n";
  return out;
}

std::string DerivedStore::ProgramText(const ComponentQuery& query) const {
  std::string keyed;
  const std::string* key = KeyOf(query, &keyed);
  const Model* model = key == nullptr ? nullptr : Find(*key);
  return model != nullptr && model->refusal.empty() ? Render(*model, query.net())
                                                    : std::string();
}

std::string DerivedStore::RefusalReason(const ComponentQuery& query) const {
  std::string keyed;
  const std::string* key = KeyOf(query, &keyed);
  const Model* model = key == nullptr ? nullptr : Find(*key);
  return model != nullptr ? model->refusal : std::string();
}

std::size_t DerivedStore::size() const { return total_models_.load(std::memory_order_relaxed); }

std::uint64_t DerivedStore::hits() const {
  std::lock_guard<std::mutex> lock(memos_mu_);
  std::uint64_t total = hits_.load(std::memory_order_relaxed);
  for (const auto& memo : memos_) {
    total += memo->hits.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t DerivedStore::refusals() const {
  std::lock_guard<std::mutex> lock(memos_mu_);
  std::uint64_t total = refusals_.load(std::memory_order_relaxed);
  for (const auto& memo : memos_) {
    total += memo->refusals.load(std::memory_order_relaxed);
  }
  return total;
}

void DerivedStore::AppendPrometheus(std::string* out) const {
  obs::AppendCounter(out, "perfiface_derived_hits_total",
                     "Component results served from exact derived (max-plus) interfaces",
                     hits());
  obs::AppendCounter(
      out, "perfiface_derived_refusals_total",
      "Derived-tier consultations refused (compilation or serving; fell back to simulation)",
      refusals());
  obs::AppendCounter(out, "perfiface_derived_distilled_total",
                     "Components compiled into exact derived (max-plus) interfaces",
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
