#include "src/petri/sim.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/obs/exposition.h"
#include "src/obs/trace.h"
#include "src/perfscript/compile.h"

namespace perfiface {

PetriSim::PetriSim(const PetriNet* net)
    : owned_(std::make_unique<CompiledNet>(net)), cnet_(owned_.get()) {
  Reset();
}

PetriSim::PetriSim(const CompiledNet* compiled, std::size_t component)
    : cnet_(compiled), component_(component) {
  PI_CHECK(cnet_ != nullptr);
  PI_CHECK(component_ == kAllComponents || component_ < cnet_->num_components());
  Reset();
}

void PetriSim::Reset() {
  now_ = 0;
  seq_ = 0;
  total_firings_ = 0;
  budget_exhausted_ = false;
  error_.clear();
  // Preserve which places are instrumented across resets; only markings,
  // logs and in-flight firings are cleared.
  std::vector<bool> observed(cnet_->num_places(), false);
  for (std::size_t i = 0; i < places_.size(); ++i) {
    observed[i] = places_[i].observed;
  }
  places_.clear();
  places_.resize(cnet_->num_places());
  for (std::size_t i = 0; i < places_.size(); ++i) {
    places_[i].observed = observed[i];
    for (std::size_t k = 0; k < cnet_->places()[i].initial_tokens; ++k) {
      places_[i].tokens.push_back(Token{});
    }
  }
  busy_servers_.assign(cnet_->num_transitions(), 0);
  events_.clear();
  slab_.clear();
  free_slots_.clear();
  // A component-restricted sim seeds the worklist with that component's
  // transitions only; TryStart additionally refuses out-of-component
  // firings (tokens injected into a foreign component's place would
  // otherwise re-mark its watchers).
  pending_.assign(cnet_->num_transitions(), false);
  for (std::size_t t = 0; t < cnet_->num_transitions(); ++t) {
    if (component_ == kAllComponents || cnet_->transitions()[t].component == component_) {
      pending_[t] = true;
    }
  }
  if (log_ != nullptr) {
    log_->Reset(*cnet_);
  }
}

void PetriSim::set_firing_log(FiringLog* log) {
  log_ = log;
  if (log_ != nullptr) {
    log_->Reset(*cnet_);
  }
}

void PetriSim::Inject(PlaceId place, Token token) {
  PI_CHECK(place < places_.size());
  token.injected_at = now_;
  if (log_ != nullptr) {
    log_->Inject(place);
  }
  Deposit(place, std::move(token));
}

void PetriSim::InjectPlan(const std::vector<std::pair<PlaceId, int>>& plan,
                          const Token& token) {
  for (const auto& [place, count] : plan) {
    if (component_ == kAllComponents || cnet_->places()[place].component == component_) {
      for (int i = 0; i < count; ++i) {
        Inject(place, token);
      }
    }
  }
}

void PetriSim::Observe(PlaceId place) {
  PI_CHECK(place < places_.size());
  places_[place].observed = true;
}

const std::vector<Arrival>& PetriSim::arrivals(PlaceId place) const {
  PI_CHECK(place < places_.size());
  return places_[place].log;
}

std::size_t PetriSim::tokens_at(PlaceId place) const {
  PI_CHECK(place < places_.size());
  return places_[place].tokens.size();
}

void PetriSim::MarkTransition(TransitionId t) { pending_[t] = true; }

void PetriSim::MarkPlaceChanged(PlaceId place) {
  const CompiledNet::PlaceInfo& info = cnet_->places()[place];
  const std::vector<std::uint32_t>& watchers = cnet_->watchers();
  for (std::uint32_t w = info.watch_begin; w < info.watch_end; ++w) {
    pending_[watchers[w]] = true;
  }
}

void PetriSim::Deposit(PlaceId place, Token token) {
  PlaceState& ps = places_[place];
  if (ps.observed) {
    ps.log.push_back(Arrival{now_, token});
  }
  ps.tokens.push_back(std::move(token));
  MarkPlaceChanged(place);
}

bool PetriSim::TryStart(TransitionId t) {
  const CompiledNet::Transition& trans = cnet_->transitions()[t];
  // Component restriction is enforced here, not only at Reset: injecting
  // into another component's place marks its watchers pending, and those
  // must still never fire.
  if (component_ != kAllComponents && trans.component != component_) {
    return false;
  }
  if (budget_exhausted_ || !error_.empty() || busy_servers_[t] >= trans.servers) {
    return false;
  }
  const std::vector<CompiledNet::CompiledArc>& in_arcs = cnet_->inputs();
  const std::vector<CompiledNet::CompiledArc>& out_arcs = cnet_->outputs();

  for (std::uint32_t i = trans.in_begin; i < trans.in_end; ++i) {
    if (places_[in_arcs[i].place].tokens.size() < in_arcs[i].weight) {
      return false;
    }
  }
  // The expressions read the primary input token: the first arc's front.
  const Token& primary = places_[in_arcs[trans.in_begin].place].tokens.front();
  const auto attr = [&primary](std::uint32_t slot) { return primary.Attr(slot); };
  if (trans.guard_const) {
    if (!trans.guard_value) {
      return false;
    }
  } else if (trans.guard_code != nullptr) {
    double g = 0;
    if (!trans.guard_code->EvalRegs(attr, &g, &error_)) {
      return Fail(t, "guard");
    }
    if (g == 0.0) {
      return false;
    }
  }

  // Check output room (blocking-before-service). Consumption by this firing
  // from places on both sides was precomputed at compile time.
  if (trans.has_bounded_output) {
    for (std::uint32_t i = trans.out_begin; i < trans.out_end; ++i) {
      const CompiledNet::CompiledArc& out = out_arcs[i];
      const std::uint32_t capacity = cnet_->places()[out.place].capacity;
      if (capacity == 0) {
        continue;
      }
      const PlaceState& ps = places_[out.place];
      const std::size_t occupied = ps.tokens.size() + ps.reserved - out.consumed_from_place;
      if (occupied + out.weight > capacity) {
        return false;
      }
    }
  }

  // Compute the delay while the primary token is still in its place.
  // Constant delays were range-checked and rounded at net-compile time.
  Cycles delay = trans.const_delay;
  if (!trans.delay_const) {
    double v = 0;
    if (!trans.delay_code->EvalRegs(attr, &v, &error_)) {
      return Fail(t, "delay");
    }
    if (!(v >= 0 && v < 1e15)) {
      error_ = StrFormat("%.17g is outside [0, 1e15)", v);
      return Fail(t, "delay");
    }
    delay = static_cast<Cycles>(std::llround(v));
  }

  // Consume inputs into a scheduled slab slot; only the primary token
  // travels on.
  Firing& f = ScheduleFiring(now_ + delay);
  f.transition = t;
  if (log_ != nullptr) {
    f.logged = log_->Start(*cnet_, t, now_, delay);
  }
  f.primary = std::move(places_[in_arcs[trans.in_begin].place].tokens.front());
  for (std::uint32_t i = trans.in_begin; i < trans.in_end; ++i) {
    PlaceState& ps = places_[in_arcs[i].place];
    for (std::uint32_t k = 0; k < in_arcs[i].weight; ++k) {
      ps.tokens.pop_front();
    }
    // Popping frees capacity: upstream producers may become enabled.
    MarkPlaceChanged(in_arcs[i].place);
  }

  // Reserve output room.
  for (std::uint32_t i = trans.out_begin; i < trans.out_end; ++i) {
    places_[out_arcs[i].place].reserved += out_arcs[i].weight;
  }

  ++busy_servers_[t];
  ++total_firings_;
  if (total_firings_ >= max_firings_) {
    // Clean stop, not an abort: callers serving untrusted nets (the
    // prediction service) must be able to reject a pathological net
    // (zero-delay loop, unbounded token growth) without taking down the
    // process. Run() reports the truncation through its return value.
    budget_exhausted_ = true;
  }
  return true;
}

bool PetriSim::Fail(TransitionId t, const char* what) {
  error_ = StrFormat("transition '%s': %s: %s",
                     cnet_->source().transitions()[t].name.c_str(), what, error_.c_str());
  return false;
}

void PetriSim::StartAll() {
  // Deterministic worklist: always service the lowest-id pending transition,
  // which reproduces the firing order of a full in-order rescan.
  for (;;) {
    TransitionId next = pending_.size();
    for (TransitionId t = 0; t < pending_.size(); ++t) {
      if (pending_[t]) {
        next = t;
        break;
      }
    }
    if (next == pending_.size()) {
      return;
    }
    pending_[next] = false;
    while (TryStart(next)) {
    }
  }
}

void PetriSim::Complete(const Firing& f) {
  const CompiledNet::Transition& trans = cnet_->transitions()[f.transition];
  const std::vector<CompiledNet::CompiledArc>& out_arcs = cnet_->outputs();
  if (log_ != nullptr) {
    log_->Complete(*cnet_, f.logged);
  }
  for (std::uint32_t i = trans.out_begin; i < trans.out_end; ++i) {
    const CompiledNet::CompiledArc& out = out_arcs[i];
    PI_CHECK(places_[out.place].reserved >= out.weight);
    places_[out.place].reserved -= out.weight;
    for (std::uint32_t k = 0; k < out.weight; ++k) {
      Deposit(out.place, f.primary);
    }
  }

  PI_CHECK(busy_servers_[f.transition] > 0);
  --busy_servers_[f.transition];
  // A freed server may allow the next firing of this transition.
  MarkTransition(f.transition);
}

PetriSim::Firing& PetriSim::ScheduleFiring(Cycles complete_at) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  events_.push_back(EventRef{complete_at, seq_++, slot});
  std::push_heap(events_.begin(), events_.end(), FiringOrder());
  return slab_[slot];
}

bool PetriSim::Run(Cycles max_time) {
  // Tracing cost is decided once per run: the per-firing instants below are
  // subject to the tracer's sampling knob, the loop itself only pays a
  // relaxed load when tracing is off.
  obs::Tracer& tracer = obs::Tracer::Global();
  const bool traced = tracer.enabled();
  obs::SpanGuard span("pnet", "run");
  const std::uint64_t firings_before = total_firings_;

  const bool quiesced = [&] {
    for (;;) {
      StartAll();
      if (traced) {
        // In-flight firings == tokens currently being processed.
        tracer.Counter("pnet", "tokens_in_flight", static_cast<double>(events_.size()));
      }
      if (!error_.empty()) {
        return false;
      }
      if (budget_exhausted_) {
        if (traced) {
          // The clean stop is an event worth pinning on the timeline: it is
          // the difference between "the net quiesced" and "the service gave
          // up on a pathological net" (PR 1's budget fix).
          tracer.Instant("pnet", "budget_exhausted", "firings",
                         static_cast<double>(total_firings_));
        }
        return false;
      }
      if (events_.empty()) {
        return true;
      }
      const Cycles t = events_.front().complete_at;
      if (t > max_time) {
        now_ = max_time;
        return false;
      }
      now_ = t;
      while (!events_.empty() && events_.front().complete_at == now_) {
        std::pop_heap(events_.begin(), events_.end(), FiringOrder());
        const std::uint32_t slot = events_.back().slot;
        events_.pop_back();
        const TransitionId fired = slab_[slot].transition;
        Complete(slab_[slot]);
        free_slots_.push_back(slot);
        if (traced) {
          tracer.Instant("pnet", "fire", "sim_time", static_cast<double>(now_), "transition",
                         std::string(cnet_->source().transitions()[fired].name));
        }
      }
    }
  }();

  if (span.active()) {
    span.SetArg("firings", static_cast<double>(total_firings_ - firings_before));
  }
  return quiesced;
}

void FiringLog::Reset(const CompiledNet& net) {
  const std::size_t n = net.num_places();
  firings_.clear();
  deposits_.assign(n, {});
  room_takers_.assign(n, {});
  shadow_.assign(n, {});
  taken_.assign(n, 0);
  popped_by_.assign(n, {});
  for (std::size_t p = 0; p < n; ++p) {
    taken_[p] = net.places()[p].initial_tokens;
    shadow_[p].assign(net.places()[p].initial_tokens, Shadow{kNone, true});
  }
}

void FiringLog::Inject(PlaceId place) {
  ++taken_[place];
  shadow_[place].push_back(Shadow{kNone, false});
}

std::uint32_t FiringLog::Start(const CompiledNet& net, TransitionId t, Cycles now,
                               Cycles delay) {
  const CompiledNet::Transition& trans = net.transitions()[t];
  const auto index = static_cast<std::uint32_t>(firings_.size());
  Firing f;
  f.transition = static_cast<std::uint32_t>(t);
  f.start = now;
  f.delay = delay;
  for (std::uint32_t i = trans.in_begin; i < trans.in_end; ++i) {
    const CompiledNet::CompiledArc& in = net.inputs()[i];
    for (std::uint32_t k = 0; k < in.weight; ++k) {
      const Shadow token = shadow_[in.place].front();
      shadow_[in.place].pop_front();
      if (f.producers.empty()) {
        f.primary_initial = token.initial;
      }
      f.producers.push_back(token.producer);
      popped_by_[in.place].push_back(index);
    }
  }
  // The engine admits an output arc when the units taken so far, minus
  // those popped (this firing's own pops included), leave room for the
  // arc's weight; the pop that made the last needed unit free is the
  // enabling event. Each arc is checked against the marking before this
  // firing's own reservations, as TryStart does.
  for (std::uint32_t i = trans.out_begin; i < trans.out_end; ++i) {
    const CompiledNet::CompiledArc& out = net.outputs()[i];
    const std::uint64_t capacity = net.places()[out.place].capacity;
    if (capacity == 0) {
      continue;
    }
    const std::uint64_t needed = taken_[out.place] + out.weight;
    std::uint32_t from = kNone;
    if (needed > capacity) {
      from = popped_by_[out.place][needed - capacity - 1];
    }
    f.room_from.push_back(from == index ? kNone : from);
    room_takers_[out.place].push_back(index);
  }
  for (std::uint32_t i = trans.out_begin; i < trans.out_end; ++i) {
    taken_[net.outputs()[i].place] += net.outputs()[i].weight;
  }
  firings_.push_back(std::move(f));
  return index;
}

void FiringLog::Complete(const CompiledNet& net, std::uint32_t firing) {
  const CompiledNet::Transition& trans = net.transitions()[firings_[firing].transition];
  const Shadow made{firing, firings_[firing].primary_initial};
  for (std::uint32_t i = trans.out_begin; i < trans.out_end; ++i) {
    const CompiledNet::CompiledArc& out = net.outputs()[i];
    for (std::uint32_t k = 0; k < out.weight; ++k) {
      shadow_[out.place].push_back(made);
      deposits_[out.place].push_back(firing);
    }
  }
}

void AppendPnetPrometheus(std::string* out, const PnetCounts& counts) {
  obs::AppendCounter(out, "perfiface_pnet_runs_total", "Petri-net simulation runs", counts.runs);
  obs::AppendCounter(out, "perfiface_pnet_firings_total", "Petri-net transition firings",
                     counts.firings);
}

}  // namespace perfiface
