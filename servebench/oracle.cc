// The answer oracle: the tree-walking Interpreter for programs and a
// whole-net PetriSim on a freshly compiled net for Petri nets — the
// references the service's fast tiers must match bit for bit.
#include <cstdlib>
#include <unordered_map>

#include "servebench/bench.h"
#include "src/common/strings.h"
#include "src/core/pnet.h"
#include "src/perfscript/interp.h"
#include "src/perfscript/kv_object.h"
#include "src/petri/compiled_net.h"
#include "src/petri/sim.h"

namespace servebench {

namespace {

// The service's event horizon for pnet runs (nets that never quiesce).
constexpr perfiface::Cycles kRunHorizon = 1ULL << 40;

struct ProgramOracle {
  perfiface::ProgramInterface iface;
  std::unique_ptr<perfiface::Interpreter> interp;
};

struct NetOracle {
  perfiface::LoadedNet loaded;
  std::unique_ptr<perfiface::CompiledNet> compiled;
};

}  // namespace

struct Oracle::Impl {
  const perfiface::InterfaceRegistry* registry;
  std::unordered_map<std::string, std::unique_ptr<ProgramOracle>> programs;
  std::unordered_map<std::string, std::unique_ptr<NetOracle>> nets;

  ProgramOracle& Program(const std::string& name) {
    std::unique_ptr<ProgramOracle>& slot = programs[name];
    if (slot == nullptr) {
      slot = std::make_unique<ProgramOracle>(ProgramOracle{registry->LoadProgram(name), nullptr});
      slot->interp = std::make_unique<perfiface::Interpreter>(slot->iface.program().get());
      for (const auto& [constant, value] : slot->iface.constants()) {
        slot->interp->SetGlobal(constant, value);
      }
    }
    return *slot;
  }

  NetOracle* Net(const std::string& name, std::string* why) {
    std::unique_ptr<NetOracle>& slot = nets[name];
    if (slot == nullptr) {
      auto net = std::make_unique<NetOracle>();
      net->loaded = perfiface::LoadPnetFile(registry->Get(name).pnet_path);
      if (!net->loaded.ok()) {
        *why = net->loaded.error;
        nets.erase(name);
        return nullptr;
      }
      net->compiled = std::make_unique<perfiface::CompiledNet>(net->loaded.net.get());
      slot = std::move(net);
    }
    return slot.get();
  }
};

Oracle::Oracle(const perfiface::InterfaceRegistry& registry) : impl_(std::make_unique<Impl>()) {
  impl_->registry = &registry;
}

Oracle::~Oracle() = default;

bool Oracle::Answer(const PredictRequest& request, double* value, std::string* why) {
  if (!request.function.empty()) {
    ProgramOracle& program = impl_->Program(request.interface);
    perfiface::KvObject workload;
    for (const auto& [name, v] : request.attrs) {
      workload.Set(name, v);
    }
    workload.AddUniformChildren(request.children);
    const perfiface::EvalResult result =
        program.interp->Call(request.function, {perfiface::Value::Object(&workload)});
    if (!result.ok || !result.value.IsNumber()) {
      *why = result.ok ? "non-numeric result" : result.error;
      return false;
    }
    *value = result.value.num;
    return true;
  }

  NetOracle* net = impl_->Net(request.interface, why);
  if (net == nullptr) {
    return false;
  }
  const perfiface::PetriNet& pn = *net->loaded.net;
  perfiface::Token token;
  token.attrs.assign(pn.attr_names().size(), 0.0);
  for (const auto& [name, v] : request.attrs) {
    const std::size_t slot = pn.FindAttr(name);
    if (slot != perfiface::PetriNet::kNoAttr) {
      token.attrs[slot] = v;
    }
  }
  perfiface::PetriSim sim(net->compiled.get());
  // The benchmark only generates explicit "place:count" plans.
  for (const std::string& item : perfiface::SplitString(request.entry_place, ',')) {
    const std::size_t colon = item.find(':');
    const std::string place = item.substr(0, colon);
    if (colon == std::string::npos || !pn.HasPlace(place)) {
      *why = "unsupported entry place item '" + item + "'";
      return false;
    }
    const int count = std::atoi(item.c_str() + colon + 1);
    for (int i = 0; i < count; ++i) {
      sim.Inject(pn.PlaceByName(place), token);
    }
  }
  if (!sim.Run(kRunHorizon)) {
    *why = "net did not quiesce";
    return false;
  }
  *value = static_cast<double>(sim.now());
  return true;
}

}  // namespace servebench
