// Transitions for nets built in code, shared by the Petri-net suites. Their
// delay and guard text compiles through the .pnet loader's own binder
// (CompileNetExpr), so a hand-built net behaves, hashes and derives exactly
// like the same net loaded from a .pnet file.
#ifndef TESTS_NET_BUILDER_H_
#define TESTS_NET_BUILDER_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/core/pnet.h"
#include "src/petri/net.h"

namespace perfiface::testing {

// `delay` and `guard` ("" for none) may name the attributes `net` has
// registered so far. Aborts, printing the compile error, on bad text.
inline TransitionSpec ExprTransition(const PetriNet& net, std::string name,
                                     std::vector<Arc> inputs, std::vector<Arc> outputs,
                                     const std::string& delay, std::size_t servers = 1,
                                     const std::string& guard = "") {
  TransitionSpec spec;
  spec.name = std::move(name);
  spec.inputs = std::move(inputs);
  spec.outputs = std::move(outputs);
  spec.servers = servers;
  std::string error;
  spec.delay_compiled = CompileNetExpr(delay, net, {}, &error);
  PI_CHECK_MSG(spec.delay_compiled != nullptr, error.c_str());
  if (!guard.empty()) {
    spec.guard_compiled = CompileNetExpr(guard, net, {}, &error);
    PI_CHECK_MSG(spec.guard_compiled != nullptr, error.c_str());
  }
  return spec;
}

}  // namespace perfiface::testing

#endif  // TESTS_NET_BUILDER_H_
