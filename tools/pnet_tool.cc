// pnet_tool — command-line workbench for .pnet performance interfaces.
//
//   pnet_tool lint <file.pnet>               parse + structural lint
//   pnet_tool show <file.pnet>               summary (after `use` expansion)
//       [--dump-expr-bytecode]  register bytecode of every delay/guard
//                               expression (the unified IR the sim and the
//                               exact derived tier execute) and its value
//                               when it is a constant
//   pnet_tool expand <file.pnet>             print the document, `use` expanded,
//                                            in canonical text
//   pnet_tool run <file.pnet> <inject place attr=v[,attr=v...] xN> ...
//       [--observe place] [--until T]
//       [--trace out.json]  Chrome trace of the run (firing events,
//                           tokens-in-flight track; docs/observability.md)
//       [--metrics]         Prometheus counters of the run
//
// Example:
//   pnet_tool run src/core/interfaces/jpeg.pnet
//       --observe done inject hdr_in x1 inject vld_in bits=80,blocks=8 x40
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/loc.h"
#include "src/common/strings.h"
#include "src/core/pnet.h"
#include "src/obs/build_info.h"
#include "src/obs/trace.h"
#include "src/perfscript/compile.h"
#include "src/petri/analysis.h"
#include "src/petri/sim.h"

namespace perfiface {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pnet_tool <lint|show|expand|run> <file.pnet> [args]\n"
               "  show args: [--dump-expr-bytecode]\n"
               "  run args: [--observe PLACE] [--until T] [--trace FILE] [--metrics]\n"
               "            inject PLACE [attr=v,attr=v...] [xN]\n");
  return 2;
}

std::string DirOf(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

LoadedNet LoadOrDie(const std::string& path) {
  LoadedNet loaded = LoadPnetFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.error.c_str());
    std::exit(1);
  }
  return loaded;
}

int CmdLint(const std::string& path) {
  const LoadedNet loaded = LoadOrDie(path);
  const auto issues = LintNet(*loaded.net);
  for (const std::string& issue : issues) {
    std::printf("lint: %s\n", issue.c_str());
  }
  std::printf("%s: %s (%zu issue%s)\n", path.c_str(), issues.empty() ? "clean" : "has issues",
              issues.size(), issues.size() == 1 ? "" : "s");
  return issues.empty() ? 0 : 1;
}

// --dump-expr-bytecode: the register form every delay/guard expression was
// lowered onto (the same bytecode the sim and the exact derived tier
// execute), and its value when it is a constant.
void DumpExprBytecode(const LoadedNet& loaded) {
  for (const TransitionSpec& t : loaded.net->transitions()) {
    for (const auto& [label, compiled] :
         {std::pair<const char*, const CompiledExpr*>{"delay", t.delay_compiled.get()},
          std::pair<const char*, const CompiledExpr*>{"guard", t.guard_compiled.get()}}) {
      if (compiled == nullptr) {
        continue;
      }
      const std::optional<double> constant = compiled->ConstantValue();
      if (constant.has_value()) {
        std::printf("  %s.%s: constant = %.17g\n", t.name.c_str(), label, *constant);
      } else {
        std::printf("  %s.%s: general\n", t.name.c_str(), label);
      }
      std::fputs(compiled->DisassembleRegs().c_str(), stdout);
    }
  }
}

int CmdShow(const std::string& path, bool dump_bytecode) {
  const LoadedNet loaded = LoadOrDie(path);
  const NetSummary s = Summarize(*loaded.net);
  std::printf("net %s\n", loaded.name.c_str());
  std::printf("  places: %zu, transitions: %zu, arcs: %zu, bounded: %s\n", s.places,
              s.transitions, s.arcs, s.structurally_bounded ? "yes" : "no");
  std::printf("  attrs:");
  for (const std::string& a : loaded.net->attr_names()) {
    std::printf(" %s", a.c_str());
  }
  std::printf("\n  spec LoC: %zu\n", CountLocInFile(path, LocSyntax::kPnet));
  for (const Place& p : loaded.net->places()) {
    std::printf("  place %-16s cap=%zu init=%zu\n", p.name.c_str(), p.capacity,
                p.initial_tokens);
  }
  for (const TransitionSpec& t : loaded.net->transitions()) {
    std::printf("  trans %-16s in=%zu out=%zu servers=%zu%s\n", t.name.c_str(),
                t.inputs.size(), t.outputs.size(), t.servers, t.has_guard() ? " guarded" : "");
  }
  if (dump_bytecode) {
    DumpExprBytecode(loaded);
  }
  return 0;
}

int CmdExpand(const std::string& path) {
  std::string text;
  PnetExpansion expanded;
  if (ReadFile(path, &text, &expanded.error)) {
    expanded = ExpandPnetIncludes(text, DirOf(path));
  }
  if (!expanded.ok) {
    std::fprintf(stderr, "error: %s\n", expanded.error.c_str());
    return 1;
  }
  std::fputs(expanded.text.c_str(), stdout);
  return 0;
}

int CmdRun(const std::string& path, const std::vector<std::string>& args) {
  const LoadedNet loaded = LoadOrDie(path);
  PetriSim sim(loaded.net.get());

  std::vector<PlaceId> observed;
  Cycles until = 1ULL << 40;
  std::string trace_path;
  bool metrics = false;
  std::size_t i = 0;
  struct Injection {
    PlaceId place;
    Token token;
    std::size_t count;
  };
  std::vector<Injection> injections;

  while (i < args.size()) {
    const std::string& arg = args[i];
    if (arg == "--observe" && i + 1 < args.size()) {
      if (!loaded.net->HasPlace(args[i + 1])) {
        std::fprintf(stderr, "error: no place '%s'\n", args[i + 1].c_str());
        return 1;
      }
      observed.push_back(loaded.net->PlaceByName(args[i + 1]));
      sim.Observe(observed.back());
      i += 2;
    } else if (arg == "--until" && i + 1 < args.size()) {
      if (ParseDecimal(args[i + 1], &until) != std::errc()) {
        std::fprintf(stderr, "error: bad --until '%s'\n", args[i + 1].c_str());
        return 1;
      }
      i += 2;
    } else if (arg == "--trace" && i + 1 < args.size()) {
      trace_path = args[i + 1];
      i += 2;
    } else if (arg == "--metrics") {
      metrics = true;
      ++i;
    } else if (arg == "inject" && i + 1 < args.size()) {
      Injection inj;
      if (!loaded.net->HasPlace(args[i + 1])) {
        std::fprintf(stderr, "error: no place '%s'\n", args[i + 1].c_str());
        return 1;
      }
      inj.place = loaded.net->PlaceByName(args[i + 1]);
      inj.count = 1;
      inj.token.attrs.assign(loaded.net->attr_names().size(), 0);
      i += 2;
      // Optional attr list and repeat count.
      while (i < args.size() && args[i] != "inject" && !StartsWith(args[i], "--")) {
        if (args[i].size() > 1 && args[i][0] == 'x' &&
            std::isdigit(static_cast<unsigned char>(args[i][1]))) {
          if (ParseDecimal(std::string_view(args[i]).substr(1), &inj.count) != std::errc()) {
            std::fprintf(stderr, "error: bad repeat count '%s'\n", args[i].c_str());
            return 1;
          }
        } else {
          for (const std::string& kv : SplitString(args[i], ',')) {
            const auto eq = kv.find('=');
            if (eq == std::string::npos) {
              std::fprintf(stderr, "error: bad attr '%s'\n", kv.c_str());
              return 1;
            }
            const std::size_t slot = loaded.net->FindAttr(kv.substr(0, eq));
            if (slot == PetriNet::kNoAttr) {
              std::fprintf(stderr, "error: unknown attr '%s'\n", kv.substr(0, eq).c_str());
              return 1;
            }
            if (ParseDecimal(std::string_view(kv).substr(eq + 1), &inj.token.attrs[slot]) !=
                std::errc()) {
              std::fprintf(stderr, "error: bad number in '%s'\n", kv.c_str());
              return 1;
            }
          }
        }
        ++i;
      }
      injections.push_back(inj);
    } else {
      return Usage();
    }
  }

  for (const Injection& inj : injections) {
    for (std::size_t k = 0; k < inj.count; ++k) {
      sim.Inject(inj.place, inj.token);
    }
  }
  if (!trace_path.empty()) {
    obs::Tracer::Global().Start();
  }
  const bool quiesced = sim.Run(until);
  if (!trace_path.empty()) {
    obs::Tracer::Global().Stop();
    if (!obs::Tracer::Global().WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace: wrote %s\n", trace_path.c_str());
    }
  }
  if (metrics) {
    std::string scrape;
    obs::AppendBuildInfoMetrics(&scrape);
    AppendPnetPrometheus(&scrape, PnetCounts{1, sim.total_firings()});
    std::fputs(scrape.c_str(), stdout);
  }
  if (!sim.error().empty()) {
    std::fprintf(stderr, "error: %s\n", sim.error().c_str());
    return 1;
  }
  std::printf("%s at t=%llu after %llu firings\n", quiesced ? "quiesced" : "stopped",
              static_cast<unsigned long long>(sim.now()),
              static_cast<unsigned long long>(sim.total_firings()));
  for (PlaceId p : observed) {
    const auto& log = sim.arrivals(p);
    std::printf("place %s: %zu arrivals", loaded.net->places()[p].name.c_str(), log.size());
    if (!log.empty()) {
      std::printf(", first=%llu last=%llu", static_cast<unsigned long long>(log.front().time),
                  static_cast<unsigned long long>(log.back().time));
      if (log.size() >= 2 && log.back().time > log.front().time) {
        std::printf(", steady tput=%.6f tokens/cycle",
                    static_cast<double>(log.size() - 1) /
                        static_cast<double>(log.back().time - log.front().time));
      }
    }
    std::printf("\n");
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  std::vector<std::string> rest;
  for (int i = 3; i < argc; ++i) {
    rest.emplace_back(argv[i]);
  }
  if (cmd == "lint") {
    return CmdLint(path);
  }
  if (cmd == "show") {
    bool dump_bytecode = false;
    for (const std::string& arg : rest) {
      if (arg == "--dump-expr-bytecode") {
        dump_bytecode = true;
      } else {
        return Usage();
      }
    }
    return CmdShow(path, dump_bytecode);
  }
  if (cmd == "expand") {
    return CmdExpand(path);
  }
  if (cmd == "run") {
    return CmdRun(path, rest);
  }
  return Usage();
}

}  // namespace
}  // namespace perfiface

int main(int argc, char** argv) { return perfiface::Main(argc, argv); }
