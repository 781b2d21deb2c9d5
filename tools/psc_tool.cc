// psc_tool — command-line runner for PerfScript interface programs.
//
//   psc_tool check <file.psc>                       parse only
//   psc_tool list <file.psc>                        list functions
//   psc_tool eval <file.psc> <function> [k=v ...]   call with an object
//       [--const name=value ...]                    define globals
//       [--json]                                    machine-readable result
//       [--trace out.json]                          Chrome trace of the call
//       [--metrics]                                 Prometheus counters of
//                                                   the call
//       [--no-compile]                              run the reference
//                                                   tree-walking interpreter
//                                                   instead of the bytecode VM
//       [--dump-bytecode]                           print the compiled
//                                                   bytecode before the call
//
// The workload object passed to the function exposes the k=v pairs as
// attributes. Nested objects (for `for sub in msg:`) can be expressed with
// the children=N shorthand, which attaches N identical child objects
// carrying the same attributes (enough to exercise recursive interfaces
// like Fig 3's read_cost from the shell).
//
// Example:
//   psc_tool eval src/core/interfaces/protoacc_fig3.psc tput_protoacc_ser
//       --const avg_mem_latency=60 num_fields=12 num_writes=9 children=2
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/common/loc.h"
#include "src/common/strings.h"
#include "src/obs/build_info.h"
#include "src/obs/exposition.h"
#include "src/obs/trace.h"
#include "src/perfscript/compile.h"
#include "src/perfscript/interp.h"
#include "src/perfscript/kv_object.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/vm.h"

namespace perfiface {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: psc_tool <check|list> <file.psc>\n"
               "       psc_tool eval <file.psc> <function> [--const n=v ...] [--json]\n"
               "                [--no-compile] [--dump-bytecode] [k=v ...]\n");
  return 2;
}

Program ParseOrDie(const std::string& path) {
  std::string source;
  std::string error;
  if (!ReadFile(path, &source, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());  // "cannot read <path>: <reason>"
    std::exit(1);
  }
  ParseResult parsed = ParseProgram(source);
  if (!parsed.ok) {
    std::fprintf(stderr, "parse error: %s\n", parsed.error.c_str());
    std::exit(1);
  }
  return std::move(parsed.program);
}

int CmdCheck(const std::string& path) {
  (void)ParseOrDie(path);
  std::printf("%s: ok (%zu effective LoC)\n", path.c_str(),
              CountLocInFile(path, LocSyntax::kScript));
  return 0;
}

int CmdList(const std::string& path) {
  const Program program = ParseOrDie(path);
  for (const FunctionDef& f : program.functions) {
    std::printf("%s(", f.name.c_str());
    for (std::size_t i = 0; i < f.params.size(); ++i) {
      std::printf("%s%s", i == 0 ? "" : ", ", f.params[i].c_str());
    }
    std::printf(")\n");
  }
  return 0;
}

int CmdEval(const std::string& path, const std::string& function,
            const std::vector<std::string>& args) {
  const Program program = ParseOrDie(path);

  KvObject root;
  std::vector<std::pair<std::string, double>> constants;
  int children = 0;
  bool json = false;
  bool metrics = false;
  bool compile = true;
  bool dump_bytecode = false;
  std::string trace_path;
  std::size_t i = 0;
  while (i < args.size()) {
    if (args[i] == "--json") {
      json = true;
      ++i;
      continue;
    }
    if (args[i] == "--metrics") {
      metrics = true;
      ++i;
      continue;
    }
    if (args[i] == "--no-compile") {
      compile = false;
      ++i;
      continue;
    }
    if (args[i] == "--dump-bytecode") {
      dump_bytecode = true;
      ++i;
      continue;
    }
    if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_path = args[i + 1];
      i += 2;
      continue;
    }
    if (args[i] == "--const" && i + 1 < args.size()) {
      const auto eq = args[i + 1].find('=');
      double value = 0;
      if (eq == std::string::npos ||
          ParseDecimal(std::string_view(args[i + 1]).substr(eq + 1), &value) != std::errc()) {
        return Usage();
      }
      constants.emplace_back(args[i + 1].substr(0, eq), value);
      i += 2;
      continue;
    }
    const auto eq = args[i].find('=');
    if (eq == std::string::npos) {
      return Usage();
    }
    const std::string key = args[i].substr(0, eq);
    const std::string_view text = std::string_view(args[i]).substr(eq + 1);
    double value = 0;
    if (key == "children" ? ParseDecimal(text, &children) != std::errc()
                          : ParseDecimal(text, &value) != std::errc()) {
      std::fprintf(stderr, "bad number in '%s'\n", args[i].c_str());
      return Usage();
    }
    if (key != "children") {
      root.Set(key, value);
    }
    ++i;
  }
  root.AddUniformChildren(children);

  // Default path mirrors the serve workers: lower to bytecode (constants
  // folded in) and run on the VM. --no-compile runs the reference
  // interpreter instead (the VM's test oracle).
  std::shared_ptr<const CompiledProgram> compiled;
  if (compile || dump_bytecode) {
    CompileProgramResult compiled_result = CompileProgram(program, constants);
    if (!compiled_result.ok()) {
      std::fprintf(stderr, "compile error: %s\n", compiled_result.error.c_str());
      return 1;
    }
    compiled = std::move(compiled_result.program);
    if (dump_bytecode) {
      std::fputs(compiled->Disassemble().c_str(), stdout);
    }
  }

  if (!trace_path.empty()) {
    obs::Tracer::Global().Start();
  }
  EvalResult result;
  VmCounts counts;  // this one call's; the interpreter has no call memo
  if (compile) {
    Vm vm(compiled);
    result = vm.Call(function, {Value::Object(&root)});
    counts.calls = compiled->FindIndex(function) >= 0 ? 1 : 0;
    counts.steps = vm.steps_used();
    counts.memo_hits = vm.memo_hits();
  } else {
    Interpreter interp(&program);
    for (const auto& c : constants) {
      interp.SetGlobal(c.first, c.second);
    }
    result = interp.Call(function, {Value::Object(&root)});
    counts.calls = program.Find(function) != nullptr ? 1 : 0;
    counts.steps = interp.steps_used();
  }
  counts.errors = result.ok ? 0 : 1;
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
    if (compile) {
      AppendVmPrometheus(&scrape, counts);
    } else {
      obs::AppendCounter(&scrape, "perfiface_interp_calls_total",
                         "Top-level PerfScript interpreter calls", counts.calls);
      obs::AppendCounter(&scrape, "perfiface_interp_steps_total",
                         "PerfScript interpreter steps executed", counts.steps);
      obs::AppendCounter(&scrape, "perfiface_interp_errors_total",
                         "PerfScript interpreter calls that failed", counts.errors);
    }
    std::fputs(scrape.c_str(), stdout);
  }
  if (json) {
    // Errors also go to stdout in JSON mode so one stream is parseable.
    std::string out = result.ok ? "{\"ok\":true,\"function\":" : "{\"ok\":false,\"function\":";
    AppendJsonString(&out, function);
    if (!result.ok) {
      out += ",\"error\":";
      AppendJsonString(&out, result.error);
    } else if (result.value.IsNumber()) {
      out += StrFormat(",\"value\":%.17g", result.value.num);
    } else {
      out += ",\"value\":null";
    }
    std::printf("%s}\n", out.c_str());
    return result.ok ? 0 : 1;
  }
  if (!result.ok) {
    std::fprintf(stderr, "runtime error: %s\n", result.error.c_str());
    return 1;
  }
  if (result.value.IsNumber()) {
    std::printf("%.10g\n", result.value.num);
  } else {
    std::printf("<object>\n");
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  if (cmd == "check") {
    return CmdCheck(path);
  }
  if (cmd == "list") {
    return CmdList(path);
  }
  if (cmd == "eval") {
    if (argc < 4) {
      return Usage();
    }
    std::vector<std::string> rest;
    for (int i = 4; i < argc; ++i) {
      rest.emplace_back(argv[i]);
    }
    return CmdEval(path, argv[3], rest);
  }
  return Usage();
}

}  // namespace
}  // namespace perfiface

int main(int argc, char** argv) { return perfiface::Main(argc, argv); }
