#include "src/core/program_interface.h"

#include "src/common/check.h"
#include "src/common/loc.h"
#include "src/obs/trace.h"
#include "src/perfscript/parser.h"
#include "src/perfscript/vm.h"

namespace perfiface {

ProgramInterface ProgramInterface::FromSource(const std::string& source) {
  ProgramInterface out;
  out.source_ = source;
  ParseResult parsed = ParseProgram(source);
  PI_CHECK_MSG(parsed.ok, parsed.error.c_str());
  out.program_ = std::make_shared<Program>(std::move(parsed.program));
  return out;
}

ProgramInterface ProgramInterface::FromFile(const std::string& path) {
  return FromSource(ReadFileOrDie(path));
}

namespace {

std::shared_ptr<const CompiledProgram> CompileOrDie(
    const Program& program, const std::vector<std::pair<std::string, double>>& constants) {
  CompileProgramResult result = CompileProgram(program, constants);
  PI_CHECK_MSG(result.ok(), result.error.c_str());
  return std::move(result.program);
}

}  // namespace

void ProgramInterface::SetConstant(const std::string& name, double value) {
  // Constants are folded into the bytecode, so any compiled form is stale.
  compiled_ = nullptr;
  for (auto& c : constants_) {
    if (c.first == name) {
      c.second = value;
      return;
    }
  }
  constants_.emplace_back(name, value);
}

void ProgramInterface::Compile() {
  if (compiled_ != nullptr) {
    return;
  }
  obs::SpanGuard span("psc", "compile");
  compiled_ = CompileOrDie(*program_, constants_);
}

double ProgramInterface::Eval(const std::string& function, const ScriptObject& workload) const {
  Vm vm(compiled_ != nullptr ? compiled_ : CompileOrDie(*program_, constants_));
  return vm.Call(function, {Value::Object(&workload)}).Num();
}

bool ProgramInterface::Has(const std::string& function) const {
  return program_->Find(function) != nullptr;
}

}  // namespace perfiface
