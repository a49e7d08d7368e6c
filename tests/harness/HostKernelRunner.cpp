//===- HostKernelRunner.cpp - JIT harness for emitted host kernels --------===//

#include "harness/HostKernelRunner.h"

#include "exec/Executor.h"
#include "exec/GridStorage.h"

#include <cstdlib>
#include <string>
#include <vector>

using namespace hextile;
using namespace hextile::harness;

namespace {

/// Scoped environment override, restoring the previous value (or the
/// unset state) on destruction.
class EnvGuard {
public:
  EnvGuard(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = getenv(Name)) {
      HadOld = true;
      OldValue = Old;
    }
    setenv(Name, Value.c_str(), 1);
  }
  ~EnvGuard() {
    if (HadOld)
      setenv(Name, OldValue.c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  bool HadOld = false;
  std::string OldValue;
};

} // namespace

std::string harness::runEntryDifferential(const ir::StencilProgram &P,
                                          void (*Entry)(float **),
                                          const exec::Initializer &Init,
                                          const std::string &Context) {
  exec::GridStorage Ref(P, Init);
  exec::runReference(P, Ref);

  exec::GridStorage Got(P, Init);
  std::vector<float *> Ptrs;
  for (unsigned F = 0; F < Got.numFields(); ++F)
    Ptrs.push_back(Got.field(F).data());
  Entry(Ptrs.data());

  std::string Diff =
      exec::compareStoragesAtStep(Ref, Got, P.timeSteps() - 1);
  if (Diff.empty())
    return "";
  return (Context.empty() ? "" : Context + ": ") +
         "emitted entry diverges from the row-major reference: " + Diff;
}

std::string harness::EmittedUnit::build(const ir::StencilProgram &P,
                                        const codegen::CompiledHybrid &C,
                                        codegen::EmitSchedule S) {
  Program = P;
  Label = "[emitted " + std::string(codegen::emitScheduleName(S)) +
          "] program=" + P.name();
  if (!JitUnit::available()) {
    Skipped = true;
    return "no system C++ compiler";
  }
  if (std::string Err = Unit.build(codegen::emitHost(C, S)); !Err.empty())
    return Label + ": " + Err;
  Entry = reinterpret_cast<void (*)(float **)>(
      Unit.symbol(codegen::hostEntryName(P)));
  if (!Entry) {
    Unit.keepArtifacts();
    return Label + ": entry point " + codegen::hostEntryName(P) +
           " missing from the emitted unit (artifacts kept in " +
           Unit.workDir() + ")";
  }
  return "";
}

std::string harness::EmittedUnit::runDifferential(
    const exec::Initializer &Init, const std::string &Context,
    int ShimThreads) {
  if (Skipped || !Entry)
    return "EmittedUnit::build did not produce a runnable entry";
  std::string Labeled = Context.empty() ? Label : Label + " " + Context;
  std::string Diff;
  if (ShimThreads > 0) {
    EnvGuard Guard("HT_SHIM_THREADS", std::to_string(ShimThreads));
    Diff = runEntryDifferential(Program, Entry, Init, Labeled);
  } else {
    Diff = runEntryDifferential(Program, Entry, Init, Labeled);
  }
  if (!Diff.empty()) {
    Unit.keepArtifacts();
    Diff += " (emitted sources kept in " + Unit.workDir() + ")";
  }
  return Diff;
}
