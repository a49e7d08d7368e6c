//===- HostKernelRunner.cpp - JIT harness for emitted host kernels --------===//

#include "harness/HostKernelRunner.h"

#include "exec/Executor.h"
#include "exec/GridStorage.h"

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

using namespace hextile;
using namespace hextile::harness;

namespace {

/// FieldStorage view over the flat rotating buffers the emitted entry
/// point ran on (GridStorage layout), so the oracle's bit-exact
/// compareStoragesAtStep works unchanged.
class FlatBufferStorage final : public exec::FieldStorage {
public:
  FlatBufferStorage(const ir::StencilProgram &P,
                    const exec::Initializer &Init)
      : Extents(P.spaceSizes()) {
    PointsPerCopy = 1;
    for (int64_t S : Extents)
      PointsPerCopy *= S;
    Buffers.resize(P.fields().size());
    Depths.resize(P.fields().size());
    for (unsigned F = 0; F < P.fields().size(); ++F) {
      Depths[F] = P.bufferDepth(F);
      Buffers[F].resize(static_cast<size_t>(Depths[F]) * PointsPerCopy);
    }
    // Same contract as GridStorage: every rotating copy starts from the
    // same per-point initial value (boundary cells included).
    std::vector<int64_t> Coords(Extents.size(), 0);
    std::function<void(unsigned)> Fill = [&](unsigned Dim) {
      if (Dim == Extents.size()) {
        for (unsigned F = 0; F < Buffers.size(); ++F) {
          float V = Init(F, Coords);
          for (unsigned D = 0; D < Depths[F]; ++D)
            Buffers[F][D * PointsPerCopy + linear(Coords)] = V;
        }
        return;
      }
      for (int64_t I = 0; I < Extents[Dim]; ++I) {
        Coords[Dim] = I;
        Fill(Dim + 1);
      }
    };
    Fill(0);
  }

  /// The per-field base pointers the emitted entry point consumes.
  std::vector<float *> fieldPointers() {
    std::vector<float *> Ptrs;
    for (std::vector<float> &B : Buffers)
      Ptrs.push_back(B.data());
    return Ptrs;
  }

  const char *kind() const override { return "jit-flat"; }
  unsigned numFields() const override { return Buffers.size(); }
  unsigned depth(unsigned Field) const override { return Depths[Field]; }
  const std::vector<int64_t> &sizes() const override { return Extents; }
  float read(unsigned Field, int64_t T,
             std::span<const int64_t> Coords) const override {
    return Buffers[Field][euclidMod(T, Depths[Field]) * PointsPerCopy +
                          linear(Coords)];
  }
  void write(unsigned Field, int64_t T, std::span<const int64_t> Coords,
             float V) override {
    Buffers[Field][euclidMod(T, Depths[Field]) * PointsPerCopy +
                   linear(Coords)] = V;
  }

private:
  int64_t linear(std::span<const int64_t> Coords) const {
    int64_t L = 0;
    for (unsigned D = 0; D < Extents.size(); ++D)
      L = L * Extents[D] + Coords[D];
    return L;
  }

  std::vector<int64_t> Extents;
  int64_t PointsPerCopy = 0;
  std::vector<unsigned> Depths;
  std::vector<std::vector<float>> Buffers;
};

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

  FlatBufferStorage Got(P, Init);
  std::vector<float *> Ptrs = Got.fieldPointers();
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
