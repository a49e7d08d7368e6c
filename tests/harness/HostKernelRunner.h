//===- HostKernelRunner.h - JIT harness for emitted host kernels -*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The test-time JIT behind the oracle's fourth mechanism: takes the C++
/// translation unit HostEmitter produces, compiles it with the system C++
/// compiler into a shared object, dlopens the result and drives the
/// emitted `<name>_run` entry point on an exec::GridStorage, passing
/// field(F) as ht_fields[F]. EmittedUnit::runDifferential then compares
/// that storage bit-exactly against the naive reference executor's -- so
/// every loop bound, guard, skew table and buffer index the emitter
/// produces is *executed*, not just snapshot-compared.
///
/// The compile/load core (JitUnit) now lives in src/service -- it doubles
/// as the compile backend of service::CompileService -- and is re-exported
/// here under its historical harness name. This header adds the
/// differential drivers on top: EmittedUnit (emit + build once, then
/// compare as many runs as wanted) and runEntryDifferential (compare an
/// already-loaded entry point, e.g. an artifact served by the compile
/// service, against the reference executor).
///
/// Machines without a usable compiler skip cleanly: available() is false,
/// EmittedUnit::build reports skipped() and compiles nothing. On a
/// mismatch the scratch directory (kernel.cpp, cuda_shim.h, compile log,
/// .so) is kept and named in the diagnostic so a failing seed reproduces
/// offline:
///   c++ -std=c++17 -O1 -fPIC -shared -pthread -o kernel.so kernel.cpp
/// When the harness itself is a sanitizer build, the JIT compile matches
/// it: -fsanitize=address under HEXTILE_SANITIZE=address (the emitted
/// kernels run shadow-checked), -fsanitize=thread under
/// HEXTILE_SANITIZE=thread (the parallel shim's worker teams and barriers
/// are raced under TSan).
///
/// Building once and running many times lets the parallel shim-thread
/// sweep replay one compiled unit at several HT_SHIM_THREADS environment
/// overrides instead of paying one JIT compile per thread count.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_TESTS_HARNESS_HOSTKERNELRUNNER_H
#define HEXTILE_TESTS_HARNESS_HOSTKERNELRUNNER_H

#include "codegen/HostEmitter.h"
#include "codegen/HybridCompiler.h"
#include "exec/FieldStorage.h"
#include "ir/StencilProgram.h"
#include "service/JitUnit.h"

#include <string>

namespace hextile {
namespace harness {

/// Historical name of the JIT compile/load core, now the service's
/// compile backend (see service/JitUnit.h for the full contract).
using JitUnit = service::JitUnit;

/// Differential-tests an already-compiled entry point (signature
/// `void(float **)`, run on GridStorage::field buffers) for \p P against
/// the naive reference executor -- the check the service stress tests
/// apply to cached/deduped artifacts without paying for a second JIT
/// build.
/// Returns "" on bit-exact agreement, else a diagnostic prefixed with
/// \p Context.
std::string runEntryDifferential(const ir::StencilProgram &P,
                                 void (*Entry)(float **),
                                 const exec::Initializer &Init,
                                 const std::string &Context = "");

/// A JIT-built emitted unit that can be differential-run repeatedly.
/// Parallel units (Config.ShimThreads > 0) re-read the HT_SHIM_THREADS /
/// HT_SHIM_TEAMS environment at every launch, so one compiled unit can be
/// raced at several pool geometries; runDifferential sets the override
/// for the duration of one run.
class EmittedUnit {
public:
  /// Emits \p C as flavor \p S and JIT-builds it. Returns "" on success,
  /// "skip" reason or compile diagnostic otherwise; Skipped distinguishes
  /// the no-compiler case.
  std::string build(const ir::StencilProgram &P,
                    const codegen::CompiledHybrid &C, codegen::EmitSchedule S);
  bool skipped() const { return Skipped; }

  /// One differential run against the naive reference executor.
  /// \p ShimThreads > 0 exports HT_SHIM_THREADS for this run (the
  /// parallel pool re-shapes to that team size); 0 leaves the unit's
  /// baked-in default. Returns "" on bit-exact agreement; on mismatch a
  /// diagnostic labeled "[emitted <flavor>] program=<name> <Context>",
  /// with the scratch directory kept and named.
  std::string runDifferential(const exec::Initializer &Init,
                              const std::string &Context,
                              int ShimThreads = 0);

private:
  JitUnit Unit;
  ir::StencilProgram Program;
  std::string Label; ///< "[emitted <flavor>] program=<name>".
  void (*Entry)(float **) = nullptr;
  bool Skipped = false;
};

} // namespace harness
} // namespace hextile

#endif // HEXTILE_TESTS_HARNESS_HOSTKERNELRUNNER_H
