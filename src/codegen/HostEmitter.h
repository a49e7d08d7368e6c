//===- HostEmitter.h - Portable host (CPU) kernel emission -----*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host emission target: renders a compiled program as one standard C++
/// translation unit against a small `cuda_shim.h` that maps the CUDA
/// execution model onto serial host execution (the blockIdx loop lives in
/// HT_LAUNCH_1D, the threadIdx loop in HT_FOR_THREADS, __syncthreads() is
/// a no-op "block-serial barrier", HT_SHARED is the per-block __shared__
/// arena the Sec. 4.2 staging windows live in). The host rendering is
/// shaped for a CPU rather than copied from the CUDA text: a compute
/// region runs one logical thread per outer row, which checks each access
/// group's span once and then sweeps its innermost run with plain
/// subscripts, and the staging copies move one range-checked window row
/// at a time. The shim includes no system
/// header; a parallel-shim unit runs its blocks on the worker teams of
/// service/ShimRuntime, which the loader binds into it through the
/// exported `ht_shim_bind`. The unit exports one
/// `extern "C"` entry point,
/// `<name>_run(float **fields)`, over the same rotating-buffer layout
/// exec::GridStorage uses -- which is how the oracle's fourth mechanism
/// (tests/harness/HostKernelRunner) compiles, loads and differential-tests
/// the emitted code against the naive executor.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CODEGEN_HOSTEMITTER_H
#define HEXTILE_CODEGEN_HOSTEMITTER_H

#include "codegen/EmissionCore.h"

#include <string>

namespace hextile {
namespace codegen {

/// Emits the complete host C++ translation unit for \p C rendered as
/// schedule flavor \p S (it `#include`s "cuda_shim.h"; see
/// hostShimSource()).
std::string emitHost(const CompiledHybrid &C,
                     EmitSchedule S = EmitSchedule::Hybrid);

/// The contents of `cuda_shim.h`: the execution-model shim every emitted
/// host unit includes (composed over the shared EmissionCore runtime
/// helpers). The JIT runner writes this next to the unit before compiling.
std::string hostShimSource();

/// Version of the `ht_shim_runtime` function table a parallel-shim unit
/// accepts in `ht_shim_bind` (service/ShimRuntime supplies the table).
/// Bump it whenever the table's layout or a member's contract changes: a
/// unit then rejects a runtime of the other version instead of calling
/// through a mismatched table. A macro, so the shim text can spell it as
/// part of a string literal.
#define HEXTILE_HOST_SHIM_ABI 1
constexpr long long HostShimAbi = HEXTILE_HOST_SHIM_ABI;

/// Version of the host unit text: service::makeCompileKey hashes it into
/// every host-target key, so an artifact store never serves a unit emitted
/// in an older format for an unchanged request. Bump when `emitHost`'s
/// text for an unchanged request changes. 2: compute sweeps run one
/// logical thread per outer row. 3: rung (e) checks each staged window
/// row once.
constexpr long long HostUnitFormat = 3;

/// Name of the emitted `extern "C"` entry point: "<program name>_run",
/// with signature `void(float **fields)` (one rotating-buffer array per
/// field, GridStorage layout).
std::string hostEntryName(const ir::StencilProgram &P);

} // namespace codegen
} // namespace hextile

#endif // HEXTILE_CODEGEN_HOSTEMITTER_H
