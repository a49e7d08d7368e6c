//===- CudaEmitter.h - CUDA source emission --------------------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CUDA emission target: renders a compiled program as one
/// self-contained CUDA translation unit following the Sec. 4.1 mapping --
/// a host loop over time tiles T launching one kernel per phase, a
/// one-dimensional grid over the wavefront-parallel S0 tiles, sequential
/// classical S1..Sn and local-time loops inside the kernel, and a
/// blockDim-stride thread loop over each local time row's points with
/// __syncthreads() between rows.
///
/// The loop structure, bounds, guards and update arithmetic all come from
/// the target-neutral emission core (EmissionCore.h) shared with the host
/// target, so the text is executable CUDA: the same semantics the host
/// rendering proves bit-exact against the naive executor, ready for nvcc
/// on a CUDA machine. The Sec. 4.2 shared-memory ladder is emitted as
/// real code from the compile's rung: __shared__ staging windows with a
/// cooperative load phase and __syncthreads() barriers (b), interleaved
/// copy-out (c, Sec. 4.2.1), 128-byte-aligned window bases (d, Sec.
/// 4.2.3) and the static placement scheme (e, Sec. 4.2.2); rung (f)
/// renders as (d). Each rung is semantically the identity; the host
/// rendering of the same plan is what the oracle executes to prove that.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CODEGEN_CUDAEMITTER_H
#define HEXTILE_CODEGEN_CUDAEMITTER_H

#include "codegen/EmissionCore.h"

#include <string>

namespace hextile {
namespace codegen {

/// Emits the complete CUDA translation unit (host driver + kernels) for
/// \p Compiled rendered as schedule flavor \p S.
std::string emitCuda(const CompiledHybrid &Compiled,
                     EmitSchedule S = EmitSchedule::Hybrid);

} // namespace codegen
} // namespace hextile

#endif // HEXTILE_CODEGEN_CUDAEMITTER_H
