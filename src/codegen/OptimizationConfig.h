//===- OptimizationConfig.h - The Sec. 6.2 optimization ladder -*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared-memory optimization ladder evaluated in Table 4, one rung
/// per letter:
///   (a) no shared memory          (b) shared memory, separate copy-out
///   (c) (b) + interleaved copy-out (Sec. 4.2.1)
///   (d) (c) + aligned loads        (Sec. 4.2.3)
///   (e) (d) + static inter-tile value reuse   (Sec. 4.2.2)
///   (f) (d) + dynamic inter-tile value reuse  (Sec. 4.2.2)
///
/// Every rung is rendered as code except (f)'s shared->shared move, which
/// only the cost model prices: (f) emits (d)'s kernels. The model prices
/// the Sec. 4.3.2 sliding-window register reuse for every staged rung.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CODEGEN_OPTIMIZATIONCONFIG_H
#define HEXTILE_CODEGEN_OPTIMIZATIONCONFIG_H

#include <string>

namespace hextile {
namespace codegen {

/// Inter-tile reuse strategies of Sec. 4.2.2.
enum class ReuseKind {
  None,    ///< Reload every tile input from global memory.
  Static,  ///< Fixed global->shared mapping; no copies, but bank conflicts.
  Dynamic, ///< Per-tile placement with an explicit shared->shared move.
};

/// One configuration of the code generator: the rung of the Table 4
/// shared-memory ladder the compiled kernels assume, and the host shim's
/// team width. The launch/cost models price the rung, and the executable
/// emission (EmissionCore targets) renders it as real code: a cooperative
/// load phase into a tile-local staging buffer, compute against staged
/// values, and either a separate or an interleaved copy-out -- every rung
/// semantically the identity, which the oracle's fourth mechanism proves
/// by execution.
struct OptimizationConfig {
  /// The ladder rung, 'a'..'f' (see the file comment). compileHybrid
  /// rejects any other letter.
  char Rung = 'f';
  /// Host-shim execution model for the emitted unit: 0 renders a serial
  /// unit (cuda_shim.h runs the block loop and thread loop sequentially);
  /// N > 0 renders a parallel unit -- the shim dispatches blocks across
  /// worker teams of N threads each, with a real barrier implementing
  /// __syncthreads, so the emitted kernels' concurrency claims (block
  /// independence within a launch, barrier-delimited staging phases) are
  /// actually raced instead of serialized away. N is the *default* team
  /// size baked into the unit; the HT_SHIM_THREADS / HT_SHIM_TEAMS
  /// environment variables can re-shape the pool at run time without a
  /// recompile. Serial and parallel units hash to distinct CompileKeys.
  /// Ignored by the CUDA emitter (CUDA is parallel by construction).
  int ShimThreads = 0;

  /// The ladder of Table 4 by letter 'a'..'f'.
  static OptimizationConfig level(char Level) {
    OptimizationConfig C;
    C.Rung = Level;
    return C;
  }

  /// Whether Rung is one of 'a'..'f'.
  bool validRung() const { return Rung >= 'a' && Rung <= 'f'; }
  /// Stage tile inputs in shared memory: rungs (b)-(f).
  bool useSharedMemory() const { return Rung >= 'b'; }
  /// Issue copy-out stores interleaved with compute (Sec. 4.2.1): (c)-(f).
  bool interleaveCopyOut() const { return Rung >= 'c'; }
  /// Translate tiles so row loads hit 128B boundaries (Sec. 4.2.3): (d)-(f).
  bool alignLoads() const { return Rung >= 'd'; }
  /// Inter-tile value-reuse strategy (Sec. 4.2.2): static at (e), dynamic
  /// at (f), none below.
  ReuseKind reuse() const {
    return Rung == 'e'   ? ReuseKind::Static
           : Rung == 'f' ? ReuseKind::Dynamic
                         : ReuseKind::None;
  }

  /// Human-readable strategy summary ("shared memory + aligned loads
  /// + ..."), used in diagnostics and emitted-source headers.
  std::string str() const;
};

} // namespace codegen
} // namespace hextile

#endif // HEXTILE_CODEGEN_OPTIMIZATIONCONFIG_H
