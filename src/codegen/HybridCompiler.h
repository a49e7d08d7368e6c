//===- HybridCompiler.h - The hybrid hexagonal compiler --------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end driver corresponding to the paper's modified PPCG flow
/// (Secs. 3-4): dependence analysis -> cone slopes -> hybrid schedule for
/// chosen (or model-selected) tile sizes -> exact tile costs -> a GPU launch
/// model per phase, a functional schedule key for the executor, and CUDA
/// source text.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CODEGEN_HYBRIDCOMPILER_H
#define HEXTILE_CODEGEN_HYBRIDCOMPILER_H

#include "codegen/OptimizationConfig.h"
#include "core/TileAnalysis.h"
#include "core/TileSizeModel.h"
#include "exec/Executor.h"
#include "gpu/PerfModel.h"

#include <memory>
#include <optional>

namespace hextile {
namespace codegen {

/// Tile-size request: explicit sizes, or model-driven selection (Sec. 3.7).
struct TileSizeRequest {
  std::optional<int64_t> H;         ///< Hexagon height h; unset = model pick.
  std::optional<int64_t> W0;        ///< Peak width w0; unset = model pick.
  std::vector<int64_t> InnerWidths; ///< Classical w_i; empty = select automatically.
  core::TileSizeConstraints Constraints; ///< Bounds the Sec. 3.7 search space.
};

/// The result of compiling one stencil program with hybrid tiling: the
/// analyzed program, its schedule and costs, and everything the emission
/// targets (CudaEmitter/HostEmitter via EmissionCore), the functional
/// executor and the GPU performance model consume.
class CompiledHybrid {
public:
  /// Binds the compiled pieces and runs the exact slab cost analysis.
  CompiledHybrid(ir::StencilProgram Program, deps::DependenceInfo Deps,
                 core::HybridSchedule Schedule, OptimizationConfig Config);

  /// The compiled program (owned copy; sizes/steps frozen at compile time).
  const ir::StencilProgram &program() const { return Prog; }
  /// The dependence analysis the cone slopes were derived from.
  const deps::DependenceInfo &dependences() const { return Deps; }
  /// The hybrid hexagonal/classical schedule (Sec. 3.6 composition).
  const core::HybridSchedule &schedule() const { return Sched; }
  /// The Sec. 4.2 memory-strategy configuration this compile assumes.
  const OptimizationConfig &config() const { return Config; }
  /// Exact per-slab transfer/compute costs (core::analyzeSlab).
  const core::SlabCosts &slabCosts() const { return Costs; }

  /// The launch models (one per phase) for the GPU performance model.
  std::vector<gpu::KernelModel> kernelModels(const gpu::DeviceConfig &Dev)
      const;

  /// Schedule key for the functional executor: the full hybrid vector
  /// [T, p, S0, S1.., t', s0'..]. Thread blocks (the S0 component) run
  /// concurrently on a GPU; any serialization of them is a legal
  /// linearization, so passing a nonzero \p BlockPermSeed permutes the
  /// block order pseudo-randomly (exec::permuteBlock, the oracle's hash)
  /// -- an illegal cross-block dependence then shows up as a result
  /// mismatch for some seed.
  exec::ScheduleKeyIntoFn scheduleKey(uint64_t BlockPermSeed = 0) const;

  /// Threads per block, (1, w1, ..., wn) as in Sec. 6.2.
  int64_t threadsPerBlock() const;

private:
  ir::StencilProgram Prog;
  deps::DependenceInfo Deps;
  core::HybridSchedule Sched;
  OptimizationConfig Config;
  core::SlabCosts Costs;
};

/// Compiles \p P with the given tile-size request and optimization config.
/// Throws std::invalid_argument, naming the bad value, for a request no
/// schedule can be built from: a rung outside 'a'..'f', a program that
/// fails verify(), inner
/// widths of the wrong count or below 1, constraints no tile size
/// satisfies, or H/W0 violating the hexagon's width bound.
CompiledHybrid compileHybrid(const ir::StencilProgram &P,
                             const TileSizeRequest &Sizes = {},
                             const OptimizationConfig &Config = {});

/// Empirically tuned sizes, fed back from the measurement-driven autotuner
/// (src/tune): the winning geometry and ladder configuration of a measured
/// sweep, replacing the Sec. 3.7 analytic pick. The schedule flavor of the
/// winner lives one layer up (tune::TunedEntry) because EmissionCore.h --
/// where EmitSchedule is declared -- includes this header.
struct TunedSizes {
  int64_t H = 1;
  int64_t W0 = 1;
  std::vector<int64_t> InnerWidths; ///< Classical w_i (empty at rank 1).
  OptimizationConfig Config;        ///< The winning ladder rung + shim.
};

/// The "use tuned sizes" path: compiles \p P with the measured winner's
/// exact geometry and configuration, bypassing the analytic model
/// entirely. Equivalent to compileHybrid with an explicit TileSizeRequest
/// built from \p T.
CompiledHybrid compileHybridTuned(const ir::StencilProgram &P,
                                  const TunedSizes &T);

/// Shared-memory loads per point of statement \p StmtIdx when each thread
/// register-tiles \p TileWidth consecutive s1 points (Sec. 6.2's
/// future-work extension). TileWidth = 1 gives the Sec. 4.3.2
/// sliding-window count (e.g. 9 for heat 3D, 3 for Jacobi 2D). An
/// analysis only: no ladder rung renders or prices register tiling.
double sharedLoadsPerPointRegisterTiled(const ir::StencilProgram &P,
                                        unsigned StmtIdx,
                                        int64_t TileWidth);

} // namespace codegen
} // namespace hextile

#endif // HEXTILE_CODEGEN_HYBRIDCOMPILER_H
