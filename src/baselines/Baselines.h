//===- Baselines.h - Baseline compiler models -------------------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models of the comparison systems of Tables 1/2, built from their
/// published compilation strategies:
///
///  * PPCG (unmodified): classical spatial tiling with shared-memory
///    staging, one kernel launch per (statement, time step); separate
///    copy-in/copy-out phases; no time tiling.
///  * Par4All: direct loop mapping to a grid, global-memory accesses
///    through the hardware caches; no shared-memory staging and no time
///    tiling.
///  * Overtile: overlapped (trapezoidal) time tiling with redundant
///    computation and shared-memory staging; an autotuner sweeps the time
///    height and spatial widths per benchmark and device (Sec. 6.1 explored
///    800 size combinations).
///
/// Each model produces gpu::KernelModel launch classes consumed by the same
/// performance model as the hybrid compiler, plus (for the non-redundant
/// schemes) a schedule key for functional validation.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_BASELINES_BASELINES_H
#define HEXTILE_BASELINES_BASELINES_H

#include "exec/Executor.h"
#include "gpu/PerfModel.h"
#include "ir/StencilProgram.h"

#include <optional>
#include <string>
#include <vector>

namespace hextile {
namespace baselines {

/// A compiled baseline: launch models plus an optional functional schedule.
struct BaselineResult {
  std::string Name;
  std::vector<gpu::KernelModel> Kernels;
  /// Schedule key for exec::runSchedule; null for schemes with redundant
  /// computation (Overtile), which are validated separately.
  exec::ScheduleKeyIntoFn Key;
  /// Chosen tuning parameters, for reporting.
  std::string TuningNote;
};

/// PPCG-like classical tiling (Sec. 5 / Table 1 row 1).
BaselineResult compilePpcg(const ir::StencilProgram &P,
                           const gpu::DeviceConfig &Dev);

/// Par4All-like direct mapping (Table 1 row 2). For multi-statement
/// programs with same-step dependences (fdtd), Par4All generated invalid
/// CUDA in the paper; this model mirrors that by returning no kernels.
BaselineResult compilePar4all(const ir::StencilProgram &P,
                              const gpu::DeviceConfig &Dev);

/// Overtile-like overlapped tiling with autotuning (Table 1 row 3).
BaselineResult compileOvertile(const ir::StencilProgram &P,
                               const gpu::DeviceConfig &Dev);

} // namespace baselines
} // namespace hextile

#endif // HEXTILE_BASELINES_BASELINES_H
