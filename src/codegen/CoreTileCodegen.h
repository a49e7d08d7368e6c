//===- CoreTileCodegen.h - Unrolled core-tile code (Fig. 2) ----*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the specialized straight-line code for one point of a full
/// (core) tile, after unrolling and register sliding-window reuse
/// (Secs. 4.3.1/4.3.2) -- the code whose PTX the paper shows in Fig. 2.
/// For the Fig. 1 Jacobi kernel the emitted block performs exactly 3 shared
/// loads and 1 shared store for 5 compute instructions, with 2 of the 5
/// values in flight reused in registers across iterations.
///
/// Only the Fig. 2 bench and its test read this listing. The performance
/// model takes its load counts from core::analyzeSlab, which applies the
/// same grouping (core::registerWindowLoads); the *executable* renderings
/// live in the EmissionCore targets (CudaEmitter/HostEmitter, see
/// docs/codegen.md).
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CODEGEN_CORETILECODEGEN_H
#define HEXTILE_CODEGEN_CORETILECODEGEN_H

#include "ir/StencilProgram.h"

#include <string>

namespace hextile {
namespace codegen {

/// Statistics of one unrolled core-tile point.
struct CoreTileStats {
  unsigned SharedLoads = 0;   ///< ld.shared per point after reuse.
  unsigned SharedStores = 0;  ///< st.shared per point.
  unsigned ComputeOps = 0;    ///< Arithmetic instructions per point.
  unsigned RegisterReused = 0;///< Reads served from registers.
};

/// The generated listing plus its statistics.
struct CoreTileCode {
  std::string Ptx; ///< PTX-style listing (cf. Fig. 2).
  CoreTileStats Stats;
};

/// Emits the unrolled core code for statement \p StmtIdx of \p P.
/// \p SharedPitch is the innermost row pitch (in elements) of the shared
/// buffer used for byte offsets; \p EnableRegisterReuse toggles the
/// sliding-window reuse of Sec. 4.3.2.
CoreTileCode emitCoreTile(const ir::StencilProgram &P, unsigned StmtIdx,
                          int64_t SharedPitch,
                          bool EnableRegisterReuse = true);

} // namespace codegen
} // namespace hextile

#endif // HEXTILE_CODEGEN_CORETILECODEGEN_H
