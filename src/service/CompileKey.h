//===- CompileKey.h - Content-hash identity of one compile -----*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The identity of one compile request in the `hextiled` compile service:
/// a 128-bit content hash over everything that determines the emitted
/// artifact -- the *parsed* program (its IR is walked, so whitespace-only
/// differences in the source text hash identically), the tile-size
/// request, the OptimizationConfig ladder rung, the schedule flavor and the
/// emission target. Two requests with equal keys are interchangeable: the
/// cache, the single-flight dedup map and the on-disk artifact store all
/// index by CompileKey.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_SERVICE_COMPILEKEY_H
#define HEXTILE_SERVICE_COMPILEKEY_H

#include "codegen/EmissionCore.h"
#include "codegen/HybridCompiler.h"
#include "ir/StencilProgram.h"

#include <cstdint>
#include <functional>
#include <string>

namespace hextile {
namespace service {

/// Emission target of a compile request. Host artifacts are JIT-built
/// shared objects (loadable, runnable); Cuda artifacts are source units
/// only (the container has no nvcc -- the service stores and serves the
/// .cu text).
enum class TargetKind { Host, Cuda };

const char *targetKindName(TargetKind T);

/// 128-bit content hash of a CompileRequest, walked without printing it:
/// two independent 64-bit streams take the program (name, sizes, steps,
/// fields, every read -- referenced or not -- and each RHS in prefix order,
/// constants as their exact bits) and every tiling, config, flavor and
/// target field, one word at a time, each string and list preceded by its
/// length so no two fields alias. Not cryptographic -- it addresses a
/// cache, it does not authenticate one. It depends on no pointer and no
/// iteration order, so a warm start finds keys another process wrote.
struct CompileKey {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const CompileKey &O) const {
    return Hi == O.Hi && Lo == O.Lo;
  }
  bool operator!=(const CompileKey &O) const { return !(*this == O); }
  bool operator<(const CompileKey &O) const {
    return Hi != O.Hi ? Hi < O.Hi : Lo < O.Lo;
  }

  /// 32 lowercase hex digits; the on-disk artifact file stem.
  std::string hex() const;

  /// Parses a hex() rendering back (for the warm-start directory scan).
  /// Returns false when \p S is not exactly 32 hex digits.
  static bool fromHex(const std::string &S, CompileKey &Out);
};

/// Hash functor for unordered containers keyed by CompileKey.
struct CompileKeyHash {
  size_t operator()(const CompileKey &K) const {
    return static_cast<size_t>(K.Hi ^ (K.Lo * 0x9e3779b97f4a7c15ull));
  }
};

/// Everything one compile needs: the program (already parsed -- the
/// service's unit of content, so textual formatting cannot fragment the
/// cache), the tiling request, the Sec. 4.2 ladder rung, the schedule
/// flavor and the target.
struct CompileRequest {
  ir::StencilProgram Program;
  codegen::TileSizeRequest Tiling;
  codegen::OptimizationConfig Config;
  codegen::EmitSchedule Flavor = codegen::EmitSchedule::Hybrid;
  TargetKind Target = TargetKind::Host;
};

/// Content-hashes \p R by walking it. A new member of any request type
/// must enter this walk, or two requests differing only in it collide.
/// Host-target keys also hash codegen::HostUnitFormat.
CompileKey makeCompileKey(const CompileRequest &R);

} // namespace service
} // namespace hextile

#endif // HEXTILE_SERVICE_COMPILEKEY_H
