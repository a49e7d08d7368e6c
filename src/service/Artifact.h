//===- Artifact.h - A resident compiled artifact ---------------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One compiled artifact as the cache holds it and clients run it: the
/// emitted source, and for Host targets a loaded shared object with its
/// `<name>_run` entry resolved. Artifacts are immutable after
/// construction and handed out as shared_ptr<const>, so an eviction never
/// invalidates a client still holding (or executing) one -- the mapping
/// is released when the last reference drops.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_SERVICE_ARTIFACT_H
#define HEXTILE_SERVICE_ARTIFACT_H

#include "service/ArtifactStore.h"
#include "service/CompileKey.h"
#include "service/JitUnit.h"

#include <memory>
#include <string>

namespace hextile {
namespace service {

/// The emitted entry-point signature: one rotating-buffer base pointer
/// per field, GridStorage layout.
using KernelEntryFn = void (*)(float **);

class CompiledArtifact {
public:
  ~CompiledArtifact();
  CompiledArtifact(const CompiledArtifact &) = delete;
  CompiledArtifact &operator=(const CompiledArtifact &) = delete;

  /// Wraps a freshly JIT-built unit (takes ownership; the scratch
  /// directory lives as long as the artifact unless the service
  /// republishes from the store first). Fails when \p EntryName is
  /// missing from the unit. On failure *Err names the problem and the
  /// returned pointer is null.
  static std::shared_ptr<const CompiledArtifact>
  fromJit(const CompileKey &Key, std::unique_ptr<JitUnit> Unit,
          std::string Source, const std::string &EntryName,
          std::string *Err);

  /// Wraps a source-only (Cuda) artifact: no loadable object, entry() is
  /// null, the payload is the source text.
  static std::shared_ptr<const CompiledArtifact>
  fromSource(const CompileKey &Key, TargetKind Target, std::string Source);

  /// Loads a stored unit back from disk (dlopen of U.SoPath, binding the
  /// shim runtime into a parallel-shim unit, for Host; source read for
  /// Cuda). On any load, bind or symbol failure returns null with *Err
  /// set -- the caller quarantines the unit and recompiles.
  static std::shared_ptr<const CompiledArtifact>
  fromStore(const StoredUnit &U, const std::string &EntryName,
            std::string *Err);

  const CompileKey &key() const { return Key; }
  TargetKind target() const { return Target; }
  /// The emitted translation unit (host .cpp against cuda_shim.h, or the
  /// .cu text for Cuda targets).
  const std::string &source() const { return Source; }
  /// Resolved entry point; null for source-only targets.
  KernelEntryFn entry() const { return Entry; }
  const std::string &entryName() const { return EntryName; }
  /// Resident footprint the cache budget charges: source bytes plus the
  /// shared object's file size.
  size_t bytes() const { return Bytes; }
  /// Scratch directory still owned by this artifact (empty once the
  /// service republished the unit from the store, or for disk loads).
  std::string scratchDir() const { return Unit ? Unit->workDir() : ""; }

private:
  CompiledArtifact() = default;

  CompileKey Key;
  TargetKind Target = TargetKind::Host;
  std::string Source;
  std::string EntryName;
  KernelEntryFn Entry = nullptr;
  size_t Bytes = 0;
  std::unique_ptr<JitUnit> Unit; ///< Owns handle+scratch for JIT builds.
  void *StoreHandle = nullptr;   ///< dlopen handle for store loads.
};

} // namespace service
} // namespace hextile

#endif // HEXTILE_SERVICE_ARTIFACT_H
