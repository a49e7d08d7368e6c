//===- Artifact.cpp - A resident compiled artifact ------------------------===//

#include "service/Artifact.h"

#include "service/ShimRuntime.h"

#include <algorithm>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>

using namespace hextile;
using namespace hextile::service;

CompiledArtifact::~CompiledArtifact() {
  if (StoreHandle)
    dlclose(StoreHandle);
}

std::shared_ptr<const CompiledArtifact>
CompiledArtifact::fromJit(const CompileKey &Key,
                          std::unique_ptr<JitUnit> Unit, std::string Source,
                          const std::string &EntryName, std::string *Err) {
  auto A = std::shared_ptr<CompiledArtifact>(new CompiledArtifact());
  A->Key = Key;
  A->Target = TargetKind::Host;
  A->Source = std::move(Source);
  A->EntryName = EntryName;
  A->Entry = reinterpret_cast<KernelEntryFn>(Unit->symbol(EntryName));
  if (!A->Entry) {
    if (Err)
      *Err = "entry point " + EntryName +
             " missing from the JIT-built unit";
    Unit->keepArtifacts();
    return nullptr;
  }
  std::error_code EC;
  uintmax_t SoBytes =
      std::filesystem::file_size(Unit->sharedObjectPath(), EC);
  A->Bytes = A->Source.size() + (EC ? 0 : static_cast<size_t>(SoBytes));
  A->Unit = std::move(Unit);
  return A;
}

std::shared_ptr<const CompiledArtifact>
CompiledArtifact::fromSource(const CompileKey &Key, TargetKind Target,
                             std::string Source) {
  auto A = std::shared_ptr<CompiledArtifact>(new CompiledArtifact());
  A->Key = Key;
  A->Target = Target;
  A->Source = std::move(Source);
  A->Bytes = A->Source.size();
  return A;
}

std::shared_ptr<const CompiledArtifact>
CompiledArtifact::fromStore(const StoredUnit &U,
                            const std::string &EntryName, std::string *Err) {
  auto A = std::shared_ptr<CompiledArtifact>(new CompiledArtifact());
  A->Key = U.Key;
  A->Target = U.Target;
  A->EntryName = EntryName;
  {
    std::ifstream In(U.SourcePath, std::ios::binary);
    if (!In) {
      if (Err)
        *Err = "cannot read stored source " + U.SourcePath;
      return nullptr;
    }
    A->Source.assign(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
  }
  if (U.Target == TargetKind::Host) {
    A->StoreHandle = dlopen(U.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!A->StoreHandle) {
      const char *D = dlerror();
      if (Err)
        *Err = "stored unit " + U.SoPath + " failed to load: " +
               (D ? D : "unknown dlopen error");
      return nullptr;
    }
    if (std::string BindErr = bindShimRuntime(A->StoreHandle);
        !BindErr.empty()) {
      if (Err)
        *Err = "stored unit " + U.SoPath + " failed to load: " + BindErr;
      return nullptr;
    }
    A->Entry = reinterpret_cast<KernelEntryFn>(
        dlsym(A->StoreHandle, EntryName.c_str()));
    if (!A->Entry) {
      if (Err)
        *Err = "entry point " + EntryName + " missing from stored unit " +
               U.SoPath;
      return nullptr;
    }
  }
  // unitBytes covers both files (source + .so), matching the fromJit
  // accounting.
  A->Bytes = std::max(ArtifactStore::unitBytes(U), A->Source.size());
  return A;
}
