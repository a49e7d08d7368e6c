//===- ShimRuntime.h - Worker teams of the parallel host shim ---*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime of the parallel cuda_shim (codegen/HostEmitter): its worker
/// teams, its synchronous block launch and its team barrier, compiled once
/// into hextile instead of into every emitted unit. A unit emitted with
/// HT_SHIM_THREADS > 0 exports `extern "C" int ht_shim_bind(const
/// ht_shim_runtime *)`; both loaders (JitUnit::build and
/// CompiledArtifact::fromStore) hand it this runtime's function table right
/// after dlopen, and the unit's launches and __syncthreads() call through
/// it.
///
/// One pool serves the whole process: launches from any unit and any host
/// thread serialize on one process-wide mutex, and each launch re-reads
/// HT_SHIM_THREADS / HT_SHIM_TEAMS (each clamped to 1..256, and the team
/// count lowered until teams x team size <= 256) over the launching unit's
/// baked-in team size, replacing the pool when the geometry changes. The
/// pool is an exec::ThreadPool with one participant per team thread; a
/// launch is one ThreadPool::gang() call in which the launcher plays rank
/// 0, and rank r plays rank r % TeamSize of team r / TeamSize, retiring
/// blocks off one shared counter and meeting its teammates at the team
/// barrier. That barrier is this runtime's own: gang() guarantees every
/// rank its own thread, so ranks may wait on each other. A forked child
/// never waits on its parent's workers: the runtime records the pid that
/// created it, and a launch in another process abandons that runtime
/// (pool, workers and mutexes alike, never destroyed) and starts a fresh
/// one.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_SERVICE_SHIMRUNTIME_H
#define HEXTILE_SERVICE_SHIMRUNTIME_H

#include <string>

namespace hextile {
namespace service {

/// Binds the shim runtime into the unit loaded as \p Handle (a dlopen
/// handle). A unit without `ht_shim_bind` -- a serial unit, or a parallel
/// unit built before the runtime moved here, which carries its own pool --
/// is left as it is. Returns an empty string on success, else why the unit
/// rejected the runtime (an ABI mismatch); the caller treats that as a
/// load failure.
std::string bindShimRuntime(void *Handle);

} // namespace service
} // namespace hextile

#endif // HEXTILE_SERVICE_SHIMRUNTIME_H
