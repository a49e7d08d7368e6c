//===- Executor.h - Reference and schedule-driven execution ----*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional execution of stencil programs, playing the role CUDA plays in
/// the paper's evaluation:
///
///  * ReferenceExecutor runs the program in original (time-major) order;
///  * runSchedule replays the statement instances in the order induced by
///    an arbitrary schedule key, streamed as wavefronts (Wavefront.h)
///    through a pluggable ExecutionBackend -- serially, spread across a
///    work-stealing thread pool, or partitioned over a simulated device
///    chain with explicit halo exchange (DeviceSimBackend).
///
/// Execution goes through the abstract FieldStorage seam and operates in
/// place on rotating buffers, so an illegal tiling (a violated flow OR
/// buffer anti-dependence) -- or a missing halo exchange -- shows up as a
/// bit-level mismatch against the reference; this is how the test suite
/// validates compiled schedules end to end.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_EXEC_EXECUTOR_H
#define HEXTILE_EXEC_EXECUTOR_H

#include "core/IterationDomain.h"
#include "exec/ExecutionBackend.h"
#include "exec/FieldStorage.h"
#include "exec/GridStorage.h"
#include "exec/Wavefront.h"
#include "support/MathExt.h"

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace hextile {
namespace exec {

/// Executes the single statement instance at canonical point \p Point
/// ([that, s...]) of \p P against \p Storage. Templated over the concrete
/// storage type: instantiated with a final class (GridStorage), the
/// read/write calls devirtualize and inline, which is the interpreter's
/// hot path -- the serial and thread-pool backends dispatch to
/// executeInstanceOn<GridStorage> whenever the replay runs on flat
/// storage, so the emitted-parallel vs interpreted-replay benchmark
/// compares optimized code on both sides.
template <class StorageT>
inline void executeInstanceOn(const ir::StencilProgram &P, StorageT &Storage,
                              std::span<const int64_t> Point) {
  unsigned Rank = P.spaceRank();
  assert(Point.size() == Rank + 1 && "point arity mismatch");
  int64_t That = Point[0];
  unsigned StmtIdx = euclidMod(That, P.numStmts());
  int64_t Step = floorDiv(That, P.numStmts());
  const ir::StencilStmt &S = P.stmts()[StmtIdx];

  // Fixed-size stack buffers keep the hot path allocation-free for every
  // stencil in the gallery; the heap fallback covers pathological shapes.
  constexpr unsigned MaxInline = 16;
  float ReadInline[MaxInline];
  int64_t CoordInline[MaxInline];
  std::vector<float> ReadHeap;
  std::vector<int64_t> CoordHeap;
  float *ReadValues = ReadInline;
  int64_t *Coords = CoordInline;
  if (S.Reads.size() > MaxInline) {
    ReadHeap.resize(S.Reads.size());
    ReadValues = ReadHeap.data();
  }
  if (Rank > MaxInline) {
    CoordHeap.resize(Rank);
    Coords = CoordHeap.data();
  }

  std::span<const int64_t> CoordSpan(Coords, Rank);
  for (unsigned R = 0; R < S.Reads.size(); ++R) {
    const ir::ReadAccess &A = S.Reads[R];
    for (unsigned D = 0; D < Rank; ++D)
      Coords[D] = Point[D + 1] + A.Offsets[D];
    ReadValues[R] = Storage.read(A.Field, Step + A.TimeOffset, CoordSpan);
  }
  float Result = S.RHS.evaluate(std::span<const float>(ReadValues,
                                                       S.Reads.size()));
  for (unsigned D = 0; D < Rank; ++D)
    Coords[D] = Point[D + 1];
  Storage.write(S.WriteField, Step, CoordSpan, Result);
}

/// Type-erased form: executes through the virtual FieldStorage interface.
void executeInstance(const ir::StencilProgram &P, FieldStorage &Storage,
                     std::span<const int64_t> Point);

/// Runs \p P for its configured number of time steps in original order.
void runReference(const ir::StencilProgram &P, FieldStorage &Storage);

/// Options for schedule-driven execution.
struct ScheduleRunOptions {
  /// Seed for shuffling instances with equal keys (0 = keep stable order).
  /// Also used to shuffle *parallel dimensions* marked by ParallelFrom.
  uint64_t ShuffleSeed = 0;
  /// Number of leading key components that are sequential; key components
  /// from this index on are considered parallel (shuffled together with
  /// their instances when ShuffleSeed != 0, and dispatched concurrently by
  /// parallel backends). Use -1 for "all sequential".
  int ParallelFrom = -1;
  /// Which ExecutionBackend retires the wavefronts.
  BackendKind Backend = BackendKind::Serial;
  /// Thread count for BackendKind::ThreadPool: 0 resolves to hardware
  /// concurrency, negative values are rejected (resolveNumThreads).
  int NumThreads = 0;
  /// Simulated device count for BackendKind::DeviceSim (uniform GTX 470
  /// chain); ignored when Topology is set.
  unsigned NumDevices = 2;
  /// Non-owning explicit device topology for BackendKind::DeviceSim.
  const gpu::DeviceTopology *Topology = nullptr;
  /// Batching floor of the parallel backends: wavefronts with at most this
  /// many instances run inline on the caller (no pool handoff) and no
  /// dispatched chunk is smaller. 1 parallelizes every wavefront --
  /// required when a test wants races exposed on tiny fronts.
  size_t MinTaskInstances = 128;
  /// Halo-exchange cadence of a DeviceSim replay, in full time steps:
  /// makeStorage provisions the partitioned storage's rings (and owned
  /// width floor) for one exchange every this many steps. 1 is the
  /// classic per-wavefront-barrier cadence; an overlapped (trapezoidal)
  /// replay passes its band height and exchanges once per band over
  /// band-deep rings (exec::runOverlapped).
  int64_t ExchangeCadenceSteps = 1;
  /// Non-owning override: when set, Backend/NumThreads/NumDevices are not
  /// used to build a backend and this instance is used directly -- lets
  /// callers reuse one thread pool (or device chain) across many replays
  /// instead of respawning it per run.
  ExecutionBackend *BackendOverride = nullptr;
  /// When set, filled with the replay's streaming/wavefront counters plus
  /// the DeviceSim compute/exchange counters.
  ReplayStats *Stats = nullptr;
};

/// Builds the FieldStorage matching \p Opts' backend choice: a flat
/// GridStorage for in-address-space backends, a PartitionedGridStorage
/// over the requested topology for DeviceSim (honoring BackendOverride's
/// topology when one is installed).
std::unique_ptr<FieldStorage> makeStorage(const ir::StencilProgram &P,
                                          const ScheduleRunOptions &Opts,
                                          const Initializer &Init =
                                              defaultInit);

/// The backend a replay under \p Opts runs on: Opts.BackendOverride when
/// set, else a new makeBackend of Opts' backend fields, held by \p Owned.
/// runSchedule and runOverlapped share this step.
ExecutionBackend &resolveBackend(const ScheduleRunOptions &Opts,
                                 std::unique_ptr<ExecutionBackend> &Owned);

/// Replays every instance of \p Domain ordered by \p Key (allocation-free
/// appending form; see Wavefront.h).
void runSchedule(const ir::StencilProgram &P, FieldStorage &Storage,
                 const core::IterationDomain &Domain,
                 const ScheduleKeyIntoFn &Key,
                 const ScheduleRunOptions &Opts = {});

/// Legacy returning-form overload (adapted via adaptKeyFn; one allocation
/// per key evaluation).
void runSchedule(const ir::StencilProgram &P, FieldStorage &Storage,
                 const core::IterationDomain &Domain,
                 const ScheduleKeyFn &Key,
                 const ScheduleRunOptions &Opts = {});

/// Convenience: reference-vs-schedule equivalence for \p P, with the
/// schedule replay running on storage built by makeStorage. Returns an
/// empty string if the final fields agree bit-exactly.
std::string checkScheduleEquivalence(const ir::StencilProgram &P,
                                     const ScheduleKeyIntoFn &Key,
                                     const ScheduleRunOptions &Opts = {});
std::string checkScheduleEquivalence(const ir::StencilProgram &P,
                                     const ScheduleKeyFn &Key,
                                     const ScheduleRunOptions &Opts = {});

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_EXECUTOR_H
