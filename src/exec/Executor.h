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
///    through the ExecutionBackend the caller passes -- SerialBackend,
///    ThreadPoolBackend, or DeviceSimBackend partitioned over a simulated
///    device chain with explicit halo exchange. Without one the replay
///    runs serially on the calling thread. A caller that builds its
///    backend once (makeBackend) reuses the pool or device chain across
///    every replay, and makeStorage shapes the storage to match it.
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
  /// Non-owning: the backend that retires the wavefronts. Null replays
  /// serially on the caller. Build it once (makeBackend) and pass it to
  /// every replay, so a pool or device chain outlives one run.
  ExecutionBackend *BackendOverride = nullptr;
  /// When set, filled with the replay's streaming/wavefront counters plus
  /// the DeviceSim compute/exchange counters.
  ReplayStats *Stats = nullptr;
};

/// Builds the FieldStorage \p Opts' backend executes against: a
/// PartitionedGridStorage over BackendOverride's partitionTopology() when it
/// has one (DeviceSim), else a flat GridStorage.
std::unique_ptr<FieldStorage> makeStorage(const ir::StencilProgram &P,
                                          const ScheduleRunOptions &Opts,
                                          const Initializer &Init =
                                              defaultInit);

/// Replays every instance of \p Domain ordered by \p Key on
/// Opts.BackendOverride (serially on the caller when null).
void runSchedule(const ir::StencilProgram &P, FieldStorage &Storage,
                 const core::IterationDomain &Domain,
                 const ScheduleKeyIntoFn &Key,
                 const ScheduleRunOptions &Opts = {});

/// Convenience: reference-vs-schedule equivalence for \p P, with the
/// schedule replay running on storage built by makeStorage. Returns an
/// empty string if the final fields agree bit-exactly.
std::string checkScheduleEquivalence(const ir::StencilProgram &P,
                                     const ScheduleKeyIntoFn &Key,
                                     const ScheduleRunOptions &Opts = {});

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_EXECUTOR_H
