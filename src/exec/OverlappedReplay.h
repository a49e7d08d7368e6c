//===- OverlappedReplay.h - Overlapped (trapezoidal) replay ----*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replay of the fifth schedule family (core::OverlappedSchedule). An
/// overlapped schedule cannot be expressed as a lexicographic schedule key
/// -- its tiles *recompute* each other's cells, so one statement instance
/// executes in several tiles at once -- which is why it gets its own
/// driver instead of runSchedule. Like runSchedule, the driver runs on the
/// backend the caller passes in ScheduleRunOptions::BackendOverride
/// (serially on the caller when null), and every participant runs the
/// same trapezoid loop (runTrapezoid):
///
///  * On flat storage (GridStorage), each time band runs as two phases.
///    Phase 1: every tile copies its footprint rows (core + band-entry
///    halos, all rotating slots) into a private window -- a GridStorage
///    holding just those rows, staged with copyRows -- and runs the band's
///    ticks there, margins shrinking tick by tick; tiles share nothing, so
///    the serial and thread-pool replays need no intra-band barrier and
///    tile order is freely shuffleable. Phase 2: every tile copies its
///    core rows (all slots) back; cores are disjoint, so phase 2 is
///    race-free too. The band boundary is the only barrier.
///
///  * On partitioned storage, which only a DeviceSimBackend runs on and
///    which it always needs, each band is a device-level trapezoid:
///    DeviceSimBackend::runOverlappedBand computes every device's expanded
///    slab (a GridStorage over the slab rows) with no intra-band barrier
///    and exchanges halos once per band over band-deep rings, through the
///    same two-phase driver its wavefronts use -- the banded exchange
///    cadence, saving (wavefronts - bands) alpha-term rounds per link at
///    the price of redundant instances and band-deep strips.
///
/// Either way the replay is validated like every other family: bit-exact
/// against the naive reference (ReplayStats::RedundantInstances records
/// the redundancy the family pays).
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_EXEC_OVERLAPPEDREPLAY_H
#define HEXTILE_EXEC_OVERLAPPEDREPLAY_H

#include "core/OverlappedSchedule.h"
#include "exec/Executor.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace hextile {
namespace exec {

/// Builds the storage an overlapped replay of \p Sched needs under
/// \p Opts: makeStorage's choice, with a partitioned storage's rings
/// provisioned for one exchange per band (the schedule's band height).
std::unique_ptr<FieldStorage>
makeOverlappedStorage(const ir::StencilProgram &P,
                      const core::OverlappedSchedule &Sched,
                      const ScheduleRunOptions &Opts,
                      const Initializer &Init = defaultInit);

/// Replays every time step of \p P under the overlapped schedule \p Sched
/// on Opts.BackendOverride (Serial when null, ThreadPool, DeviceSim).
/// Honors Opts.ShuffleSeed (tile execution order on flat storage, by
/// permuteBlock), the backend's batching floor (bands small enough retire
/// inline) and Opts.Stats, whose PeakBandInstances and
/// MaxWavefrontInstances are the largest band's instances. A
/// DeviceSimBackend runs only on partitioned storage built by
/// makeOverlappedStorage (rings provisioned for the band height), the
/// serial and thread-pool backends only on a GridStorage. \p Sched must
/// have been built for \p P's program and grid extents; anything else is
/// rejected with std::invalid_argument.
void runOverlapped(const ir::StencilProgram &P,
                   const core::OverlappedSchedule &Sched,
                   FieldStorage &Storage,
                   const ScheduleRunOptions &Opts = {});

/// Instances one trapezoid executed, and how many of them lay off its core.
struct TrapezoidCounts {
  size_t Instances = 0;
  size_t Redundant = 0;
};

/// Phase 1 of one participant in time band \p Band of \p Sched: runs the
/// band's ticks over the dimension-0 core [CoreLo, CoreHi), widened tick by
/// tick by the schedule's shrinking margins and clipped to the update
/// domain, against \p Storage -- a tile's window rows on flat storage, a
/// device's slab view on partitioned storage. Templated over the storage
/// type like executeInstanceOn, so a final class inlines its reads and
/// writes.
template <class StorageT>
TrapezoidCounts runTrapezoid(const ir::StencilProgram &P,
                             const core::OverlappedSchedule &Sched,
                             int64_t Band, int64_t CoreLo, int64_t CoreHi,
                             StorageT &Storage) {
  const std::vector<int64_t> &Sizes = P.spaceSizes();
  unsigned Rank = P.spaceRank();
  int64_t Lo0 = P.loHalo(0);
  int64_t Hi0 = Sizes[0] - P.hiHalo(0);
  // The inner dimensions' update domain, flattened so the per-cell loop is
  // allocation-free (one div/mod chain per instance).
  std::vector<int64_t> InnerLo(Rank, 0), InnerExt(Rank, 1);
  int64_t Inner = 1;
  for (unsigned D = 1; D < Rank; ++D) {
    InnerLo[D] = P.loHalo(D);
    InnerExt[D] = std::max<int64_t>(0, Sizes[D] - P.hiHalo(D) - InnerLo[D]);
    Inner *= InnerExt[D];
  }
  int64_t Ticks = Sched.bandStepsOf(Band, P.timeSteps()) * P.numStmts();
  int64_t TickBase = Band * Sched.ticksPerBand();
  std::vector<int64_t> Point(Rank + 1, 0);
  TrapezoidCounts Done;
  for (int64_t V = 0; V < Ticks; ++V) {
    Point[0] = TickBase + V;
    int64_t CLo = std::max(Lo0, CoreLo - Sched.marginLo(V));
    int64_t CHi = std::min(Hi0, CoreHi + Sched.marginHi(V));
    for (int64_t S0 = CLo; S0 < CHi; ++S0) {
      Point[1] = S0;
      for (int64_t J = 0; J < Inner; ++J) {
        int64_t Rem = J;
        for (unsigned D = Rank; D-- > 1;) {
          Point[D + 1] = InnerLo[D] + Rem % InnerExt[D];
          Rem /= InnerExt[D];
        }
        executeInstanceOn(P, Storage, Point);
      }
      Done.Instances += static_cast<size_t>(Inner);
      if (S0 < CoreLo || S0 >= CoreHi)
        Done.Redundant += static_cast<size_t>(Inner);
    }
  }
  return Done;
}

/// Reference-vs-overlapped equivalence over storage built by
/// makeOverlappedStorage; "" when the final fields agree bit-exactly.
std::string checkOverlappedEquivalence(const ir::StencilProgram &P,
                                       const core::OverlappedSchedule &Sched,
                                       const ScheduleRunOptions &Opts = {});

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_OVERLAPPEDREPLAY_H
