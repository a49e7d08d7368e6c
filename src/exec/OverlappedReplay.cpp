//===- OverlappedReplay.cpp - Overlapped (trapezoidal) replay -------------===//

#include "exec/OverlappedReplay.h"

#include "exec/DeviceSimBackend.h"
#include "exec/PartitionedGridStorage.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>

using namespace hextile;
using namespace hextile::exec;

namespace {

/// The flat-storage replay: a private window per tile, two phases per
/// band, on the backend's pool when it has one (a ThreadPoolBackend), else
/// serially.
void runOverlappedTiled(const ir::StencilProgram &P,
                        const core::OverlappedSchedule &Sched,
                        GridStorage &Storage, ExecutionBackend &Backend,
                        const ScheduleRunOptions &Opts) {
  int64_t NumTiles = Sched.numTiles();
  // Each tile's window holds its footprint rows: the core plus the
  // band-entry halos, clipped to the grid.
  std::vector<GridStorage> Windows;
  Windows.reserve(static_cast<size_t>(NumTiles));
  for (int64_t Tile = 0; Tile < NumTiles; ++Tile)
    Windows.emplace_back(P, Initializer(), Sched.tileLo(Tile) - Sched.footLo(),
                         Sched.tileHi(Tile) + Sched.footHi());
  std::vector<TrapezoidCounts> TileDone(static_cast<size_t>(NumTiles));

  // Tile execution order: seeded by the replay's block hash, to prove
  // order freedom the same way wavefront replays shuffle instances.
  std::vector<int64_t> Order(static_cast<size_t>(NumTiles));
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](int64_t A, int64_t B) {
    return std::pair(permuteBlock(Opts.ShuffleSeed, A), A) <
           std::pair(permuteBlock(Opts.ShuffleSeed, B), B);
  });

  // Phase 1 of one band for one tile: stage the footprint (slot images:
  // reading time T = s hits slot s for s < depth) and run the band's ticks
  // entirely inside the window.
  auto LoadCompute = [&](int64_t Tile, int64_t Band) {
    GridStorage &Win = Windows[static_cast<size_t>(Tile)];
    Win.copyRows(Storage, Win.rowLo(), Win.rowHi());
    TileDone[static_cast<size_t>(Tile)] = runTrapezoid(
        P, Sched, Band, Sched.tileLo(Tile), Sched.tileHi(Tile), Win);
  };

  // Phase 2: write the core rows back, every slot of every field (cells
  // a band never wrote copy their own staged value -- identity). Cores
  // are disjoint, so concurrent tiles never collide.
  auto WriteBack = [&](int64_t Tile) {
    Storage.copyRows(Windows[static_cast<size_t>(Tile)], Sched.tileLo(Tile),
                     Sched.tileHi(Tile));
  };

  auto *Pooled = dynamic_cast<ThreadPoolBackend *>(&Backend);
  ThreadPool *Pool = Pooled ? &Pooled->pool() : nullptr;
  size_t BandInstances =
      static_cast<size_t>(P.pointsPerTimeStep() * Sched.ticksPerBand());
  bool UsePool = Pool && BandInstances > Pooled->minTaskInstances();

  // One phase over every tile, in execution order: on the pool, whose
  // return is the barrier, or inline.
  auto EachTile = [&](const std::function<void(int64_t)> &Fn) {
    if (!UsePool) {
      for (int64_t Tile : Order)
        Fn(Tile);
      return;
    }
    Pool->parallelFor(static_cast<size_t>(NumTiles),
                      [&](size_t I) { Fn(Order[I]); });
  };
  int64_t NumBands = Sched.numBands(P.timeSteps());
  TrapezoidCounts Total;
  size_t Peak = 0;
  Backend.beginReplay();
  for (int64_t Band = 0; Band < NumBands; ++Band) {
    EachTile([&](int64_t Tile) { LoadCompute(Tile, Band); });
    EachTile(WriteBack);
    size_t Executed = 0;
    for (const TrapezoidCounts &Done : TileDone) {
      Executed += Done.Instances;
      Total.Redundant += Done.Redundant;
    }
    Total.Instances += Executed;
    Peak = std::max(Peak, Executed);
  }

  Backend.finishReplay(Opts.Stats); // the pool's dispatched tasks
  if (ReplayStats *Stats = Opts.Stats) {
    Stats->Instances = Total.Instances;
    Stats->RedundantInstances = Total.Redundant;
    Stats->Bands = static_cast<size_t>(NumBands);
    Stats->Wavefronts = static_cast<size_t>(NumBands) * 2; // two phases
    // A band's phase 1 is one parallel batch, its largest resident set.
    Stats->PeakBandInstances = Stats->MaxWavefrontInstances = Peak;
  }
}

/// The partitioned-storage replay: device-level trapezoids, one exchange
/// per band (DeviceSimBackend::runOverlappedBand).
void runOverlappedBanded(const ir::StencilProgram &P,
                         const core::OverlappedSchedule &Sched,
                         PartitionedGridStorage &Parts,
                         DeviceSimBackend &Backend, ReplayStats *Stats) {
  Parts.setBandedReplayMode(true);
  int64_t NumBands = Sched.numBands(P.timeSteps());
  size_t Peak = 0;
  Backend.beginReplay();
  for (int64_t Band = 0; Band < NumBands; ++Band)
    Peak = std::max(Peak, Backend.runOverlappedBand(P, Parts, Sched, Band));
  Backend.finishReplay(Stats);

  if (Stats) {
    Stats->Bands = static_cast<size_t>(NumBands);
    Stats->Wavefronts = static_cast<size_t>(NumBands);
    Stats->PeakBandInstances = Stats->MaxWavefrontInstances = Peak;
    for (const DeviceReplayStats &D : Stats->PerDevice)
      Stats->Instances += D.Instances;
  }
}

/// Grid extents as in "24x24", for diagnostics.
std::string extentsStr(const std::vector<int64_t> &Sizes) {
  std::string S;
  for (size_t D = 0; D < Sizes.size(); ++D)
    S += (D ? "x" : "") + std::to_string(Sizes[D]);
  return S;
}

} // namespace

std::unique_ptr<FieldStorage>
exec::makeOverlappedStorage(const ir::StencilProgram &P,
                            const core::OverlappedSchedule &Sched,
                            const ScheduleRunOptions &Opts,
                            const Initializer &Init) {
  ExecutionBackend *Backend = Opts.BackendOverride;
  if (const gpu::DeviceTopology *Topo =
          Backend ? Backend->partitionTopology() : nullptr)
    return std::make_unique<PartitionedGridStorage>(P, *Topo, Init,
                                                    Sched.bandSteps());
  return std::make_unique<GridStorage>(P, Init);
}

void exec::runOverlapped(const ir::StencilProgram &P,
                         const core::OverlappedSchedule &Sched,
                         FieldStorage &Storage,
                         const ScheduleRunOptions &Opts) {
  if (&Sched.program() != &P && Sched.program().name() != P.name())
    throw std::invalid_argument("overlapped schedule was built for '" +
                                Sched.program().name() + "', replaying '" +
                                P.name() + "'");
  // Tiles, margins and footprints are laid out over the schedule's grid.
  if (Sched.program().spaceSizes() != P.spaceSizes())
    throw std::invalid_argument(
        "overlapped schedule was built for a " +
        extentsStr(Sched.program().spaceSizes()) + " grid, replaying a " +
        extentsStr(P.spaceSizes()) + " grid");
  SerialBackend Serial;
  ExecutionBackend &Backend =
      Opts.BackendOverride ? *Opts.BackendOverride : Serial;
  auto *Flat = dynamic_cast<GridStorage *>(&Storage);
  auto *Parts = dynamic_cast<PartitionedGridStorage *>(&Storage);
  auto *Devices = dynamic_cast<DeviceSimBackend *>(&Backend);
  if (Devices ? !Parts : !Flat)
    throw std::invalid_argument(
        "overlapped replay of storage kind '" + std::string(Storage.kind()) +
        "' on backend '" + Backend.name() +
        "': flat storage replays on a serial or thread-pool backend, "
        "partitioned storage (exec::makeOverlappedStorage) on a "
        "DeviceSimBackend");
  if (Opts.Stats)
    *Opts.Stats = ReplayStats{};
  if (Devices)
    runOverlappedBanded(P, Sched, *Parts, *Devices, Opts.Stats);
  else
    runOverlappedTiled(P, Sched, *Flat, Backend, Opts);
}

std::string
exec::checkOverlappedEquivalence(const ir::StencilProgram &P,
                                 const core::OverlappedSchedule &Sched,
                                 const ScheduleRunOptions &Opts) {
  GridStorage Ref(P);
  runReference(P, Ref);

  std::unique_ptr<FieldStorage> Tiled = makeOverlappedStorage(P, Sched, Opts);
  runOverlapped(P, Sched, *Tiled, Opts);

  int64_t LastStep = P.timeSteps() - 1;
  return compareStoragesAtStep(Ref, *Tiled, LastStep);
}
