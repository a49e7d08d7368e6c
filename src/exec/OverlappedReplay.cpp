//===- OverlappedReplay.cpp - Overlapped (trapezoidal) replay -------------===//

#include "exec/OverlappedReplay.h"

#include "exec/DeviceSimBackend.h"
#include "exec/PartitionedGridStorage.h"
#include "support/MathExt.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <stdexcept>

using namespace hextile;
using namespace hextile::exec;

namespace {

/// One tile's private window: core + band-entry footprint along dim 0,
/// full grid extents on the inner dimensions, every rotating slot of every
/// field -- laid out exactly like GridStorage so the band's ticks run
/// through executeInstanceOn with slot arithmetic unchanged. Off-grid
/// window cells exist but are never loaded, computed, or read (reads from
/// update-domain cells stay inside the grid).
class TileWindow {
public:
  void init(const ir::StencilProgram &P, int64_t Width) {
    if (!Data.empty())
      return;
    Sizes = P.spaceSizes();
    WinW = Width;
    InnerPoints = 1;
    for (unsigned D = 1; D < Sizes.size(); ++D)
      InnerPoints *= Sizes[D];
    WinPoints = WinW * InnerPoints;
    unsigned NumFields = P.fields().size();
    Depth.resize(NumFields);
    FieldOffset.resize(NumFields);
    int64_t Copies = 0;
    for (unsigned F = 0; F < NumFields; ++F) {
      Depth[F] = P.bufferDepth(F);
      FieldOffset[F] = Copies;
      Copies += Depth[F];
    }
    Data.assign(static_cast<size_t>(Copies * WinPoints), 0.0f);
  }

  void setBase(int64_t Lo) { WinLo = Lo; }

  float read(unsigned Field, int64_t T, std::span<const int64_t> C) const {
    return Data[index(Field, T, C)];
  }
  void write(unsigned Field, int64_t T, std::span<const int64_t> C, float V) {
    Data[index(Field, T, C)] = V;
  }

private:
  size_t index(unsigned Field, int64_t T, std::span<const int64_t> C) const {
    int64_t Slot = euclidMod(T, Depth[Field]);
    int64_t W0 = C[0] - WinLo;
    assert(W0 >= 0 && W0 < WinW && "read/write outside the tile window");
    int64_t Linear = W0;
    for (unsigned D = 1; D < Sizes.size(); ++D)
      Linear = Linear * Sizes[D] + C[D];
    return static_cast<size_t>((FieldOffset[Field] + Slot) * WinPoints +
                               Linear);
  }

  std::vector<int64_t> Sizes;
  std::vector<unsigned> Depth;
  std::vector<int64_t> FieldOffset;
  int64_t WinLo = 0;
  int64_t WinW = 0;
  int64_t InnerPoints = 0;
  int64_t WinPoints = 0;
  std::vector<float> Data;
};

uint64_t splitmix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// The flat-storage replay: private windows, two phases per band, on the
/// backend's pool when it has one (a ThreadPoolBackend), else serially.
void runOverlappedTiled(const ir::StencilProgram &P,
                        const core::OverlappedSchedule &Sched,
                        FieldStorage &Storage, ExecutionBackend &Backend,
                        const ScheduleRunOptions &Opts) {
  const std::vector<int64_t> &Sizes = P.spaceSizes();
  unsigned Rank = P.spaceRank();
  int64_t NumTiles = Sched.numTiles();
  int64_t WinW = Sched.tileWidth() + Sched.footLo() + Sched.footHi();
  int64_t InnerAll = 1;
  for (unsigned D = 1; D < Rank; ++D)
    InnerAll *= Sizes[D];

  std::vector<TileWindow> Windows(static_cast<size_t>(NumTiles));
  std::vector<TrapezoidCounts> TileDone(static_cast<size_t>(NumTiles));

  // Tile execution order: shuffled when seeded, to prove order freedom the
  // same way wavefront replays shuffle instances.
  std::vector<int64_t> Order(static_cast<size_t>(NumTiles));
  std::iota(Order.begin(), Order.end(), 0);
  if (Opts.ShuffleSeed != 0) {
    uint64_t State = Opts.ShuffleSeed;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[splitmix64(State) % I]);
  }

  int64_t NumBands = Sched.numBands(P.timeSteps());

  // Copies dimension-0 columns [Lo, Hi) -- every slot of every field, full
  // inner extents -- from Src to Dst: a tile's stage-in (slot-image copies:
  // reading time T = s hits slot s for s < depth) and its write-back.
  auto Copy = [&](int64_t Lo, int64_t Hi, const auto &Src, auto &Dst) {
    std::vector<int64_t> C(Rank, 0);
    std::span<const int64_t> CS(C.data(), Rank);
    for (unsigned F = 0; F < P.fields().size(); ++F)
      for (unsigned S = 0; S < P.bufferDepth(F); ++S)
        for (int64_t C0 = Lo; C0 < Hi; ++C0) {
          C[0] = C0;
          for (int64_t J = 0; J < InnerAll; ++J) {
            int64_t Rem = J;
            for (unsigned D = Rank; D-- > 1;) {
              C[D] = Rem % Sizes[D];
              Rem /= Sizes[D];
            }
            Dst.write(F, S, CS, Src.read(F, S, CS));
          }
        }
  };

  // Phase 1 of one band for one tile: stage the footprint and run the
  // band's ticks entirely inside the window.
  auto LoadCompute = [&](int64_t Tile, int64_t Band) {
    TileWindow &Win = Windows[static_cast<size_t>(Tile)];
    Win.init(P, WinW);
    int64_t WinLo = Sched.tileLo(Tile) - Sched.footLo();
    Win.setBase(WinLo);
    Copy(std::max<int64_t>(0, WinLo),
         std::min<int64_t>(Sizes[0], WinLo + WinW), Storage, Win);
    TrapezoidCounts Done = runTrapezoid(P, Sched, Band, Sched.tileLo(Tile),
                                        Sched.tileHi(Tile), Win);
    TileDone[static_cast<size_t>(Tile)].Instances += Done.Instances;
    TileDone[static_cast<size_t>(Tile)].Redundant += Done.Redundant;
  };

  // Phase 2: write the core column back, every slot of every field (cells
  // a band never wrote copy their own staged value -- identity). Cores
  // are disjoint, so concurrent tiles never collide.
  auto WriteBack = [&](int64_t Tile) {
    Copy(Sched.tileLo(Tile), Sched.tileHi(Tile),
         Windows[static_cast<size_t>(Tile)], Storage);
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
  Backend.beginReplay();
  for (int64_t Band = 0; Band < NumBands; ++Band) {
    EachTile([&](int64_t Tile) { LoadCompute(Tile, Band); });
    EachTile(WriteBack);
  }

  Backend.finishReplay(Opts.Stats); // the pool's dispatched tasks
  if (ReplayStats *Stats = Opts.Stats) {
    for (const TrapezoidCounts &Done : TileDone) {
      Stats->Instances += Done.Instances;
      Stats->RedundantInstances += Done.Redundant;
    }
    Stats->Bands = static_cast<size_t>(NumBands);
    Stats->Wavefronts = static_cast<size_t>(NumBands) * 2; // two phases
    Stats->PeakBandInstances = NumBands ? Stats->Instances / NumBands : 0;
    Stats->MaxWavefrontInstances = Stats->PeakBandInstances;
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
  Backend.beginReplay();
  for (int64_t Band = 0; Band < NumBands; ++Band)
    Backend.runOverlappedBand(P, Parts, Sched, Band);
  Backend.finishReplay(Stats);

  if (Stats) {
    Stats->Bands = static_cast<size_t>(NumBands);
    Stats->Wavefronts = static_cast<size_t>(NumBands);
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
  auto *Parts = dynamic_cast<PartitionedGridStorage *>(&Storage);
  auto *Devices = dynamic_cast<DeviceSimBackend *>(&Backend);
  if (!Parts != !Devices)
    throw std::invalid_argument(
        "overlapped replay of storage kind '" + std::string(Storage.kind()) +
        "' on backend '" + Backend.name() +
        "': partitioned storage (exec::makeOverlappedStorage) and a "
        "DeviceSimBackend need each other");
  if (Opts.Stats)
    *Opts.Stats = ReplayStats{};
  if (Parts)
    runOverlappedBanded(P, Sched, *Parts, *Devices, Opts.Stats);
  else
    runOverlappedTiled(P, Sched, Storage, Backend, Opts);
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
