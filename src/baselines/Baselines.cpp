//===- Baselines.cpp - Baseline compiler models ----------------------------===//

#include "baselines/Baselines.h"

#include "core/IterationDomain.h"
#include "support/MathExt.h"

#include <algorithm>
#include <set>
#include <cassert>

using namespace hextile;
using namespace hextile::baselines;

namespace {

/// Spatial tile widths used by the PPCG model (the empirically optimized
/// defaults referenced in Sec. 6.1).
std::vector<int64_t> ppcgTile(unsigned Rank) {
  if (Rank == 1)
    return {256};
  if (Rank == 2)
    return {16, 32};
  return {8, 8, 32};
}

/// Box load rows for one statement: per read field, the halo-extended box
/// of one spatial tile, as rows along the innermost dimension.
void addBoxLoads(gpu::KernelModel &K, const ir::StencilProgram &P,
                 const ir::StencilStmt &S, const std::vector<int64_t> &W,
                 bool Aligned) {
  unsigned Rank = P.spaceRank();
  // Distinct fields read by this statement with their halo extents.
  std::vector<int> Seen(P.fields().size(), 0);
  for (const ir::ReadAccess &R : S.Reads)
    Seen[R.Field] = 1;
  for (unsigned F = 0; F < P.fields().size(); ++F) {
    if (!Seen[F])
      continue;
    int64_t Lo = 0, Hi = 0;
    std::vector<int64_t> LoD(Rank, 0), HiD(Rank, 0);
    for (const ir::ReadAccess &R : S.Reads) {
      if (R.Field != F)
        continue;
      for (unsigned D = 0; D < Rank; ++D) {
        LoD[D] = std::max(LoD[D], -R.Offsets[D]);
        HiD[D] = std::max(HiD[D], R.Offsets[D]);
      }
    }
    Lo = LoD[Rank - 1];
    Hi = HiD[Rank - 1];
    int64_t RowCount = 1;
    for (unsigned D = 0; D + 1 < Rank; ++D)
      RowCount *= W[D] + LoD[D] + HiD[D];
    gpu::RowBatch B;
    B.Count = RowCount;
    B.Len = W[Rank - 1] + Lo + Hi;
    B.AlignElems = Aligned ? 0 : euclidMod(-Lo, 32);
    K.LoadRequestRows.push_back(B);
  }
}

int64_t tileUpdates(const std::vector<int64_t> &W) {
  int64_t N = 1;
  for (int64_t X : W)
    N *= X;
  return N;
}

int64_t blocksFor(const ir::StencilProgram &P,
                  const std::vector<int64_t> &W) {
  core::IterationDomain D = core::IterationDomain::forProgram(P);
  int64_t N = 1;
  for (unsigned I = 0; I < P.spaceRank(); ++I)
    N *= ceilDiv(D.SpaceHi[I] - D.SpaceLo[I], W[I]);
  return N;
}

} // namespace

BaselineResult baselines::compilePpcg(const ir::StencilProgram &P,
                                      const gpu::DeviceConfig & /*Dev*/) {
  BaselineResult R;
  R.Name = "ppcg";
  std::vector<int64_t> W = ppcgTile(P.spaceRank());
  R.TuningNote = "spatial tile";
  for (int64_t X : W)
    R.TuningNote += " " + std::to_string(X);

  // One kernel class per statement; each launched once per time step with
  // separate copy-in / compute / copy-out phases.
  for (const ir::StencilStmt &S : P.stmts()) {
    gpu::KernelModel K;
    K.Name = P.name() + "-ppcg-" + S.Name;
    K.Launches = P.timeSteps();
    K.BlocksPerLaunch = blocksFor(P, W);
    K.SlabsPerBlock = 1;
    K.ThreadsPerBlock = std::min<int64_t>(512, tileUpdates(W));
    int64_t Upd = tileUpdates(W);
    K.UpdatesPerSlab = Upd;
    K.FlopsPerSlab = Upd * S.flops();
    addBoxLoads(K, P, S, W, /*Aligned=*/false);
    gpu::RowBatch Store;
    Store.Count = Upd / W[P.spaceRank() - 1];
    Store.Len = W[P.spaceRank() - 1];
    Store.AlignElems = 0;
    K.StoreRows.push_back(Store);
    K.SharedLoadsPerSlab = Upd * S.numReads();
    K.SharedStoresPerSlab = Upd;
    K.SharedBytesPerBlock = 0;
    for (const gpu::RowBatch &B : K.LoadRequestRows)
      K.SharedBytesPerBlock += 4 * B.Count * B.Len;
    K.OverlapCopyOut = false; // Separate staging phases.
    R.Kernels.push_back(std::move(K));
  }

  // Functional schedule: time steps sequential, all space parallel.
  R.Key = [](std::span<const int64_t> Point, std::vector<int64_t> &Key) {
    Key.push_back(Point[0]);
  };
  return R;
}

BaselineResult baselines::compilePar4all(const ir::StencilProgram &P,
                                         const gpu::DeviceConfig &Dev) {
  BaselineResult R;
  R.Name = "par4all";
  // The paper reports "invalid CUDA" for fdtd-2d: Par4All's array-region
  // analysis mishandles the same-step inter-statement dependences.
  for (const ir::StencilStmt &S : P.stmts())
    for (const ir::ReadAccess &A : S.Reads)
      if (A.TimeOffset == 0) {
        R.TuningNote = "invalid CUDA";
        return R;
      }

  std::vector<int64_t> W = P.spaceRank() == 2
                               ? std::vector<int64_t>{8, 32}
                               : P.spaceRank() == 3
                                     ? std::vector<int64_t>{4, 8, 32}
                                     : std::vector<int64_t>{256};
  R.TuningNote = "dynamic tile heuristic";
  unsigned Rank = P.spaceRank();
  for (const ir::StencilStmt &S : P.stmts()) {
    gpu::KernelModel K;
    K.Name = P.name() + "-par4all-" + S.Name;
    K.Launches = P.timeSteps();
    K.BlocksPerLaunch = blocksFor(P, W);
    K.SlabsPerBlock = 1;
    int64_t Upd = tileUpdates(W);
    K.ThreadsPerBlock = std::min<int64_t>(512, Upd);
    K.UpdatesPerSlab = Upd;
    K.FlopsPerSlab = Upd * S.flops();
    // Global accesses through the caches: per-read warp request rows.
    for (const ir::ReadAccess &A : S.Reads) {
      gpu::RowBatch B;
      B.Count = std::max<int64_t>(1, Upd / Dev.WarpSize);
      B.Len = Dev.WarpSize;
      B.AlignElems = euclidMod(A.Offsets[Rank - 1], Dev.WarpSize);
      K.LoadRequestRows.push_back(B);
    }
    // Distinct traffic: the halo boxes, as for PPCG.
    gpu::KernelModel Tmp;
    addBoxLoads(Tmp, P, S, W, /*Aligned=*/false);
    K.LoadDistinctRows = Tmp.LoadRequestRows;
    K.L1FilterFactor = 0.5;
    gpu::RowBatch Store;
    Store.Count = Upd / W[Rank - 1];
    Store.Len = W[Rank - 1];
    Store.AlignElems = 0;
    K.StoreRows.push_back(Store);
    K.OverlapCopyOut = true;  // No staging phases at all.
    K.StagedCopies = false;   // Cache-backed direct accesses.
    R.Kernels.push_back(std::move(K));
  }
  R.Key = [](std::span<const int64_t> Point, std::vector<int64_t> &Key) {
    Key.push_back(Point[0]);
  };
  return R;
}

namespace {

/// Builds the Overtile launch model for one (time height, widths) choice.
std::vector<gpu::KernelModel>
overtileKernels(const ir::StencilProgram &P,
                const gpu::DeviceConfig & /*Dev*/, int64_t HT,
                const std::vector<int64_t> &W) {
  unsigned Rank = P.spaceRank();
  // Slope of the overlap region: one halo cell per time step per side.
  int64_t Halo = 0;
  for (unsigned D = 0; D < Rank; ++D)
    Halo = std::max({Halo, P.loHalo(D), P.hiHalo(D)});

  gpu::KernelModel K;
  K.Name = P.name() + "-overtile";
  K.Launches = ceilDiv(P.timeSteps(), HT);
  K.BlocksPerLaunch = blocksFor(P, W);
  K.SlabsPerBlock = 1;
  int64_t Threads = 1;
  for (unsigned D = 0; D < Rank; ++D)
    Threads *= (D + 1 == Rank ? W[D] : 1);
  K.ThreadsPerBlock = std::min<int64_t>(512, std::max<int64_t>(Threads, 64));

  // Useful updates vs. redundantly computed instances.
  int64_t Useful = tileUpdates(W) * HT * P.numStmts();
  double Computed = 0;
  for (int64_t Tau = 0; Tau < HT; ++Tau) {
    double Area = 1;
    for (unsigned D = 0; D < Rank; ++D)
      Area *= W[D] + 2.0 * Halo * (HT - 1 - Tau);
    Computed += Area;
  }
  Computed *= P.numStmts();
  K.UpdatesPerSlab = Useful;
  int64_t FlopsPerPoint = P.totalFlops();
  K.FlopsPerSlab = static_cast<int64_t>(Computed / P.numStmts()) *
                   FlopsPerPoint;

  // Loads: the widest footprint, once per distinct version actually read.
  for (unsigned F = 0; F < P.fields().size(); ++F) {
    std::set<int> Versions;
    for (const ir::StencilStmt &S : P.stmts())
      for (const ir::ReadAccess &R : S.Reads)
        if (R.Field == F)
          Versions.insert(R.TimeOffset);
    if (Versions.empty())
      continue;
    int64_t RowCount = static_cast<int64_t>(Versions.size());
    for (unsigned D = 0; D + 1 < Rank; ++D)
      RowCount *= W[D] + 2 * (Halo * HT);
    gpu::RowBatch B;
    B.Count = RowCount;
    B.Len = W[Rank - 1] + 2 * (Halo * HT);
    B.AlignElems = 0; // Overtile aligns its staging loads.
    K.LoadRequestRows.push_back(B);
  }
  // Stores: the tile's output region for each computed step (values are
  // needed by the next time tile and by neighbor tiles).
  gpu::RowBatch Store;
  Store.Count = std::max<int64_t>(1, tileUpdates(W) / W[Rank - 1]) *
                P.fields().size();
  Store.Len = W[Rank - 1];
  Store.AlignElems = 0;
  K.StoreRows.push_back(Store);

  // Shared traffic follows the computed (redundant) instances.
  double ReadsPerPoint = static_cast<double>(P.totalReads()) / P.numStmts();
  K.SharedLoadsPerSlab = static_cast<int64_t>(Computed * ReadsPerPoint);
  K.SharedStoresPerSlab = static_cast<int64_t>(Computed);
  K.SharedBytesPerBlock = 0;
  for (const gpu::RowBatch &B : K.LoadRequestRows)
    K.SharedBytesPerBlock += 4 * B.Count * B.Len * 2;
  K.OverlapCopyOut = true;
  return {K};
}

} // namespace

BaselineResult baselines::compileOvertile(const ir::StencilProgram &P,
                                          const gpu::DeviceConfig &Dev) {
  BaselineResult R;
  R.Name = "overtile";
  unsigned Rank = P.spaceRank();
  std::vector<int64_t> Heights = Rank >= 3
                                     ? std::vector<int64_t>{1, 2}
                                     : std::vector<int64_t>{1, 2, 4, 8};
  std::vector<std::vector<int64_t>> Tiles;
  if (Rank == 1) {
    Tiles = {{128}, {256}, {512}};
  } else if (Rank == 2) {
    for (int64_t W0 : {16, 32, 64})
      for (int64_t W1 : {32, 64})
        Tiles.push_back({W0, W1});
  } else {
    for (int64_t W0 : {4, 8})
      for (int64_t W1 : {8, 16})
        for (int64_t W2 : {32, 64})
          Tiles.push_back({W0, W1, W2});
  }

  double BestScore = -1;
  for (int64_t HT : Heights)
    for (const std::vector<int64_t> &W : Tiles) {
      std::vector<gpu::KernelModel> Ks = overtileKernels(P, Dev, HT, W);
      if (Ks[0].SharedBytesPerBlock > Dev.SharedMemPerBlock)
        continue;
      gpu::PerfResult Res = gpu::simulate(Dev, Ks);
      if (Res.GStencilsPerSec > BestScore) {
        BestScore = Res.GStencilsPerSec;
        R.Kernels = std::move(Ks);
        R.TuningNote = "hT=" + std::to_string(HT) + ", tile";
        for (int64_t X : W)
          R.TuningNote += " " + std::to_string(X);
      }
    }
  assert(!R.Kernels.empty() && "no admissible Overtile configuration");
  return R;
}
