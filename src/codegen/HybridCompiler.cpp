//===- HybridCompiler.cpp - The hybrid hexagonal compiler -----------------===//

#include "codegen/HybridCompiler.h"

#include "deps/DeltaBounds.h"

#include <cassert>
#include <cctype>
#include <map>
#include <stdexcept>

using namespace hextile;
using namespace hextile::codegen;

std::string OptimizationConfig::str() const {
  std::string S = useSharedMemory() ? "shared memory" : "global-memory only";
  if (interleaveCopyOut())
    S += " + interleaved copy-out";
  if (alignLoads())
    S += " + aligned loads";
  switch (reuse()) {
  case ReuseKind::None:
    break;
  case ReuseKind::Static:
    S += " + static reuse";
    break;
  case ReuseKind::Dynamic:
    S += " + dynamic reuse";
    break;
  }
  if (ShimThreads > 0)
    S += " + parallel shim (" + std::to_string(ShimThreads) +
         " threads/block)";
  return S;
}

CompiledHybrid::CompiledHybrid(ir::StencilProgram Program,
                               deps::DependenceInfo Dependences,
                               core::HybridSchedule Schedule,
                               OptimizationConfig Cfg)
    : Prog(std::move(Program)), Deps(std::move(Dependences)),
      Sched(std::move(Schedule)), Config(Cfg),
      Costs(core::analyzeSlab(Prog, Deps, Sched)) {}

int64_t CompiledHybrid::threadsPerBlock() const {
  if (Prog.spaceRank() == 1)
    return std::min<int64_t>(64, Sched.params().spacePeriod());
  int64_t N = 1;
  for (const core::ClassicalTiling &T : Sched.inner())
    N *= T.width();
  return N;
}

std::vector<gpu::KernelModel>
CompiledHybrid::kernelModels(const gpu::DeviceConfig &Dev) const {
  gpu::KernelModel K;
  K.Name = Prog.name() + "-hybrid";
  K.Launches = core::launches(Prog, Sched);
  K.BlocksPerLaunch = core::blocksPerLaunch(Prog, Sched);
  K.SlabsPerBlock = core::slabsPerBlock(Prog, Sched);
  K.ThreadsPerBlock = threadsPerBlock();
  K.UpdatesPerSlab = Costs.Instances;
  K.FlopsPerSlab = Costs.Flops;
  K.OverlapCopyOut = Config.interleaveCopyOut();

  unsigned Rank = Prog.spaceRank();
  auto RowsToBatches = [&](const std::vector<core::TransferRow> &Rows,
                           bool Aligned) {
    std::vector<gpu::RowBatch> Batches;
    Batches.reserve(Rows.size());
    for (const core::TransferRow &R : Rows) {
      gpu::RowBatch B;
      B.Count = 1;
      B.Len = R.Len;
      // Natural placement: slab origins are warp multiples along the
      // innermost dimension, so a row starting at Start sits at byte
      // offset 4*(Start mod 32). Aligned placement translates the tile
      // (Sec. 4.2.3) so row starts hit 128B boundaries.
      B.AlignElems = Aligned ? 0 : euclidMod(R.Start, Dev.WarpSize);
      Batches.push_back(B);
    }
    return Batches;
  };

  if (!Config.useSharedMemory()) {
    // Configuration (a): every read is a global load issued per point.
    // Warp-level requests: one row of WarpSize elements per read per warp,
    // offset by the read's innermost-dimension offset.
    int64_t K_ = Prog.numStmts();
    int64_t InstPerStmt = Costs.Instances / K_;
    for (const ir::StencilStmt &S : Prog.stmts())
      for (const ir::ReadAccess &R : S.Reads) {
        gpu::RowBatch B;
        B.Count = std::max<int64_t>(1, InstPerStmt / Dev.WarpSize);
        B.Len = Dev.WarpSize;
        int64_t InnerOff = R.Offsets[Rank - 1];
        B.AlignElems = euclidMod(InnerOff, Dev.WarpSize);
        K.LoadRequestRows.push_back(B);
      }
    // Post-cache distinct traffic: the slab's input set at its natural
    // (unaligned) placement.
    K.LoadDistinctRows = RowsToBatches(Costs.LoadRows, /*Aligned=*/false);
    K.L1FilterFactor = 0.5; // L1 catches intra-row re-references.
    K.StoreRows = RowsToBatches(Costs.StoreRows, /*Aligned=*/true);
    K.SharedLoadsPerSlab = 0;
    K.SharedStoresPerSlab = 0;
    K.SharedBytesPerBlock = 0;
    K.StagedCopies = false; // Cache-backed direct accesses.
    return {K};
  }

  // Shared-memory configurations (b)-(f). Without inter-tile reuse the
  // load phase transfers the divergence-free rectangular box rows
  // (Sec. 4.2); with reuse only the values absent from the predecessor
  // slab move.
  K.SharedBytesPerBlock = Costs.SharedBytes;
  ReuseKind Reuse = Config.reuse();
  const std::vector<core::TransferRow> &Rows =
      Reuse != ReuseKind::None ? Costs.LoadRowsReuse : Costs.LoadRowsBox;
  K.LoadRequestRows = RowsToBatches(Rows, Config.alignLoads());
  K.StoreRows = RowsToBatches(Costs.StoreRows, Config.alignLoads());
  // The Sec. 4.3.2 sliding window, which every Table 4 rung unrolls.
  K.SharedLoadsPerSlab = Costs.SharedLoadsUnrolled;
  K.SharedStoresPerSlab = Costs.SharedStores;
  if (Reuse == ReuseKind::Dynamic) {
    // The explicit shared->shared move of reused values (Sec. 4.2.2).
    int64_t Moved = Costs.LoadValues - Costs.LoadValuesReuse;
    K.SharedLoadsPerSlab += Moved;
    K.SharedStoresPerSlab += Moved;
  }
  if (Reuse == ReuseKind::Static) {
    // The static global->shared mapping wraps rows at the global extent, so
    // warp accesses straddle bank groups: two-way conflicts on the rotated
    // rows (Table 5 measures 1.8 transactions per request).
    K.SharedTransactionsPerRequest = 2.0;
  }
  return {K};
}

exec::ScheduleKeyIntoFn
CompiledHybrid::scheduleKey(uint64_t BlockPermSeed) const {
  // Capture by value: the key function outlives the compiler result's
  // stack frame uses.
  core::HybridSchedule S = Sched;
  return [S, BlockPermSeed](std::span<const int64_t> Point,
                            std::vector<int64_t> &Key) {
    // Slot 2 is the thread-block index S0.
    size_t BlockSlot = Key.size() + 2;
    S.appendKey(Point, Key);
    Key[BlockSlot] = exec::permuteBlock(BlockPermSeed, Key[BlockSlot]);
  };
}

double codegen::sharedLoadsPerPointRegisterTiled(
    const ir::StencilProgram &P, unsigned StmtIdx, int64_t TileWidth) {
  assert(StmtIdx < P.numStmts() && "statement index out of range");
  assert(TileWidth >= 1 && "register tile must be positive");
  const ir::StencilStmt &S = P.stmts()[StmtIdx];
  unsigned Rank = P.spaceRank();
  // Group reads by everything except the s0 offset (served by the sliding
  // window) and the s1 offset (shared across the register tile); per
  // group, TileWidth points need (s1 span + TileWidth - 1) values.
  std::map<std::vector<int64_t>, std::pair<int64_t, int64_t>> Groups;
  for (const ir::ReadAccess &R : S.Reads) {
    std::vector<int64_t> Key;
    Key.push_back(R.Field);
    Key.push_back(R.TimeOffset);
    for (unsigned D = 2; D < Rank; ++D)
      Key.push_back(R.Offsets[D]);
    int64_t S1 = Rank >= 2 ? R.Offsets[1] : 0;
    auto It = Groups.find(Key);
    if (It == Groups.end())
      Groups[Key] = {S1, S1};
    else {
      It->second.first = std::min(It->second.first, S1);
      It->second.second = std::max(It->second.second, S1);
    }
  }
  double Loads = 0;
  for (const auto &[Key, Span] : Groups)
    Loads += static_cast<double>(Span.second - Span.first + TileWidth) /
             TileWidth;
  return Loads;
}

CompiledHybrid codegen::compileHybridTuned(const ir::StencilProgram &P,
                                           const TunedSizes &T) {
  TileSizeRequest Sizes;
  Sizes.H = T.H;
  Sizes.W0 = T.W0;
  Sizes.InnerWidths = T.InnerWidths;
  return compileHybrid(P, Sizes, T.Config);
}

CompiledHybrid codegen::compileHybrid(const ir::StencilProgram &P,
                                      const TileSizeRequest &Sizes,
                                      const OptimizationConfig &Config) {
  // A request reaches here from outside (a compile-service client), so
  // reject what the analyses and schedule constructors would assert on.
  if (!Config.validRung()) {
    unsigned char R = static_cast<unsigned char>(Config.Rung);
    throw std::invalid_argument(
        "optimization rung " +
        (std::isprint(R) ? "'" + std::string(1, Config.Rung) + "'"
                         : "code " + std::to_string(R)) +
        " is not one of 'a'..'f'");
  }
  if (std::string Bad = P.verify(); !Bad.empty())
    throw std::invalid_argument("invalid program " + P.name() + ": " + Bad);
  size_t InnerDims = P.spaceRank() - 1;
  if (!Sizes.InnerWidths.empty() && Sizes.InnerWidths.size() != InnerDims)
    throw std::invalid_argument(
        std::to_string(Sizes.InnerWidths.size()) + " inner tile widths for " +
        std::to_string(InnerDims) + " inner dimensions of " + P.name());
  for (int64_t W : Sizes.InnerWidths)
    if (W < 1)
      throw std::invalid_argument("inner tile width " + std::to_string(W) +
                                  " is not positive");
  deps::DependenceInfo Deps = deps::analyzeDependences(P);
  std::vector<deps::ConeBounds> Cones = deps::computeAllConeBounds(Deps);

  int64_t H, W0;
  std::vector<int64_t> InnerW;
  if (Sizes.H && Sizes.W0 &&
      (P.spaceRank() == 1 || !Sizes.InnerWidths.empty())) {
    H = *Sizes.H;
    W0 = *Sizes.W0;
    InnerW = Sizes.InnerWidths;
  } else {
    std::optional<core::TileSizeChoice> Choice =
        core::selectTileSizes(P, Deps, Cones, Sizes.Constraints);
    if (!Choice)
      throw std::invalid_argument(
          "no tile size of " + P.name() + " fits " +
          std::to_string(Sizes.Constraints.SharedMemBytes) +
          " bytes of shared memory within the size constraints");
    H = Sizes.H.value_or(Choice->Params.H);
    W0 = Sizes.W0.value_or(Choice->Params.W0);
    InnerW = Sizes.InnerWidths.empty() ? Choice->InnerWidths
                                       : Sizes.InnerWidths;
  }

  core::HexTileParams Params(H, W0, Cones[0].Delta0, Cones[0].Delta1);
  if (!Params.isValid())
    throw std::invalid_argument("tile sizes " + Params.str() +
                                " violate the width bound (1)");
  std::vector<Rational> InnerD;
  for (unsigned I = 1; I < Cones.size(); ++I)
    InnerD.push_back(Cones[I].Delta1);
  core::HybridSchedule Sched(Params, InnerW, InnerD);
  return CompiledHybrid(P, std::move(Deps), std::move(Sched), Config);
}
