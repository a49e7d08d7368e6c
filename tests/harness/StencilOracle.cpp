//===- StencilOracle.cpp - Differential-testing oracle --------------------===//

#include "harness/StencilOracle.h"

#include "baselines/DiamondTiling.h"
#include "codegen/HybridCompiler.h"
#include "core/ClassicalTiling.h"
#include "harness/HostKernelRunner.h"
#include "core/HexSchedule.h"
#include "core/HybridSchedule.h"
#include "core/IterationDomain.h"
#include "deps/DeltaBounds.h"
#include "deps/DependenceAnalysis.h"
#include "exec/GridStorage.h"
#include "exec/OverlappedReplay.h"
#include "support/Hash.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

using namespace hextile;
using namespace hextile::harness;
using exec::permuteBlock;

const char *harness::scheduleKindName(ScheduleKind K) {
  switch (K) {
  case ScheduleKind::Hex:
    return "hex";
  case ScheduleKind::Hybrid:
    return "hybrid";
  case ScheduleKind::Classical:
    return "classical";
  case ScheduleKind::Diamond:
    return "diamond";
  case ScheduleKind::Overlapped:
    return "overlapped";
  }
  return "?";
}

std::vector<ScheduleKind> harness::allScheduleKinds() {
  return {ScheduleKind::Hex, ScheduleKind::Hybrid, ScheduleKind::Classical,
          ScheduleKind::Diamond, ScheduleKind::Overlapped};
}

std::string OracleTiling::str() const {
  std::ostringstream OS;
  OS << "h=" << H << " w0=" << W0 << " inner=[";
  for (size_t I = 0; I < InnerWidths.size(); ++I)
    OS << (I ? "," : "") << InnerWidths[I];
  OS << "] diamondP=" << DiamondPeriod;
  return OS.str();
}

namespace {

/// Classical widths for spatial dimensions 1..rank-1, extending the
/// requested list with its last entry (or 4) when too short.
std::vector<int64_t> innerWidthsFor(const OracleTiling &T, unsigned Rank) {
  std::vector<int64_t> W = T.InnerWidths;
  while (W.size() + 1 < Rank)
    W.push_back(W.empty() ? 4 : W.back());
  if (Rank >= 1)
    W.resize(Rank - 1);
  for (int64_t &X : W)
    X = std::max<int64_t>(X, 1);
  return W;
}

core::HexTileParams legalizedHexParams(const OracleTiling &T,
                                       const Rational &D0,
                                       const Rational &D1) {
  int64_t H = std::max<int64_t>(T.H, 1);
  int64_t W0 = std::max<int64_t>(T.W0, 1);
  W0 = std::max(W0, core::HexTileParams::minWidth(D0, D1, H).ceil());
  return core::HexTileParams(H, W0, D0, D1);
}

OracleSchedule makeHexKey(const ir::StencilProgram &P,
                          const core::HexTileParams &Prm,
                          uint64_t BlockPermSeed) {
  auto Hex = std::make_shared<core::HexSchedule>(Prm);
  unsigned Rank = P.spaceRank();
  OracleSchedule S;
  // [T, phase, a | S0, b, s1..]: within one phase row every tile spans the
  // same time window, so ordering by the local time a is a legal
  // serialization of the tiles; S0 (blocks) and the spatial coordinates at
  // equal a (threads) are parallel.
  S.ParallelFrom = 3;
  S.Key = [Hex, Rank, BlockPermSeed](std::span<const int64_t> Pt,
                                     std::vector<int64_t> &Key) {
    core::HexTileCoord C = Hex->locate(Pt[0], Pt[1]);
    Key.push_back(C.T);
    Key.push_back(C.Phase);
    Key.push_back(C.A);
    Key.push_back(permuteBlock(BlockPermSeed, C.S0));
    Key.push_back(C.B);
    for (unsigned D = 1; D < Rank; ++D)
      Key.push_back(Pt[D + 1]);
  };
  return S;
}

OracleSchedule makeHybridKey(const ir::StencilProgram &P,
                             const core::HexTileParams &Prm,
                             const OracleTiling &T,
                             const std::vector<deps::ConeBounds> &Cones,
                             uint64_t BlockPermSeed) {
  unsigned Rank = P.spaceRank();
  std::vector<int64_t> Widths = innerWidthsFor(T, Rank);
  std::vector<Rational> Slopes;
  for (unsigned D = 1; D < Rank; ++D)
    Slopes.push_back(Cones[D].Delta1);
  auto Sched =
      std::make_shared<core::HybridSchedule>(Prm, Widths, Slopes);
  OracleSchedule S;
  // Sec. 4.1: [T, p | S0 blocks] then S1..Sn, t' sequential in the kernel,
  // s0'..sn' thread-parallel. The key serializes the blocks (optionally
  // permuted) and keeps the per-block sequential prefix, so equal keys are
  // exactly the thread-parallel instances.
  S.ParallelFrom = 3 + static_cast<int>(Rank - 1) + 1;
  S.Key = [Sched, BlockPermSeed](std::span<const int64_t> Pt,
                                 std::vector<int64_t> &Key) {
    size_t BlockSlot = Key.size() + 2;
    Sched->appendKey(Pt, Key);
    Key[BlockSlot] = permuteBlock(BlockPermSeed, Key[BlockSlot]);
  };
  return S;
}

OracleSchedule makeClassicalKey(const ir::StencilProgram &P,
                                const OracleTiling &T,
                                const std::vector<deps::ConeBounds> &Cones) {
  unsigned Rank = P.spaceRank();
  int64_t Period = 2 * std::max<int64_t>(T.H, 1) + 2;
  auto Tilings = std::make_shared<std::vector<core::ClassicalTiling>>();
  std::vector<int64_t> Inner = innerWidthsFor(T, Rank);
  for (unsigned D = 0; D < Rank; ++D) {
    int64_t W = D == 0 ? std::max<int64_t>(T.W0, 1) : Inner[D - 1];
    Tilings->emplace_back(W, Cones[D].Delta1, Period);
  }
  OracleSchedule S;
  // [TB, S0..Sn, u | locals]: the delta1 skew makes every tile index
  // non-decreasing along dependences, time bands are sequential, and equal
  // keys share (band, tiles, time) -- genuinely parallel points.
  S.ParallelFrom = 2 + static_cast<int>(Rank);
  S.Key = [Tilings, Rank, Period](std::span<const int64_t> Pt,
                                  std::vector<int64_t> &Key) {
    int64_t That = Pt[0];
    int64_t U = euclidMod(That, Period);
    Key.push_back(floorDiv(That, Period));
    for (unsigned D = 0; D < Rank; ++D)
      Key.push_back((*Tilings)[D].tileIndex(Pt[D + 1], U));
    Key.push_back(U);
    for (unsigned D = 0; D < Rank; ++D)
      Key.push_back((*Tilings)[D].localIndex(Pt[D + 1], U));
  };
  return S;
}

OracleSchedule makeDiamondKey(const ir::StencilProgram &P,
                              const OracleTiling &T,
                              const std::vector<deps::ConeBounds> &Cones,
                              uint64_t BlockPermSeed) {
  OracleSchedule S;
  if (Cones[0].Delta0 > Rational(1) || Cones[0].Delta1 > Rational(1)) {
    S.Skipped = "diamond tiling requires cone slopes <= 1, got " +
                Cones[0].str();
    return S;
  }
  unsigned Rank = P.spaceRank();
  auto Diamond = std::make_shared<baselines::DiamondTiling>(
      std::max<int64_t>(T.DiamondPeriod, 2));
  // [A-B wavefront, tile A, t | s..]: dependences never decrease A or
  // increase B, so tiles within one wavefront are independent blocks;
  // within a tile time is sequential and equal-time points are parallel.
  S.ParallelFrom = 3;
  S.Key = [Diamond, Rank, BlockPermSeed](std::span<const int64_t> Pt,
                                         std::vector<int64_t> &Key) {
    int64_t A = 0, B = 0;
    Diamond->locate(Pt[0], Pt[1], A, B);
    Key.push_back(A - B);
    Key.push_back(permuteBlock(BlockPermSeed, A));
    Key.push_back(Pt[0]);
    for (unsigned D = 0; D < Rank; ++D)
      Key.push_back(Pt[D + 1]);
  };
  return S;
}

} // namespace

exec::Initializer harness::seededInit(uint64_t Seed) {
  return [Seed](unsigned Field, std::span<const int64_t> Coords) {
    uint64_t H = mix64(Seed ^ (0xa076'1d64'78bd'642full + Field));
    for (int64_t C : Coords)
      H = mix64(H ^ static_cast<uint64_t>(C));
    return static_cast<float>(H >> 40) / static_cast<float>(1 << 24) * 2.0f -
           1.0f;
  };
}

namespace {

/// Key construction against precomputed cone bounds (the analysis is
/// seed-independent, so callers replaying several serializations compute
/// the bounds once).
OracleSchedule makeScheduleWithCones(
    const ir::StencilProgram &P, ScheduleKind K, const OracleTiling &T,
    const std::vector<deps::ConeBounds> &Cones, uint64_t BlockPermSeed) {
  core::HexTileParams Prm =
      legalizedHexParams(T, Cones[0].Delta0, Cones[0].Delta1);
  switch (K) {
  case ScheduleKind::Hex:
    return makeHexKey(P, Prm, BlockPermSeed);
  case ScheduleKind::Hybrid:
    return makeHybridKey(P, Prm, T, Cones, BlockPermSeed);
  case ScheduleKind::Classical:
    return makeClassicalKey(P, T, Cones);
  case ScheduleKind::Diamond:
    return makeDiamondKey(P, T, Cones, BlockPermSeed);
  case ScheduleKind::Overlapped: {
    // The fifth family recomputes instances redundantly -- one instance
    // runs in several tiles -- so no lexicographic key can express it;
    // runDifferential replays it through exec::runOverlapped instead.
    OracleSchedule S;
    S.Skipped = "overlapped tiling has no schedule key (redundant "
                "recomputation); replayed via exec::runOverlapped";
    return S;
  }
  }
  return {};
}

} // namespace

namespace {

/// EmitSchedule of an oracle kind; nullopt when the kind has no emitter
/// rendering (Diamond).
std::optional<codegen::EmitSchedule> emitScheduleFor(ScheduleKind K) {
  switch (K) {
  case ScheduleKind::Hex:
    return codegen::EmitSchedule::Hex;
  case ScheduleKind::Hybrid:
    return codegen::EmitSchedule::Hybrid;
  case ScheduleKind::Classical:
    return codegen::EmitSchedule::Classical;
  case ScheduleKind::Diamond:
    return std::nullopt;
  case ScheduleKind::Overlapped:
    return codegen::EmitSchedule::Overlapped;
  }
  return std::nullopt;
}

/// Mechanism four: compile the program for the oracle's (legalized) tiling,
/// render it with HostEmitter as the kind's flavor, JIT-build and execute
/// the emitted C++, and compare against the reference bit for bit.
/// \p Cones are the caller's precomputed bounds (same instance the key
/// mechanisms legalized against).
std::string runEmittedMechanism(const ir::StencilProgram &P, ScheduleKind K,
                                const OracleTiling &T,
                                const OracleOptions &Opts,
                                const std::vector<deps::ConeBounds> &Cones,
                                const exec::Initializer &Init) {
  std::optional<codegen::EmitSchedule> ES = emitScheduleFor(K);
  if (!ES || !emittedMechanismAvailable())
    return ""; // No emitter for this kind / no compiler: clean skip.
  codegen::TileSizeRequest Sizes;
  // The same legalization the key mechanisms use, so the emitted loops
  // replay the identical tiling the diagnostics name.
  core::HexTileParams Prm =
      legalizedHexParams(T, Cones[0].Delta0, Cones[0].Delta1);
  Sizes.H = Prm.H;
  Sizes.W0 = Prm.W0;
  Sizes.InnerWidths = innerWidthsFor(T, P.spaceRank());
  codegen::OptimizationConfig EC = Opts.EmitConfig;
  if (Opts.ShimThreads >= 0)
    EC.ShimThreads = Opts.ShimThreads;
  codegen::CompiledHybrid C = codegen::compileHybrid(P, Sizes, EC);
  std::ostringstream Ctx;
  Ctx << "tiling{" << T.str() << "} config{" << EC.str() << "} seed=0x"
      << std::hex << Opts.Seed;
  EmittedUnit Unit;
  std::string Err = Unit.build(P, C, *ES);
  if (Unit.skipped())
    return "";
  if (!Err.empty())
    return Ctx.str() + ": " + Err;
  return Unit.runDifferential(Init, Ctx.str());
}

} // namespace

bool harness::emittedMechanismAvailable() { return JitUnit::available(); }

codegen::CompiledHybrid
harness::compileOracleHybrid(const ir::StencilProgram &P,
                             const OracleTiling &T,
                             const codegen::OptimizationConfig &Config) {
  deps::DependenceInfo Deps = deps::analyzeDependences(P);
  std::vector<deps::ConeBounds> Cones = deps::computeAllConeBounds(Deps);
  core::HexTileParams Prm =
      legalizedHexParams(T, Cones[0].Delta0, Cones[0].Delta1);
  codegen::TileSizeRequest Sizes;
  Sizes.H = Prm.H;
  Sizes.W0 = Prm.W0;
  Sizes.InnerWidths = innerWidthsFor(T, P.spaceRank());
  return codegen::compileHybrid(P, Sizes, Config);
}

OracleSchedule harness::makeOracleSchedule(const ir::StencilProgram &P,
                                           ScheduleKind K,
                                           const OracleTiling &T,
                                           uint64_t BlockPermSeed) {
  deps::DependenceInfo Deps = deps::analyzeDependences(P);
  return makeScheduleWithCones(P, K, T, deps::computeAllConeBounds(Deps),
                               BlockPermSeed);
}

std::string harness::runDifferential(const ir::StencilProgram &P,
                                     ScheduleKind K, const OracleTiling &T,
                                     const OracleOptions &Opts) {
  if (std::string Err = P.verify(); !Err.empty())
    return "oracle input invalid: " + Err;
  exec::Initializer Init = seededInit(Opts.Seed);
  exec::GridStorage Ref(P, Init);
  exec::runReference(P, Ref);

  deps::DependenceInfo Deps = deps::analyzeDependences(P);
  std::vector<deps::ConeBounds> Cones = deps::computeAllConeBounds(Deps);
  core::IterationDomain Domain = core::IterationDomain::forProgram(P);
  int64_t LastStep = P.timeSteps() - 1;
  // One backend for all shuffles: a ThreadPool backend keeps its workers
  // alive across the replays instead of respawning threads per run, and a
  // DeviceSim backend keeps one device chain.
  std::unique_ptr<exec::ExecutionBackend> Backend =
      exec::makeBackend(Opts.Backend, Opts.NumThreads, Opts.NumDevices,
                        /*Topology=*/nullptr, Opts.MinTaskInstances);
  // The fifth family has no schedule key (see makeScheduleWithCones): its
  // one schedule replays through exec::runOverlapped under every shuffle.
  // Bands of H+1 steps mirror the hexagonal time reach; the tile width is
  // the legalized W0.
  std::optional<core::OverlappedSchedule> Over;
  if (K == ScheduleKind::Overlapped)
    Over.emplace(P, std::max<int64_t>(T.H, 1) + 1,
                 legalizedHexParams(T, Cones[0].Delta0, Cones[0].Delta1).W0);
  for (int Shuffle = 0; Shuffle < std::max(Opts.NumShuffles, 1); ++Shuffle) {
    // Shuffle 0 replays blocks in natural order with stable thread order;
    // later shuffles permute the blocks and shuffle equal-key threads.
    uint64_t RunSeed =
        Shuffle == 0 ? 0 : mix64(Opts.Seed + static_cast<uint64_t>(Shuffle));
    exec::ScheduleRunOptions RunOpts;
    RunOpts.ShuffleSeed = RunSeed;
    RunOpts.BackendOverride = Backend.get();
    std::unique_ptr<exec::FieldStorage> Got;
    if (Over) {
      Got = exec::makeOverlappedStorage(P, *Over, RunOpts, Init);
      exec::runOverlapped(P, *Over, *Got, RunOpts);
    } else {
      OracleSchedule S = makeScheduleWithCones(P, K, T, Cones, RunSeed);
      if (!S.Key)
        return ""; // Kind legally inapplicable; counted as agreement.
      // Parallel backends always honor the schedule's parallel claim, so
      // the pool dispatches wavefronts concurrently even on the stable
      // shuffle-0 replay; the serial backend keeps the seed behavior
      // (shuffle 0 replays the fully sequential key order).
      bool Serial = Opts.Backend == exec::BackendKind::Serial;
      RunOpts.ParallelFrom = (Serial && RunSeed == 0) ? -1 : S.ParallelFrom;
      // makeStorage partitions the grid to match a DeviceSim override.
      Got = exec::makeStorage(P, RunOpts, Init);
      exec::runSchedule(P, *Got, Domain, S.Key, RunOpts);
    }
    std::string Diff = exec::compareStoragesAtStep(Ref, *Got, LastStep);
    if (!Diff.empty()) {
      std::ostringstream OS;
      OS << "[" << scheduleKindName(K) << "] program=" << P.name()
         << " backend=" << Backend->name();
      if (Opts.Backend == exec::BackendKind::DeviceSim)
        OS << " devices=" << Opts.NumDevices;
      OS << " tiling{" << T.str() << "} seed=0x" << std::hex << Opts.Seed
         << std::dec << " shuffle=" << Shuffle
         << " diverges from the row-major reference: " << Diff << "\n";
      return OS.str();
    }
  }
  if (Opts.RunEmitted)
    return runEmittedMechanism(P, K, T, Opts, Cones, Init);
  return "";
}

std::string harness::runDifferentialAllKinds(const ir::StencilProgram &P,
                                             const OracleTiling &T,
                                             const OracleOptions &Opts) {
  std::string All;
  for (ScheduleKind K : allScheduleKinds())
    All += runDifferential(P, K, T, Opts);
  return All;
}
