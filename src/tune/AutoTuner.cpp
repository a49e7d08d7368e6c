//===- AutoTuner.cpp - Measurement-driven tile-size search ----------------===//

#include "tune/AutoTuner.h"

#include "core/IterationDomain.h"
#include "deps/DeltaBounds.h"
#include "exec/GridStorage.h"

#include <algorithm>
#include <chrono>

using namespace hextile;
using namespace hextile::tune;

using Clock = std::chrono::steady_clock;

namespace {

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

/// One scored geometry surviving admissibility.
struct ScoredGeometry {
  core::TileGeometry Geometry;
  double LoadToCompute = 0;
};

/// Model ordering: ratio first, smaller geometry on exact ties (the same
/// deterministic order core::betterChoice applies).
bool modelBetter(const ScoredGeometry &A, const ScoredGeometry &B) {
  if (A.LoadToCompute != B.LoadToCompute)
    return A.LoadToCompute < B.LoadToCompute;
  return A.Geometry < B.Geometry;
}

service::CompileRequest makeRequest(const ir::StencilProgram &P,
                                    const TunedCandidate &C) {
  service::CompileRequest R;
  R.Program = P;
  R.Tiling.H = C.Geometry.H;
  R.Tiling.W0 = C.Geometry.W0;
  R.Tiling.InnerWidths = C.Geometry.InnerWidths;
  R.Config = codegen::OptimizationConfig::level(C.Rung);
  R.Config.ShimThreads = C.ShimThreads;
  R.Flavor = C.Flavor;
  R.Target = service::TargetKind::Host;
  return R;
}

/// Measures one JIT'd entry point: GridStorage-layout rotating buffers,
/// refilled before every execution so repeated runs see identical inputs,
/// Warmups untimed runs, then Samples timed runs reduced to a trimmed
/// mean (min and max dropped when Samples >= 3). Returns GStencils/s over
/// the program's statement instances.
double measureGStencils(service::KernelEntryFn Entry,
                        const ir::StencilProgram &P, int Warmups,
                        int Samples) {
  exec::GridStorage Buffers(P, {});
  std::vector<float *> Ptrs;
  for (unsigned F = 0; F < Buffers.numFields(); ++F)
    Ptrs.push_back(Buffers.field(F).data());
  int64_t Instances = core::IterationDomain::forProgram(P).numPoints();

  auto RunOnce = [&] {
    for (unsigned F = 0; F < Buffers.numFields(); ++F)
      std::ranges::fill(Buffers.field(F), 0.25f);
    Clock::time_point T0 = Clock::now();
    Entry(Ptrs.data());
    return msSince(T0);
  };

  for (int I = 0; I < Warmups; ++I)
    RunOnce();
  std::vector<double> SampleMs;
  for (int I = 0; I < std::max(1, Samples); ++I)
    SampleMs.push_back(RunOnce());
  std::sort(SampleMs.begin(), SampleMs.end());
  size_t Lo = 0, Hi = SampleMs.size();
  if (SampleMs.size() >= 3) {
    ++Lo;
    --Hi;
  }
  double Sum = 0;
  for (size_t I = Lo; I < Hi; ++I)
    Sum += SampleMs[I];
  double MeanMs = Sum / (Hi - Lo);
  if (MeanMs <= 0)
    return 0;
  return static_cast<double>(Instances) / (MeanMs / 1000.0) / 1e9;
}

} // namespace

std::string TunedCandidate::str() const {
  std::string S = Geometry.str();
  S += " rung=";
  S += Rung;
  S += " flavor=";
  S += codegen::emitScheduleName(Flavor);
  if (ShimThreads > 0)
    S += " shim=" + std::to_string(ShimThreads);
  return S;
}

double TuneResult::gapPct() const {
  if (WinnerIndex < 0 || AnalyticIndex < 0)
    return 0;
  double Analytic = Candidates[AnalyticIndex].GStencilsPerSec;
  double Best = Candidates[WinnerIndex].GStencilsPerSec;
  if (Analytic <= 0)
    return 0;
  return (Best / Analytic - 1.0) * 100.0;
}

std::optional<TunedEntry> TuneResult::entry() const {
  if (!ok())
    return std::nullopt;
  const TunedCandidate &W = Candidates[WinnerIndex];
  TunedEntry E;
  E.Program = Program;
  E.H = W.Geometry.H;
  E.W0 = W.Geometry.W0;
  E.InnerWidths = W.Geometry.InnerWidths;
  E.Rung = W.Rung;
  E.Flavor = codegen::emitScheduleName(W.Flavor);
  E.ShimThreads = W.ShimThreads;
  E.MeasuredGStencils = W.GStencilsPerSec;
  E.AnalyticGStencils = Candidates[AnalyticIndex].GStencilsPerSec;
  E.ModelLoadToCompute = W.ModelLoadToCompute;
  E.GapPct = gapPct();
  return E;
}

AutoTuner::AutoTuner(service::CompileService &Service,
                     AutoTunerOptions Options)
    : Svc(Service), Opts(std::move(Options)) {}

TuneResult AutoTuner::tune(const ir::StencilProgram &P) {
  Clock::time_point T0 = Clock::now();
  TuneResult Result;
  Result.Program = P.name();
  service::ServiceCounters Before = Svc.counters();

  if (Opts.Rungs.empty() || Opts.Flavors.empty() ||
      Opts.ShimThreads.empty()) {
    Result.Error = "empty tuning axis (rungs/flavors/shim threads)";
    return Result;
  }

  // Stage 1: the model's half -- enumerate, filter, score (memoized per
  // geometry; the ratio does not depend on rung/flavor/shim).
  deps::DependenceInfo Deps = deps::analyzeDependences(P);
  std::vector<deps::ConeBounds> Cones = deps::computeAllConeBounds(Deps);
  core::SlabCostCache Cache;
  std::vector<ScoredGeometry> Scored;
  for (const core::TileGeometry &G :
       core::enumerateTileGeometries(P.spaceRank(), Opts.Space)) {
    ++Result.EnumeratedGeometries;
    std::optional<core::HybridSchedule> Sched =
        core::admissibleCandidate(P, Cones, G, Opts.Space);
    if (!Sched)
      continue;
    const core::SlabCosts &Costs = Cache.costs(P, Deps, *Sched, G);
    if (Costs.SharedBytes > Opts.Space.SharedMemBytes)
      continue;
    ++Result.AdmissibleGeometries;
    Scored.push_back({G, Costs.loadToCompute()});
  }
  if (Scored.empty()) {
    Result.Error = "no admissible tile geometry in the search space";
    return Result;
  }
  std::sort(Scored.begin(), Scored.end(), modelBetter);

  // Stage 2: prune with the model. The best-ranked geometry (the Sec. 3.7
  // analytic pick) always survives.
  double BestRatio = Scored.front().LoadToCompute;
  std::vector<ScoredGeometry> Kept;
  for (const ScoredGeometry &S : Scored) {
    bool Cut = S.LoadToCompute > BestRatio * Opts.ModelPruneRatio ||
               (Opts.MaxGeometries && Kept.size() >= Opts.MaxGeometries);
    if (Cut && !Kept.empty()) {
      ++Result.PrunedGeometries;
      continue;
    }
    Kept.push_back(S);
  }

  // Stage 3: the candidate cross product, the analytic pick first. The
  // analytic candidate is the model's geometry at the *default*
  // configuration: rung 'd' when swept (the paper's everything-on rung
  // before the reuse stretch), the hybrid flavor when swept, the first
  // shim size.
  char DefaultRung = std::find(Opts.Rungs.begin(), Opts.Rungs.end(), 'd') !=
                             Opts.Rungs.end()
                         ? 'd'
                         : Opts.Rungs.front();
  codegen::EmitSchedule DefaultFlavor =
      std::find(Opts.Flavors.begin(), Opts.Flavors.end(),
                codegen::EmitSchedule::Hybrid) != Opts.Flavors.end()
          ? codegen::EmitSchedule::Hybrid
          : Opts.Flavors.front();
  int DefaultShim = Opts.ShimThreads.front();

  for (const ScoredGeometry &S : Kept)
    for (char Rung : Opts.Rungs)
      for (codegen::EmitSchedule Flavor : Opts.Flavors)
        for (int Shim : Opts.ShimThreads) {
          TunedCandidate C;
          C.Geometry = S.Geometry;
          C.Rung = Rung;
          C.Flavor = Flavor;
          C.ShimThreads = Shim;
          C.ModelLoadToCompute = S.LoadToCompute;
          C.IsAnalyticPick = S.Geometry == Kept.front().Geometry &&
                             Rung == DefaultRung &&
                             Flavor == DefaultFlavor && Shim == DefaultShim;
          Result.Candidates.push_back(std::move(C));
        }
  auto AnalyticIt =
      std::find_if(Result.Candidates.begin(), Result.Candidates.end(),
                   [](const TunedCandidate &C) { return C.IsAnalyticPick; });
  std::rotate(Result.Candidates.begin(), AnalyticIt, AnalyticIt + 1);
  Result.AnalyticIndex = 0;

  // Stage 4: the compile fleet -- one batch admission, so every miss in
  // the sweep drains through a single ThreadPool round while repeat tunes
  // are pure cache hits.
  std::vector<service::CompileRequest> Requests;
  Requests.reserve(Result.Candidates.size());
  for (const TunedCandidate &C : Result.Candidates)
    Requests.push_back(makeRequest(P, C));
  std::vector<std::future<service::CompileResult>> Futures =
      Svc.compileBatch(Requests);

  // Stage 5: measurement, strictly serialized on this thread. The
  // analytic pick (index 0) is measured before the budget is consulted,
  // so a partial result still tells the model-vs-measured story.
  for (size_t I = 0; I < Result.Candidates.size(); ++I) {
    TunedCandidate &C = Result.Candidates[I];
    service::CompileResult Res = Futures[I].get();
    C.How = Res.Stats.How;
    C.CompileMs = Res.Stats.CompileMs;
    if (!Res.ok()) {
      C.Error = Res.Error;
      continue;
    }
    if (I > 0 && Opts.TimeBudgetMs > 0 &&
        msSince(T0) > Opts.TimeBudgetMs) {
      C.SkippedByBudget = true;
      Result.BudgetExhausted = true;
      continue;
    }
    C.GStencilsPerSec = measureGStencils(Res.Artifact->entry(), P,
                                         Opts.Warmups, Opts.Samples);
    C.Measured = true;
  }

  // Stage 6: the empirical winner (ties break toward the earlier
  // candidate, i.e. the model-preferred one).
  for (size_t I = 0; I < Result.Candidates.size(); ++I) {
    const TunedCandidate &C = Result.Candidates[I];
    if (!C.Measured)
      continue;
    if (Result.WinnerIndex < 0 ||
        C.GStencilsPerSec >
            Result.Candidates[Result.WinnerIndex].GStencilsPerSec)
      Result.WinnerIndex = static_cast<int>(I);
  }
  if (Result.WinnerIndex < 0)
    Result.Error = Result.Candidates[0].Error.empty()
                       ? "no candidate could be measured"
                       : Result.Candidates[0].Error;

  Result.NewCompiles = Svc.counters().Compiles - Before.Compiles;
  Result.ElapsedMs = msSince(T0);
  return Result;
}
