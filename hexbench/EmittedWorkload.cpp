//===- EmittedWorkload.cpp - The emitted workload -------------------------===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
// JIT-built host kernels: every (program, flavor) is compiled twice through
// CompileService::compileBatch during setup -- once for the serial shim,
// once for one shim team of the parallel width -- and the timed operation
// is one call of the unit's entry point. The buffers are re-initialized,
// untimed, before every call so each repetition computes on identical
// values (and takes identical denormal paths). Only the shim's launch and
// barrier cost and the generated block code are timed: no key evaluation,
// no service lookup.
//
// The family metrics come from the serial shim's calls, timed in CPU time
// after a reference pass.
// The team's calls are timed in wall time and are per-layer (shim.run_ms,
// shim.parallel_over_serial, shim.per_launch_us).
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "codegen/EmissionCore.h"
#include "codegen/HostEmitter.h"
#include "harness/HostKernelRunner.h"
#include "harness/StencilOracle.h"
#include "service/CompileService.h"
#include "service/JitUnit.h"

#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>

using namespace hextile;
using namespace hextile::bench;

namespace {

using Clock = std::chrono::steady_clock;

struct EmitSpec {
  const char *Name;
  int64_t Size;
  int64_t Steps;
  int64_t H;
  int64_t W0;
  std::vector<int64_t> Inner;
};

/// A page-aligned float buffer. With every field buffer starting on a page
/// boundary, the buffers' relative placement (and so cache-set and
/// 4K-aliasing behaviour) is the same in every run, which malloc's
/// placement is not.
class PageBuffer {
public:
  explicit PageBuffer(size_t Floats)
      : Data(static_cast<float *>(std::aligned_alloc(
            Page, (Floats * sizeof(float) + Page - 1) / Page * Page))),
        Size(Floats) {
    if (!Data)
      throw std::bad_alloc();
  }
  float *data() const { return Data.get(); }
  size_t size() const { return Size; }

private:
  static constexpr size_t Page = 4096;
  struct Free {
    void operator()(float *P) const { std::free(P); }
  };
  std::unique_ptr<float, Free> Data;
  size_t Size;
};

struct EmitProgram {
  ir::StencilProgram P;
  codegen::TileSizeRequest Tiling;
  /// Initial field values in GridStorage layout, and the buffers a call
  /// runs on (refilled from Initial before every call).
  std::vector<std::vector<float>> Initial;
  std::vector<PageBuffer> Work;
  std::vector<float *> Ptrs;
};

struct EmitUnit {
  size_t Prog = 0;
  codegen::EmitSchedule Flavor = codegen::EmitSchedule::Hybrid;
  bool Parallel = false;
  std::shared_ptr<const service::CompiledArtifact> Artifact;
};

const codegen::EmitSchedule Flavors[] = {
    codegen::EmitSchedule::Hex, codegen::EmitSchedule::Hybrid,
    codegen::EmitSchedule::Classical, codegen::EmitSchedule::Overlapped};

/// \p HostSource (an emitHost unit) with every kernel launch of its host
/// driver counted: the launch sites after the shim include go through a
/// wrapper that counts the launches with at least one block (the parallel
/// shim returns from an empty one without waking its team), which
/// ht_bench_launches() returns. Counting the launches a real call makes
/// keeps the number honest when the emitter's driver loop changes.
std::string withLaunchCounter(const std::string &HostSource) {
  const std::string Include = "#include \"cuda_shim.h\"\n";
  const std::string Launch = "HT_LAUNCH_1D(";
  size_t At = HostSource.find(Include);
  if (At == std::string::npos)
    throw std::runtime_error("emitted unit has no cuda_shim.h include");
  At += Include.size();
  std::string Body = HostSource.substr(At);
  size_t Sites = 0;
  for (size_t P = Body.find(Launch); P != std::string::npos;
       P = Body.find(Launch, P + 1), ++Sites)
    Body.replace(P, Launch.size(), "HT_BENCH_LAUNCH(");
  if (Sites == 0)
    throw std::runtime_error("emitted unit launches no kernel");
  return HostSource.substr(0, At) +
         "static long long ht_bench_launch_count = 0;\n"
         "#define HT_BENCH_LAUNCH(kernel, nblocks, ...) \\\n"
         "  do { \\\n"
         "    if ((nblocks) > 0) \\\n"
         "      ++ht_bench_launch_count; \\\n"
         "    HT_LAUNCH_1D(kernel, nblocks, __VA_ARGS__); \\\n"
         "  } while (0)\n"
         "extern \"C\" long long ht_bench_launches(void) {\n"
         "  return ht_bench_launch_count;\n"
         "}\n" +
         Body;
}

class EmittedWorkload final : public Workload {
public:
  EmittedWorkload(const RunOptions &Opts)
      : Opts(Opts), Order(Opts.Seed ^ 0xe1177ed),
        Init(harness::seededInit(Opts.Seed)) {}

  void setup() override {
    std::vector<EmitSpec> Specs = {
        {"jacobi2d", 96, 24, 2, 3, {8}},
        {"fdtd2d", 64, 12, 2, 3, {6}},
        {"heat3d", 24, 6, 2, 2, {4, 6}},
    };
    if (Opts.Smoke)
      Specs = {{"jacobi2d", 24, 6, 2, 3, {8}}};
    if (!service::JitUnit::available())
      throw std::runtime_error("no system C++ compiler for the JIT");
    // One team: by default the shim runs hardware_concurrency() / team-size
    // teams for units that may run blocks concurrently, which would make the
    // parallel setting depend on the machine.
    setenv("HT_SHIM_TEAMS", "1", 1);

    std::vector<service::CompileRequest> Requests;
    for (const EmitSpec &S : Specs) {
      EmitProgram EP;
      EP.P = parseGalleryProgram(S.Name, S.Size, S.Steps);
      EP.Tiling.H = S.H;
      EP.Tiling.W0 = S.W0;
      EP.Tiling.InnerWidths = S.Inner;
      fillInitial(EP);
      Programs.push_back(std::move(EP));
      for (bool Parallel : {false, true})
        for (codegen::EmitSchedule F : Flavors) {
          service::CompileRequest R;
          R.Program = Programs.back().P;
          R.Tiling = Programs.back().Tiling;
          R.Config = config(Parallel);
          R.Flavor = F;
          Requests.push_back(std::move(R));
          Units.push_back(EmitUnit{Programs.size() - 1, F, Parallel, nullptr});
        }
    }

    // Setup compiles on every core; only the timed calls use the
    // parallel setting.
    Service = std::make_unique<service::CompileService>();
    std::vector<std::future<service::CompileResult>> Futures;
    {
      BenchTrace::Span S("service.compile_batch");
      Futures = Service->compileBatch(Requests);
      for (size_t I = 0; I < Futures.size(); ++I) {
        service::CompileResult R = Futures[I].get();
        if (!R.ok())
          throw std::runtime_error(label(Units[I]) + ": " + R.Error);
        Units[I].Artifact = R.Artifact;
        JitBuildMs.push_back(R.Stats.CompileMs);
      }
    }
  }

  Measurements measure(double Seconds) override {
    Measurements M;
    for (const EmitUnit &U : Units)
      M.Cases.push_back(CaseSamples{label(U),
                                    codegen::emitScheduleName(U.Flavor),
                                    U.Parallel, {}});
    std::vector<size_t> Idx(Units.size());
    for (size_t I = 0; I < Idx.size(); ++I)
      Idx[I] = I;
    Clock::time_point T0 = Clock::now();
    for (int Round = 0; Round < minRounds() || msSince(T0) < Seconds * 1e3;
         ++Round) {
      seededShuffle(Idx, Order);
      for (size_t I : Idx) {
        EmitProgram &EP = Programs[Units[I].Prog];
        refill(EP);
        ++M.Attempted;
        if (!Units[I].Parallel)
          M.Reference.add(referencePassMs());
        Clock::time_point Start = Clock::now();
        double Cpu0 = threadCpuMs();
        {
          BenchTrace::Span S("shim.run");
          Units[I].Artifact->entry()(EP.Ptrs.data());
        }
        double Ms = Units[I].Parallel ? msSince(Start) : threadCpuMs() - Cpu0;
        M.Cases[I].add(Ms);
        if (Units[I].Parallel) {
          M.ParallelWallMs += Ms;
          M.Parallel.add(Ms);
        }
      }
    }
    return M;
  }

  size_t verify(std::vector<std::string> &Failures) override {
    for (const EmitUnit &U : Units) {
      std::string Diff = harness::runEntryDifferential(
          Programs[U.Prog].P, U.Artifact->entry(), Init, label(U));
      if (!Diff.empty())
        Failures.push_back(Diff);
    }
    return Units.size();
  }

  void layerMetrics(const Measurements &M, MetricValues &Out) override {
    // Probe: the codegen calls the service makes per unit, timed from
    // outside, and the launches one entry call of each serial unit makes,
    // counted by a JIT-built copy of it. A unit on the parallel shim has
    // the same host driver as its serial twin.
    std::vector<int64_t> Launches(Units.size());
    double HostBytes = 0;
    for (size_t I = 0; I < Units.size(); ++I) {
      const EmitUnit &U = Units[I];
      const EmitProgram &EP = Programs[U.Prog];
      std::optional<codegen::CompiledHybrid> C;
      {
        BenchTrace::Span S("codegen.compile_hybrid");
        C.emplace(
            codegen::compileHybrid(EP.P, EP.Tiling, config(U.Parallel)));
      }
      std::string Source;
      {
        BenchTrace::Span S("codegen.emit_host");
        Source = codegen::emitHost(*C, U.Flavor);
      }
      HostBytes += Source.size();
      if (!U.Parallel)
        Launches[I] = countLaunches(U, withLaunchCounter(Source));
    }
    for (size_t I = 0; I < Units.size(); ++I)
      if (Units[I].Parallel)
        Launches[I] = Launches[serialTwin(I)];
    Out["codegen.host_bytes"] = HostBytes / Units.size();
    Out["service.jit_build_ms"] = median(JitBuildMs);
    Out["service.compiles"] =
        static_cast<double>(Service->counters().Compiles);

    std::vector<double> ParallelMs;
    for (codegen::EmitSchedule F : Flavors) {
      std::string Fam = codegen::emitScheduleName(F);
      std::vector<double> Ratio, PerLaunchUs;
      double LaunchSum = 0;
      size_t LaunchCount = 0;
      for (size_t I = 0; I < Units.size(); ++I) {
        const EmitUnit &U = Units[I];
        if (U.Flavor != F || !U.Parallel)
          continue;
        size_t Serial = serialTwin(I);
        double ParMs = M.Cases[I].typicalMs();
        ParallelMs.push_back(ParMs);
        Ratio.push_back(M.Cases[Serial].typicalMs() / ParMs);
        PerLaunchUs.push_back(ParMs * 1e3 /
                              std::max<int64_t>(Launches[I], 1));
        LaunchSum += static_cast<double>(Launches[I]);
        ++LaunchCount;
      }
      Out["codegen.launches." + Fam] =
          LaunchSum / static_cast<double>(std::max<size_t>(LaunchCount, 1));
      Out["shim.parallel_over_serial." + Fam] = geomean(Ratio);
      Out["shim.per_launch_us." + Fam] = geomean(PerLaunchUs);
    }
    Out["shim.run_ms"] = geomean(ParallelMs);
  }

private:
  int minRounds() const { return Opts.Smoke ? 1 : 5; }

  /// Ladder rung d (staged, interleaved copy-out, aligned loads): the
  /// default configuration minus inter-tile reuse, and a single-team unit
  /// on the parallel shim.
  static codegen::OptimizationConfig config(bool Parallel) {
    codegen::OptimizationConfig C = codegen::OptimizationConfig::level('d');
    C.ShimThreads = Parallel ? ParallelWidth : 0;
    return C;
  }

  std::string label(const EmitUnit &U) const {
    return Programs[U.Prog].P.name() + " " +
           codegen::emitScheduleName(U.Flavor) +
           (U.Parallel ? " shim" + std::to_string(ParallelWidth) : " serial");
  }

  /// Builds \p CountedSource (withLaunchCounter) and returns the launches
  /// one call of its entry point makes on \p U's program.
  int64_t countLaunches(const EmitUnit &U, const std::string &CountedSource) {
    EmitProgram &EP = Programs[U.Prog];
    service::JitUnit Unit;
    std::string Error = Unit.build(CountedSource);
    if (!Error.empty())
      throw std::runtime_error(label(U) + " launch counter: " + Error);
    auto Entry = reinterpret_cast<void (*)(float **)>(
        Unit.symbol(codegen::hostEntryName(EP.P)));
    auto Count =
        reinterpret_cast<long long (*)()>(Unit.symbol("ht_bench_launches"));
    if (!Entry || !Count)
      throw std::runtime_error(label(U) + " launch counter: missing symbol");
    refill(EP);
    Entry(EP.Ptrs.data());
    return Count();
  }

  /// Restores \p EP's call buffers to the initial field values.
  static void refill(EmitProgram &EP) {
    for (size_t F = 0; F < EP.Work.size(); ++F)
      std::memcpy(EP.Work[F].data(), EP.Initial[F].data(),
                  EP.Work[F].size() * sizeof(float));
  }

  size_t serialTwin(size_t I) const {
    for (size_t J = 0; J < Units.size(); ++J)
      if (Units[J].Prog == Units[I].Prog &&
          Units[J].Flavor == Units[I].Flavor && !Units[J].Parallel)
        return J;
    throw std::logic_error("no serial twin");
  }

  /// GridStorage layout: per field, every rotating copy holds the same
  /// initial values, row-major.
  void fillInitial(EmitProgram &EP) const {
    const std::vector<int64_t> &Sizes = EP.P.spaceSizes();
    int64_t PerCopy = 1;
    for (int64_t S : Sizes)
      PerCopy *= S;
    std::vector<int64_t> Coords(Sizes.size());
    for (unsigned F = 0; F < EP.P.fields().size(); ++F) {
      int64_t Depth = EP.P.bufferDepth(F);
      std::vector<float> Buf(static_cast<size_t>(Depth * PerCopy));
      for (int64_t L = 0; L < PerCopy; ++L) {
        int64_t Rest = L;
        for (size_t D = Sizes.size(); D-- > 0;) {
          Coords[D] = Rest % Sizes[D];
          Rest /= Sizes[D];
        }
        float V = Init(F, Coords);
        for (int64_t C = 0; C < Depth; ++C)
          Buf[static_cast<size_t>(C * PerCopy + L)] = V;
      }
      EP.Work.emplace_back(Buf.size());
      EP.Initial.push_back(std::move(Buf));
    }
    for (const PageBuffer &W : EP.Work)
      EP.Ptrs.push_back(W.data());
  }

  RunOptions Opts;
  SeededRng Order;
  exec::Initializer Init;
  std::vector<EmitProgram> Programs;
  std::vector<EmitUnit> Units;
  std::vector<double> JitBuildMs;
  std::unique_ptr<service::CompileService> Service;
};

} // namespace

std::unique_ptr<Workload> bench::makeEmittedWorkload(const RunOptions &Opts) {
  return std::make_unique<EmittedWorkload>(Opts);
}
