//===- ExecWorkloads.cpp - The replay workload ----------------------------===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
// Interpreted replay of jacobi2d and fdtd2d (three statements) through every
// schedule family -- runSchedule for the four keyed families, runOverlapped
// for the fifth -- in three settings:
//
//   serial  the Serial backend on flat storage, timed in CPU time after a
//           reference pass: the end-to-end metrics. The streaming wavefront
//           generator dominates the keyed families; JIT and service sit
//           idle.
//   pool    a ThreadPoolBackend of the parallel width on flat storage.
//   devsim  as many threaded simulated GTX 470s as the parallel width, over
//           a latency-dominated link (10 us, 16 GB/s): partitioned storage,
//           cross-device halo pushes at every wavefront barrier (once per
//           band for overlapped).
//
// The two parallel settings are timed in wall time and feed the per-layer
// metrics only.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "core/OverlappedSchedule.h"
#include "exec/Executor.h"
#include "exec/OverlappedReplay.h"
#include "exec/PartitionedGridStorage.h"
#include "gpu/DeviceTopology.h"
#include "gpu/PerfModel.h"
#include "harness/StencilOracle.h"

#include <algorithm>
#include <cmath>

using namespace hextile;
using namespace hextile::bench;

namespace {

using Clock = std::chrono::steady_clock;

struct ProgramSpec {
  const char *Name;
  int64_t Size;
  int64_t Steps;
};

/// The tiling every case uses: hexagon height 2, peak width 8, classical
/// width 16, diamond period 8, and 16-wide overlapped tiles two steps high.
const harness::OracleTiling Tiling = {2, 8, {16}, 8};
constexpr int64_t OverlappedTileWidth = 16;
constexpr int64_t OverlappedBandSteps = 2;

/// One program with its five schedules. Held by pointer: the overlapped
/// schedule keeps the program's address.
struct ExecProgram {
  ir::StencilProgram P;
  core::IterationDomain Domain;
  /// hex, hybrid, classical, diamond.
  std::vector<harness::OracleSchedule> Keyed;
  std::unique_ptr<core::OverlappedSchedule> Over;
  /// exec::runReference's final fields: what every replay must reproduce.
  std::unique_ptr<exec::GridStorage> Expected;

  double instances() const { return static_cast<double>(Domain.numPoints()); }
};

enum class Setting { Serial, Pool, DevSim };

struct ExecCase {
  ExecProgram *Prog = nullptr;
  size_t Family = 0; ///< Index into familyNames(); 4 is overlapped.
  Setting Where = Setting::Serial;
  exec::ReplayStats Last;        ///< Counters of the latest replay.
  std::vector<double> HaloWallS; ///< Halo copy wall time per replay.
};

class ReplayWorkload final : public Workload {
public:
  ReplayWorkload(const RunOptions &Opts, std::vector<ProgramSpec> Specs)
      : Opts(Opts), Specs(std::move(Specs)), Order(Opts.Seed ^ 0x0dde7),
        Init(harness::seededInit(Opts.Seed)) {}

  void setup() override {
    // A latency-dominated link: at these halo sizes the alpha term, i.e.
    // the exchange cadence, decides the simulated link cost.
    gpu::LinkSpec Link{/*LatencyUs=*/10.0, /*BandwidthGBps=*/16.0};
    Topo = gpu::DeviceTopology::uniform(gpu::DeviceConfig::gtx470(),
                                        ParallelWidth, Link);
    makeBackends();

    const std::vector<harness::ScheduleKind> Kinds = {
        harness::ScheduleKind::Hex, harness::ScheduleKind::Hybrid,
        harness::ScheduleKind::Classical, harness::ScheduleKind::Diamond};
    for (const ProgramSpec &Spec : Specs) {
      auto EP = std::make_unique<ExecProgram>();
      EP->P = parseGalleryProgram(Spec.Name, Spec.Size, Spec.Steps);
      EP->Domain = core::IterationDomain::forProgram(EP->P);
      for (harness::ScheduleKind K : Kinds) {
        BenchTrace::Span S("core.schedule_build");
        EP->Keyed.push_back(harness::makeOracleSchedule(EP->P, K, Tiling));
        if (!EP->Keyed.back().Key)
          throw std::runtime_error(
              std::string(Spec.Name) + " " + harness::scheduleKindName(K) +
              " schedule skipped: " + EP->Keyed.back().Skipped);
      }
      {
        BenchTrace::Span S("core.schedule_build");
        EP->Over = std::make_unique<core::OverlappedSchedule>(
            EP->P, OverlappedBandSteps, OverlappedTileWidth);
      }
      EP->Expected = std::make_unique<exec::GridStorage>(EP->P, Init);
      {
        BenchTrace::Span S("exec.reference");
        exec::runReference(EP->P, *EP->Expected);
      }
      Programs.push_back(std::move(EP));
    }
    for (const std::unique_ptr<ExecProgram> &EP : Programs)
      for (size_t F = 0; F < familyNames().size(); ++F)
        for (Setting Where : {Setting::Serial, Setting::Pool, Setting::DevSim})
          Cases.push_back(ExecCase{EP.get(), F, Where, {}, {}});
  }

  Measurements measure(double Seconds) override {
    Measurements M;
    for (const ExecCase &C : Cases)
      M.Cases.push_back(CaseSamples{label(C), familyNames()[C.Family],
                                    C.Where != Setting::Serial, {}});
    std::vector<size_t> Idx(Cases.size());
    for (size_t I = 0; I < Idx.size(); ++I)
      Idx[I] = I;
    for (ExecCase &C : Cases)
      C.HaloWallS.clear();
    Clock::time_point T0 = Clock::now();
    for (int Round = 0; Round < minRounds() || msSince(T0) < Seconds * 1e3;
         ++Round) {
      // Fresh worker threads every round: where the OS places a pool's
      // threads decides how much a busy neighbour slows them, so each
      // round draws a new placement.
      if (Round > 0)
        makeBackends();
      seededShuffle(Idx, Order);
      for (size_t I : Idx) {
        ExecCase &C = Cases[I];
        std::unique_ptr<exec::FieldStorage> Storage = makeStorage(C);
        exec::ReplayStats Stats;
        ++M.Attempted;
        bool Serial = C.Where == Setting::Serial;
        if (Serial)
          M.Reference.add(referencePassMs());
        Clock::time_point Start = Clock::now();
        double Cpu0 = threadCpuMs();
        {
          BenchTrace::Span S("exec.replay");
          replay(C, *Storage, &Stats);
        }
        double Ms = Serial ? threadCpuMs() - Cpu0 : msSince(Start);
        M.Cases[I].add(Ms);
        if (!Serial) {
          M.ParallelWallMs += Ms;
          M.Parallel.add(Ms);
        }
        C.Last = Stats;
        C.HaloWallS.push_back(Stats.HaloWallSeconds);
      }
    }
    return M;
  }

  size_t verify(std::vector<std::string> &Failures) override {
    for (ExecCase &C : Cases) {
      std::unique_ptr<exec::FieldStorage> Storage = makeStorage(C);
      replay(C, *Storage, nullptr);
      std::string Diff = exec::compareStoragesAtStep(
          *C.Prog->Expected, *Storage, C.Prog->P.timeSteps() - 1);
      if (!Diff.empty())
        Failures.push_back(label(C) + ": " + Diff);
    }
    return Cases.size();
  }

  void layerMetrics(const Measurements &M, MetricValues &Out) override {
    const std::vector<std::string> &Fams = familyNames();
    std::vector<double> SerialRates;
    for (size_t F = 0; F < Fams.size(); ++F) {
      std::vector<double> Rates;
      for (const std::unique_ptr<ExecProgram> &EP : Programs) {
        auto Rate = [&](Setting Where) {
          return EP->instances() /
                 (M.Cases[caseIndex(*EP, F, Where)].typicalMs() * 1e3);
        };
        Rates.push_back(Rate(Setting::Pool));
        SerialRates.push_back(Rate(Setting::Serial));
      }
      Out["exec.mpts_s." + Fams[F]] = geomean(Rates);
    }
    Out["exec.serial_mpts_s"] = geomean(SerialRates);

    // Probes: the generator alone, one key call, and pure execution.
    std::vector<double> RefRate;
    for (const std::unique_ptr<ExecProgram> &EP : Programs)
      RefRate.push_back(referenceMptsPerS(*EP));
    Out["exec.reference_mpts_s"] = geomean(RefRate);

    double RedundantSum = 0, InstanceSum = 0;
    size_t MaxConcurrent = 0;
    double MaxGapPct = 0;
    for (size_t F = 0; F < Fams.size(); ++F) {
      const std::string &Fam = Fams[F];
      std::vector<double> KeyNs, KeyEvalsPerInstance, DevSimSpeedup;
      double StreamS = 0, DispatchS = 0;
      double PoolTasks = 0, Wavefronts = 0, MaxWavefront = 0;
      double HaloExchanges = 0, HaloBytes = 0, HaloWall = 0, LinkS = 0,
             PredictedS = 0;
      for (size_t P = 0; P < Programs.size(); ++P) {
        ExecProgram &EP = *Programs[P];
        const ExecCase &Pool = Cases[caseIndex(EP, F, Setting::Pool)];
        const ExecCase &Dev = Cases[caseIndex(EP, F, Setting::DevSim)];
        auto TypicalMs = [&](Setting Where) {
          return M.Cases[caseIndex(EP, F, Where)].typicalMs();
        };
        double SerialMs = TypicalMs(Setting::Serial);
        double PoolMs = TypicalMs(Setting::Pool);
        double DevMs = TypicalMs(Setting::DevSim);
        const exec::ReplayStats &St = Pool.Last;
        double Stream = 0;
        if (F < NumKeyedFamilies) {
          KeyNs.push_back(keyEvalNs(EP, EP.Keyed[F]));
          Stream = streamSeconds(EP, EP.Keyed[F]);
          KeyEvalsPerInstance.push_back(
              static_cast<double>(St.KeyEvals) / EP.instances());
        } else {
          RedundantSum += St.RedundantInstances;
          InstanceSum += EP.instances();
        }
        StreamS += Stream;
        double Executed = EP.instances() + St.RedundantInstances;
        DispatchS += PoolMs / 1e3 - Stream - Executed / (RefRate[P] * 1e6);
        PoolTasks += St.PoolTasks;
        Wavefronts += St.Wavefronts;
        MaxWavefront = std::max<double>(MaxWavefront, St.MaxWavefrontInstances);

        const exec::ReplayStats &DevSt = Dev.Last;
        DevSimSpeedup.push_back(SerialMs / DevMs);
        HaloExchanges += DevSt.HaloExchanges;
        HaloBytes += DevSt.HaloBytesExchanged;
        HaloWall += median(Dev.HaloWallS);
        LinkS += DevSt.HaloSimulatedSeconds;
        MaxConcurrent = std::max(MaxConcurrent, DevSt.MaxConcurrentDevices);
        double Predicted = predictedLinkSeconds(Dev);
        PredictedS += Predicted;
        if (DevSt.HaloSimulatedSeconds > 0)
          MaxGapPct = std::max(MaxGapPct,
                               100.0 *
                                   std::abs(Predicted -
                                            DevSt.HaloSimulatedSeconds) /
                                   DevSt.HaloSimulatedSeconds);
      }
      if (F < NumKeyedFamilies) {
        Out["core.key_eval_ns." + Fam] = geomean(KeyNs);
        Out["exec.stream_s." + Fam] = StreamS;
        Out["exec.key_evals_per_instance." + Fam] =
            geomean(KeyEvalsPerInstance);
        Out["exec.wavefronts." + Fam] = Wavefronts;
        Out["exec.max_wavefront." + Fam] = MaxWavefront;
      }
      Out["exec.dispatch_s." + Fam] = DispatchS;
      Out["exec.pool_tasks." + Fam] = PoolTasks;
      Out["exec.halo_exchanges." + Fam] = HaloExchanges;
      Out["exec.halo_bytes." + Fam] = HaloBytes;
      Out["exec.halo_copy_wall_s." + Fam] = HaloWall;
      Out["exec.devsim_speedup." + Fam] = geomean(DevSimSpeedup);
      Out["gpu.halo_link_s." + Fam] = LinkS;
      Out["gpu.predicted_halo_link_s." + Fam] = PredictedS;
    }
    Out["exec.redundant_ratio"] =
        InstanceSum > 0 ? RedundantSum / InstanceSum : 0;
    Out["exec.max_concurrent_devices"] = static_cast<double>(MaxConcurrent);
    Out["gpu.prediction_gap_pct"] = MaxGapPct;
  }

private:
  int minRounds() const { return Opts.Smoke ? 1 : 3; }

  void makeBackends() {
    PoolBackend =
        exec::makeBackend(exec::BackendKind::ThreadPool, ParallelWidth);
    DevSimBackend = exec::makeBackend(exec::BackendKind::DeviceSim, 0,
                                      ParallelWidth, &Topo);
    SerialBackend = exec::makeBackend(exec::BackendKind::Serial);
  }

  std::string label(const ExecCase &C) const {
    const char *Where = C.Where == Setting::Serial ? "serial"
                        : C.Where == Setting::Pool ? "pool"
                                                   : "devsim";
    return C.Prog->P.name() + " " + familyNames()[C.Family] + " " + Where;
  }

  size_t caseIndex(const ExecProgram &EP, size_t F, Setting Where) const {
    for (size_t I = 0; I < Cases.size(); ++I)
      if (Cases[I].Prog == &EP && Cases[I].Family == F &&
          Cases[I].Where == Where)
        return I;
    throw std::logic_error("no such exec case");
  }

  exec::ScheduleRunOptions runOptions(const ExecCase &C) const {
    exec::ScheduleRunOptions RO;
    RO.BackendOverride = C.Where == Setting::Serial ? SerialBackend.get()
                         : C.Where == Setting::Pool ? PoolBackend.get()
                                                    : DevSimBackend.get();
    if (C.Family < NumKeyedFamilies)
      RO.ParallelFrom = C.Prog->Keyed[C.Family].ParallelFrom;
    return RO;
  }

  std::unique_ptr<exec::FieldStorage> makeStorage(const ExecCase &C) const {
    exec::ScheduleRunOptions RO = runOptions(C);
    if (C.Family < NumKeyedFamilies)
      return exec::makeStorage(C.Prog->P, RO, Init);
    return exec::makeOverlappedStorage(C.Prog->P, *C.Prog->Over, RO, Init);
  }

  void replay(const ExecCase &C, exec::FieldStorage &Storage,
              exec::ReplayStats *Stats) const {
    exec::ScheduleRunOptions RO = runOptions(C);
    RO.Stats = Stats;
    if (C.Family < NumKeyedFamilies)
      exec::runSchedule(C.Prog->P, Storage, C.Prog->Domain,
                        C.Prog->Keyed[C.Family].Key, RO);
    else
      exec::runOverlapped(C.Prog->P, *C.Prog->Over, Storage, RO);
  }

  /// Nanoseconds per schedule-key call, timed over the whole domain.
  double keyEvalNs(const ExecProgram &EP,
                   const harness::OracleSchedule &S) const {
    std::vector<int64_t> Key;
    size_t Calls = 0;
    double Cpu0 = threadCpuMs();
    {
      BenchTrace::Span Sp("core.key_eval");
      EP.Domain.forEachPoint([&](std::span<const int64_t> Pt) {
        Key.clear();
        S.Key(Pt, Key);
        ++Calls;
      });
    }
    return (threadCpuMs() - Cpu0) * 1e6 /
           static_cast<double>(std::max<size_t>(Calls, 1));
  }

  /// One streamWavefronts pass into a no-op sink: the generator alone.
  double streamSeconds(const ExecProgram &EP,
                       const harness::OracleSchedule &S) const {
    exec::WavefrontOptions WO;
    WO.ParallelFrom = S.ParallelFrom;
    double Cpu0 = threadCpuMs();
    {
      BenchTrace::Span Sp("exec.stream");
      exec::streamWavefronts(EP.Domain, S.Key, WO,
                             [](const exec::Wavefront &) {});
    }
    return (threadCpuMs() - Cpu0) / 1e3;
  }

  /// runReference throughput: pure instance execution.
  double referenceMptsPerS(const ExecProgram &EP) const {
    exec::GridStorage Storage(EP.P, Init);
    double Cpu0 = threadCpuMs();
    {
      BenchTrace::Span Sp("exec.reference");
      exec::runReference(EP.P, Storage);
    }
    return EP.instances() / ((threadCpuMs() - Cpu0) * 1e3);
  }

  /// gpu:: model price of the halo traffic the replay's cadence implies,
  /// over the cuts of the partition the DeviceSim case ran on.
  double predictedLinkSeconds(const ExecCase &C) const {
    BenchTrace::Span Sp("gpu.predict");
    std::unique_ptr<exec::FieldStorage> Storage = makeStorage(C);
    auto *Parts = dynamic_cast<exec::PartitionedGridStorage *>(Storage.get());
    if (!Parts)
      return 0;
    std::vector<int64_t> Cuts;
    for (unsigned D = 1; D < Parts->numDevices(); ++D)
      Cuts.push_back(Parts->owned(D).Lo);
    if (C.Family < NumKeyedFamilies)
      return gpu::predictHaloExchangeCost(
                 C.Prog->P, Topo, Cuts,
                 static_cast<int64_t>(C.Last.HaloExchanges))
          .Seconds;
    return gpu::predictBandedHaloExchangeCost(C.Prog->P, Topo, Cuts,
                                              OverlappedBandSteps)
        .Seconds;
  }

  RunOptions Opts;
  std::vector<ProgramSpec> Specs;
  SeededRng Order;
  exec::Initializer Init;
  gpu::DeviceTopology Topo;
  std::unique_ptr<exec::ExecutionBackend> SerialBackend, PoolBackend,
      DevSimBackend;
  std::vector<std::unique_ptr<ExecProgram>> Programs;
  std::vector<ExecCase> Cases;
};

} // namespace

std::unique_ptr<Workload> bench::makeReplayWorkload(const RunOptions &Opts) {
  if (Opts.Smoke)
    return std::make_unique<ReplayWorkload>(
        Opts, std::vector<ProgramSpec>{{"jacobi2d", 16, 4}, {"fdtd2d", 12, 3}});
  return std::make_unique<ReplayWorkload>(
      Opts, std::vector<ProgramSpec>{{"jacobi2d", 32, 10}, {"fdtd2d", 24, 6}});
}
