//===- bench_devicesim_scaling.cpp - Threaded DeviceSim scaling ---------------===//
//
// Scaling sweep for the threaded multi-device simulation: replays gallery
// stencils through the DeviceSim backend over 1 -> 16 simulated devices,
// reporting wall time, instances/second, the speedup against the
// single-device replay, the observed compute concurrency
// (MaxConcurrentDevices / DistinctComputeThreads) and the halo-exchange
// cost split (simulated link cost vs. measured copy wall time).
//
// The harness is also the prediction cross-check the link cost model is
// pinned by: for every multi-device row it feeds the *measured* exchange
// cadence into gpu::predictHaloExchangeCost and requires the predicted
// cost to land within TOLERANCE_PERCENT of the replay's measured-traffic
// link cost (exact for classical byte counts; hex/hybrid byte counts are
// themselves pinned within 10% of the analytic model by DeviceSimTest).
// A row outside tolerance is re-measured once (transient stalls skew the
// measured cadence) and fails the run if it misses again -- the smoke
// entry in `ctest -L bench` therefore keeps the model honest on every
// commit.
//
// A second sweep prices the *banded* exchange cadence of the overlapped
// family (exec::runOverlapped over DeviceSim): band depths 1/2/4 on a
// latency-dominated link, reporting exchange rounds saved, redundant
// instances paid, and the measured-vs-predicted banded cost -- the
// redundancy-vs-traffic frontier, with the alpha-term saving *measured*
// (a banded row that fails to undercut the per-step cadence fails the
// run).
//
//   bench_devicesim_scaling [--smoke] [--size N] [--steps N]
//                           [--max-devices N] [--repeats N] [--json <path>]
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "core/OverlappedSchedule.h"
#include "exec/DeviceSimBackend.h"
#include "exec/Executor.h"
#include "exec/OverlappedReplay.h"
#include "exec/PartitionedGridStorage.h"
#include "gpu/DeviceTopology.h"
#include "gpu/PerfModel.h"
#include "harness/StencilOracle.h"
#include "ir/StencilGallery.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace hextile;

namespace {

/// Tolerance of the predicted-vs-measured exchange-cost check.
constexpr double TOLERANCE_PERCENT = 10.0;

int64_t flagValue(int argc, char **argv, const char *Name, int64_t Default) {
  for (int I = 1; I + 1 < argc; ++I)
    if (std::strcmp(argv[I], Name) == 0)
      return std::strtoll(argv[I + 1], nullptr, 0);
  return Default;
}

double seconds(std::chrono::steady_clock::time_point From,
               std::chrono::steady_clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = bench::smokeMode(argc, argv);
  const char *JsonPath = bench::jsonPathArg(argc, argv);
  int64_t Size = flagValue(argc, argv, "--size", Smoke ? 48 : 384);
  int64_t Steps = flagValue(argc, argv, "--steps", Smoke ? 8 : 48);
  int64_t MaxDevices = flagValue(argc, argv, "--max-devices", 16);
  int64_t Repeats = flagValue(argc, argv, "--repeats", Smoke ? 1 : 3);
  if (MaxDevices < 1 || Repeats < 1) {
    std::fprintf(stderr, "error: --max-devices and --repeats must be >= 1\n");
    return 2;
  }

  std::vector<ir::StencilProgram> Programs;
  Programs.push_back(ir::makeJacobi2D(Size, Steps));
  if (!Smoke)
    Programs.push_back(ir::makeHeat2D(Size, Steps));

  std::vector<harness::ScheduleKind> Kinds = {harness::ScheduleKind::Hex,
                                              harness::ScheduleKind::Classical};

  bench::JsonReport Report("bench_devicesim_scaling");
  Report.config()
      .num("size", Size)
      .num("steps", Steps)
      .num("max_devices", MaxDevices)
      .num("repeats", Repeats)
      .num("tolerance_percent", TOLERANCE_PERCENT)
      .num("smoke", int64_t(Smoke));

  std::printf("Threaded DeviceSim scaling: %lldx%lld, %lld steps, devices "
              "1..%lld, best of %lld\n\n",
              static_cast<long long>(Size), static_cast<long long>(Size),
              static_cast<long long>(Steps),
              static_cast<long long>(MaxDevices),
              static_cast<long long>(Repeats));
  std::printf("%-10s %-10s %4s %8s %9s %8s %6s %8s %12s %12s %9s\n",
              "program", "schedule", "dev", "seconds", "Minst/s", "speedup",
              "conc", "threads", "halo-bytes", "link-cost", "gap%");

  harness::OracleTiling T;
  T.H = 2;
  T.W0 = Smoke ? 4 : 8;
  T.InnerWidths = {Smoke ? 6 : 16};

  int BadRows = 0;
  for (const ir::StencilProgram &P : Programs) {
    core::IterationDomain Domain = core::IterationDomain::forProgram(P);
    for (harness::ScheduleKind K : Kinds) {
      harness::OracleSchedule S = harness::makeOracleSchedule(P, K, T);
      if (!S.Key) {
        std::printf("%-10s %-10s skipped: %s\n", P.name().c_str(),
                    harness::scheduleKindName(K), S.Skipped.c_str());
        continue;
      }
      double OneDeviceSecs = 0;
      for (int64_t Devices = 1; Devices <= MaxDevices; Devices *= 2) {
        gpu::DeviceTopology Topo = gpu::DeviceTopology::uniform(
            gpu::DeviceConfig::gtx470(), static_cast<unsigned>(Devices));

        // One backend per row, built outside the timed region.
        exec::DeviceSimBackend Backend(Topo);
        // Smoke grids produce wavefronts below the production batching
        // floor; lower it so the threaded path is exercised end to end.
        if (Smoke)
          Backend.setMinTaskInstances(1);
        exec::ScheduleRunOptions Opts;
        Opts.BackendOverride = &Backend;
        Opts.ParallelFrom = S.ParallelFrom;
        exec::ReplayStats Stats;

        double Best = 0;
        double GapPercent = 0;
        gpu::HaloExchangeCost Predicted;
        auto MeasureRow = [&]() {
          Best = 0;
          for (int64_t R = 0; R < Repeats; ++R) {
            exec::ReplayStats RunStats;
            Opts.Stats = &RunStats;
            std::unique_ptr<exec::FieldStorage> Storage =
                exec::makeStorage(P, Opts);
            auto T0 = std::chrono::steady_clock::now();
            exec::runSchedule(P, *Storage, Domain, S.Key, Opts);
            auto T1 = std::chrono::steady_clock::now();
            double Secs = seconds(T0, T1);
            if (R == 0 || Secs < Best) {
              Best = Secs;
              Stats = RunStats;
            }
          }

          // The prediction cross-check: cost the measured exchange cadence
          // through the analytic model and compare against the link cost
          // the replay computed from measured traffic.
          GapPercent = 0;
          Predicted = gpu::HaloExchangeCost();
          if (Stats.Devices > 1 && Stats.HaloExchanges > 0) {
            std::unique_ptr<exec::FieldStorage> Probe =
                exec::makeStorage(P, Opts);
            auto *Parts =
                dynamic_cast<exec::PartitionedGridStorage *>(Probe.get());
            std::vector<int64_t> Cuts;
            if (Parts)
              for (unsigned D = 1; D < Parts->numDevices(); ++D)
                Cuts.push_back(Parts->owned(D).Lo);
            Predicted = gpu::predictHaloExchangeCost(
                P, Topo, Cuts, static_cast<int64_t>(Stats.HaloExchanges));
            if (Stats.HaloSimulatedSeconds > 0)
              GapPercent = 100.0 *
                           std::abs(Predicted.Seconds -
                                    Stats.HaloSimulatedSeconds) /
                           Stats.HaloSimulatedSeconds;
          }
        };
        MeasureRow();
        if (GapPercent > TOLERANCE_PERCENT) {
          // One re-measure before failing: a transient stall can skew the
          // measured cadence the prediction is fed. A repeatable miss is a
          // real model regression and still fails.
          std::fprintf(stderr,
                       "warning: %s %s on %lld devices missed the %.0f%% "
                       "gate (%.1f%%); re-measuring once\n",
                       P.name().c_str(), harness::scheduleKindName(K),
                       static_cast<long long>(Devices), TOLERANCE_PERCENT,
                       GapPercent);
          MeasureRow();
        }
        if (Devices == 1)
          OneDeviceSecs = Best;
        double Rate = Best > 0 ? Stats.Instances / Best / 1e6 : 0;
        double Speedup = Best > 0 ? OneDeviceSecs / Best : 0;
        if (GapPercent > TOLERANCE_PERCENT) {
          ++BadRows;
          std::fprintf(stderr,
                       "error: %s %s on %lld devices: predicted exchange "
                       "cost %.3e s vs measured %.3e s (%.1f%% > %.0f%%)\n",
                       P.name().c_str(), harness::scheduleKindName(K),
                       static_cast<long long>(Devices), Predicted.Seconds,
                       Stats.HaloSimulatedSeconds, GapPercent,
                       TOLERANCE_PERCENT);
        }

        std::printf("%-10s %-10s %4zu %8.4f %9.2f %7.2fx %6zu %8zu %12zu "
                    "%12.3e %8.2f\n",
                    P.name().c_str(), harness::scheduleKindName(K),
                    Stats.Devices, Best, Rate, Speedup,
                    Stats.MaxConcurrentDevices, Stats.DistinctComputeThreads,
                    Stats.HaloBytesExchanged, Stats.HaloSimulatedSeconds,
                    GapPercent);

        bench::JsonRow Row;
        Row.str("name", P.name())
            .str("schedule", harness::scheduleKindName(K))
            .num("devices_requested", Devices)
            .num("devices", Stats.Devices)
            .num("seconds", Best)
            .num("minst_per_s", Rate)
            .num("speedup_vs_1dev", Speedup)
            .num("max_concurrent_devices", Stats.MaxConcurrentDevices)
            .num("distinct_compute_threads", Stats.DistinctComputeThreads)
            .num("pool_tasks", Stats.PoolTasks)
            .num("wavefronts", Stats.Wavefronts)
            .num("halo_exchanges", Stats.HaloExchanges)
            .num("halo_bytes", Stats.HaloBytesExchanged)
            .num("halo_link_cost_s", Stats.HaloSimulatedSeconds)
            .num("halo_copy_wall_s", Stats.HaloWallSeconds)
            .num("prediction_gap_percent", GapPercent);
        Report.add(Row);
      }
    }
  }

  // The banded exchange cadence (overlapped family): one exchange per
  // time band over band-deep rings, priced on a latency-dominated link so
  // the alpha-term saving the cadence buys is *measured*, not just
  // predicted. Band depth 1 is the per-step baseline; each deeper row
  // saves (rounds(1) - rounds(band)) latency rounds per link at the price
  // of redundant halo recomputation and band-deep strips.
  std::printf("\nBanded exchange cadence (overlapped family, "
              "latency-dominated links):\n");
  std::printf("%-10s %4s %5s %7s %6s %10s %12s %12s %12s %9s\n", "program",
              "dev", "band", "rounds", "saved", "redundant", "halo-bytes",
              "link-cost", "predicted", "gap%");
  for (const ir::StencilProgram &P : Programs) {
    for (int64_t Devices = 2; Devices <= MaxDevices; Devices *= 2) {
      gpu::DeviceTopology Topo = gpu::DeviceTopology::uniform(
          gpu::DeviceConfig::gtx470(), static_cast<unsigned>(Devices));
      // A 50us / 16GB/s link: at gallery halo sizes the alpha term
      // dominates, so cadence -- not bytes -- decides the exchange cost.
      for (gpu::LinkSpec &L : Topo.Links)
        L = gpu::LinkSpec{/*LatencyUs=*/50.0, /*BandwidthGBps=*/16.0};

      double Band1Cost = 0;
      int64_t Band1Rounds = 0;
      for (int64_t Band : {int64_t(1), int64_t(2), int64_t(4)}) {
        core::OverlappedSchedule Sched(
            P, Band, std::max<int64_t>(T.W0 * 2, 8));
        exec::DeviceSimBackend Backend(Topo);
        if (Smoke)
          Backend.setMinTaskInstances(1);
        exec::ScheduleRunOptions Opts;
        Opts.BackendOverride = &Backend;

        exec::ReplayStats Stats;
        double GapPercent = 0;
        gpu::HaloExchangeCost Predicted;
        bool HasLink = false;
        auto MeasureRow = [&]() {
          Stats = exec::ReplayStats();
          Opts.Stats = &Stats;
          std::unique_ptr<exec::FieldStorage> Storage =
              exec::makeOverlappedStorage(P, Sched, Opts);
          auto *Parts =
              dynamic_cast<exec::PartitionedGridStorage *>(Storage.get());
          std::vector<int64_t> Cuts;
          if (Parts)
            for (unsigned D = 1; D < Parts->numDevices(); ++D)
              Cuts.push_back(Parts->owned(D).Lo);
          exec::runOverlapped(P, Sched, *Storage, Opts);
          HasLink = !Cuts.empty() && Stats.HaloExchanges > 0;
          GapPercent = 0;
          Predicted = gpu::HaloExchangeCost();
          if (HasLink) {
            Predicted =
                gpu::predictBandedHaloExchangeCost(P, Topo, Cuts, Band);
            if (Stats.HaloSimulatedSeconds > 0)
              GapPercent = 100.0 *
                           std::abs(Predicted.Seconds -
                                    Stats.HaloSimulatedSeconds) /
                           Stats.HaloSimulatedSeconds;
          }
        };
        MeasureRow();
        if (GapPercent > TOLERANCE_PERCENT)
          MeasureRow(); // Same one-retry policy as the scaling gate.
        if (!HasLink)
          continue; // Band-deep rings forced a single slab: no boundary.

        int64_t Rounds = static_cast<int64_t>(Stats.HaloExchanges);
        if (Band == 1) {
          Band1Cost = Stats.HaloSimulatedSeconds;
          Band1Rounds = Rounds;
        }
        int64_t RoundsSaved = Band1Rounds > 0 ? Band1Rounds - Rounds : 0;
        double AlphaSaving =
            Band1Cost > 0 ? Band1Cost - Stats.HaloSimulatedSeconds : 0;
        if (GapPercent > TOLERANCE_PERCENT) {
          ++BadRows;
          std::fprintf(stderr,
                       "error: %s overlapped band %lld on %lld devices: "
                       "predicted %.3e s vs measured %.3e s (%.1f%% > "
                       "%.0f%%)\n",
                       P.name().c_str(), static_cast<long long>(Band),
                       static_cast<long long>(Devices), Predicted.Seconds,
                       Stats.HaloSimulatedSeconds, GapPercent,
                       TOLERANCE_PERCENT);
        }
        if (Band > 1 && Band1Cost > 0 &&
            Stats.HaloSimulatedSeconds >= Band1Cost) {
          // The frontier claim itself: on a latency-dominated link the
          // banded cadence must *measure* cheaper than per-step exchange.
          ++BadRows;
          std::fprintf(stderr,
                       "error: %s overlapped band %lld on %lld devices: "
                       "measured link cost %.3e s does not undercut the "
                       "per-step cadence's %.3e s\n",
                       P.name().c_str(), static_cast<long long>(Band),
                       static_cast<long long>(Devices),
                       Stats.HaloSimulatedSeconds, Band1Cost);
        }

        std::printf("%-10s %4zu %5lld %7lld %6lld %10zu %12zu %12.3e "
                    "%12.3e %8.2f\n",
                    P.name().c_str(), Stats.Devices,
                    static_cast<long long>(Band),
                    static_cast<long long>(Rounds),
                    static_cast<long long>(RoundsSaved),
                    Stats.RedundantInstances, Stats.HaloBytesExchanged,
                    Stats.HaloSimulatedSeconds, Predicted.Seconds,
                    GapPercent);

        bench::JsonRow Row;
        Row.str("name", P.name())
            .str("schedule", "overlapped")
            .num("devices_requested", Devices)
            .num("devices", Stats.Devices)
            .num("cadence_steps", Band)
            .num("halo_exchanges", Rounds)
            .num("exchange_rounds_saved", RoundsSaved)
            .num("redundant_instances", Stats.RedundantInstances)
            .num("halo_bytes", Stats.HaloBytesExchanged)
            .num("halo_link_cost_s", Stats.HaloSimulatedSeconds)
            .num("predicted_latency_s", Predicted.LatencySeconds)
            .num("predicted_cost_s", Predicted.Seconds)
            .num("alpha_saving_vs_per_step_s", AlphaSaving)
            .num("prediction_gap_percent", GapPercent);
        Report.add(Row);
      }
    }
  }

  std::printf("\n(conc = max device compute phases observed in flight; "
              "threads = distinct\n worker threads that ran compute; "
              "link-cost = LinkSpec alpha-beta model over\n measured "
              "traffic. Rows whose predicted cost misses the measured cost "
              "by more\n than %.0f%% fail the run. Banded rows must also "
              "measure cheaper than the\n per-step cadence.)\n",
              TOLERANCE_PERCENT);
  if (BadRows > 0) {
    std::fprintf(stderr,
                 "error: %d row(s) outside the %.0f%% prediction tolerance\n",
                 BadRows, TOLERANCE_PERCENT);
    return 1;
  }
  return Report.writeTo(JsonPath) ? 0 : 1;
}
