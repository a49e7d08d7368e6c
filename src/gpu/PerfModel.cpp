//===- PerfModel.cpp - Launch-level GPU performance model -----------------===//

#include "gpu/PerfModel.h"

#include "support/MathExt.h"

#include <algorithm>

using namespace hextile;
using namespace hextile::gpu;

PerfResult gpu::simulate(const DeviceConfig &Dev,
                         const std::vector<KernelModel> &Kernels) {
  PerfResult R;
  double TotalUseful = 0, TotalLineBytes = 0;
  double TotalSharedReq = 0, TotalSharedTx = 0;
  double TotalFlops = 0;

  for (const KernelModel &K : Kernels) {
    TrafficStats Request = analyzeBatches(Dev, K.LoadRequestRows);
    TrafficStats Distinct = K.LoadDistinctRows.empty()
                                ? Request
                                : analyzeBatches(Dev, K.LoadDistinctRows);
    TrafficStats Stores = analyzeBatches(Dev, K.StoreRows);

    double SlabsTotal = static_cast<double>(K.Launches) *
                        K.BlocksPerLaunch * K.SlabsPerBlock;

    // ---- Counters ----
    R.Counters.GldInst32bit += SlabsTotal * Request.ThreadInsts;
    R.Counters.DramReadTransactions +=
        SlabsTotal * Distinct.Lines *
        (Dev.CacheLineBytes / Dev.SectorBytes);
    R.Counters.L2ReadTransactions +=
        SlabsTotal * Request.Sectors * K.L1FilterFactor;
    TotalUseful += SlabsTotal * Request.UsefulBytes;
    TotalLineBytes += SlabsTotal * Request.Lines * Dev.CacheLineBytes;
    double SharedReqs = SlabsTotal *
                        (K.SharedLoadsPerSlab + K.SharedStoresPerSlab) /
                        static_cast<double>(Dev.WarpSize);
    TotalSharedReq += SharedReqs;
    TotalSharedTx += SharedReqs * K.SharedTransactionsPerRequest;

    // ---- Timing (per launch) ----
    double Slabs = static_cast<double>(K.BlocksPerLaunch) * K.SlabsPerBlock;
    double SharedWords =
        Slabs * (K.SharedLoadsPerSlab * K.SharedTransactionsPerRequest +
                 K.SharedStoresPerSlab);
    // Every instruction competes for issue slots: FLOPs, shared accesses
    // (with conflict replays) and global accesses.
    double Insts = Slabs * (static_cast<double>(K.FlopsPerSlab) +
                            K.SharedLoadsPerSlab *
                                K.SharedTransactionsPerRequest +
                            K.SharedStoresPerSlab + Request.ThreadInsts +
                            Stores.ThreadInsts);
    double DramBytes = Slabs * (Distinct.Lines * Dev.CacheLineBytes +
                                Stores.UsefulBytes);
    double L2Bytes =
        Slabs * (Request.Sectors * K.L1FilterFactor + Stores.Sectors) *
        Dev.SectorBytes;

    double Sustain = Dev.SustainedFraction;
    double SMUtil = std::min<double>(
        1.0, static_cast<double>(K.BlocksPerLaunch) / Dev.NumSMs);
    double IssueRate =
        Dev.NumSMs * Dev.CoresPerSM * Dev.ClockGHz * 1e9 * Sustain * SMUtil;
    double TIssue = Insts / IssueRate;
    double LsuRate = Dev.NumSMs * static_cast<double>(Dev.LsuWordsPerCycle) *
                     Dev.ClockGHz * 1e9 * Sustain * SMUtil;
    double TShared = SharedWords / LsuRate;
    double TDram = DramBytes / (Dev.DramBandwidthGBs * 1e9);
    double TL2 = L2Bytes / (Dev.L2BandwidthGBs * 1e9);

    // Global-access pipeline: each warp-level access costs latency cycles.
    // Staged copies (explicit shared-memory load phases) expose the load
    // stream before computation starts -- and the store stream after it
    // unless copy-out is interleaved (the (b) vs (c) effect of Sec. 6.2).
    // Cache-backed direct accesses interleave with computation, so
    // multithreading hides most of their latency (MemHidingFactor).
    double PipeRate = Dev.NumSMs * Dev.ClockGHz * 1e9 * SMUtil;
    double TLoadPhase, TStorePhase;
    if (K.StagedCopies) {
      TLoadPhase =
          Slabs * Request.WarpInsts * Dev.MemPipeCyclesPerWarp / PipeRate;
      TStorePhase = K.OverlapCopyOut
                        ? 0.0
                        : Slabs * Stores.WarpInsts *
                              Dev.MemPipeCyclesPerWarp / PipeRate;
    } else {
      TLoadPhase = Slabs * (Request.WarpInsts + Stores.WarpInsts) *
                   Dev.MemPipeCyclesPerWarp /
                   (PipeRate * Dev.MemHidingFactor);
      TStorePhase = 0.0;
    }

    double TOnChip = std::max(TIssue, TShared);
    double TMem = std::max(TDram, TL2);
    double TLaunch =
        std::max(TMem, TOnChip + TLoadPhase + TStorePhase) +
        Dev.LaunchOverheadUs * 1e-6;

    R.Seconds += K.Launches * TLaunch;
    R.TotalUpdates += static_cast<int64_t>(SlabsTotal * K.UpdatesPerSlab);
    TotalFlops += SlabsTotal * K.FlopsPerSlab;
  }

  R.Counters.GldEfficiency =
      TotalLineBytes == 0 ? 1.0 : TotalUseful / TotalLineBytes;
  R.Counters.SharedLoadsPerRequest =
      TotalSharedReq == 0 ? 1.0 : TotalSharedTx / TotalSharedReq;
  R.GStencilsPerSec = R.Seconds == 0 ? 0 : R.TotalUpdates / R.Seconds / 1e9;
  R.GFlops = R.Seconds == 0 ? 0 : TotalFlops / R.Seconds / 1e9;
  return R;
}

HaloExchangeCost
gpu::predictHaloExchangeCost(const ir::StencilProgram &P,
                             const DeviceTopology &Topo,
                             std::span<const int64_t> Boundaries,
                             int64_t ExchangeRounds, int64_t CadenceSteps) {
  HaloExchangeCost Cost;
  Cost.PerLinkValues =
      predictHaloExchangeValuesPerBoundary(P, Boundaries, CadenceSteps);
  Cost.PerLinkSeconds.reserve(Cost.PerLinkValues.size());
  for (size_t E = 0; E < Cost.PerLinkValues.size(); ++E) {
    LinkSpec Link = Topo.link(static_cast<unsigned>(E));
    int64_t Bytes =
        Cost.PerLinkValues[E] * static_cast<int64_t>(sizeof(float));
    // The same closed form DeviceSimBackend applies to measured traffic:
    // exact-equality cross-checks depend on identical arithmetic.
    double Seconds = Link.seconds(ExchangeRounds, Bytes);
    Cost.PerLinkSeconds.push_back(Seconds);
    Cost.Seconds += Seconds;
    Cost.LatencySeconds +=
        static_cast<double>(ExchangeRounds) * (Link.LatencyUs * 1e-6);
    Cost.TransferSeconds +=
        static_cast<double>(Bytes) / (Link.BandwidthGBps * 1e9);
  }
  return Cost;
}

HaloExchangeCost
gpu::predictBandedHaloExchangeCost(const ir::StencilProgram &P,
                                   const DeviceTopology &Topo,
                                   std::span<const int64_t> Boundaries,
                                   int64_t BandSteps) {
  return predictHaloExchangeCost(P, Topo, Boundaries,
                                 ceilDiv(P.timeSteps(), BandSteps), BandSteps);
}
