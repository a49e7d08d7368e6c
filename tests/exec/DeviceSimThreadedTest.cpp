//===- DeviceSimThreadedTest.cpp - Threaded multi-device race suite -----------===//
//
// The TSan-facing suite for the threaded DeviceSim execution model: the
// simulated devices run on the pool's participants, advancing concurrently
// between two-phase wavefront barriers (compute || barrier || push-halos
// || barrier). Legal schedules must stay bit-exact against the naive
// reference under that genuine concurrency -- and under ThreadSanitizer
// the same replays double as a happens-before proof of the barrier
// protocol. The suite also proves it has teeth: with the barrier
// deliberately broken (a test hook compiled out of release builds folds
// the halo push into the compute phase) the differential check must flag
// the resulting stale halo reads.
//
// Runs in the TSan CI job; keep every test here race-free by construction
// except the explicitly skipped broken-barrier one.
//
//===----------------------------------------------------------------------===//

#include "core/OverlappedSchedule.h"
#include "exec/DeviceSimBackend.h"
#include "exec/Executor.h"
#include "exec/OverlappedReplay.h"
#include "exec/PartitionedGridStorage.h"
#include "gpu/DeviceTopology.h"
#include "harness/StencilOracle.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <thread>

using namespace hextile;
using namespace hextile::exec;

// Mirror of ThreadPoolTest's detection: the broken-barrier test races on
// purpose and must not run under ThreadSanitizer.
#if defined(__SANITIZE_THREAD__)
#define HEXTILE_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HEXTILE_UNDER_TSAN 1
#endif
#endif
#ifndef HEXTILE_UNDER_TSAN
#define HEXTILE_UNDER_TSAN 0
#endif

namespace {

/// A chain of \p N GTX 470-class devices with *randomized* SM counts: the
/// slab planner weights owned widths by SMs, so this randomizes the slab
/// decomposition (and with it which devices race across which links)
/// without leaving the supported topology space.
gpu::DeviceTopology randomTopology(unsigned N, std::mt19937_64 &Rng) {
  std::uniform_int_distribution<int> Sms(1, 14);
  gpu::DeviceTopology T;
  for (unsigned D = 0; D < N; ++D) {
    gpu::DeviceConfig C = gpu::DeviceConfig::gtx470();
    C.NumSMs = Sms(Rng);
    T.Devices.push_back(C);
  }
  if (N > 1)
    T.Links.assign(N - 1, gpu::LinkSpec{});
  return T;
}

/// One threaded replay of \p P under schedule kind \p K over \p Topo,
/// checked bit-exactly against the flat reference. MinTaskInstances = 1
/// pushes *every* multi-device wavefront through the pool -- maximum
/// concurrency, which is the point of this suite.
ReplayStats replayThreaded(const ir::StencilProgram &P,
                           harness::ScheduleKind K,
                           const gpu::DeviceTopology &Topo,
                           uint64_t ShuffleSeed) {
  harness::OracleTiling T;
  T.H = 2;
  T.W0 = 4;
  T.InnerWidths = {5};

  DeviceSimBackend Backend(Topo);
  Backend.setMinTaskInstances(1);

  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Backend;
  Opts.ShuffleSeed = ShuffleSeed;
  ReplayStats Stats;
  Opts.Stats = &Stats;

  std::unique_ptr<FieldStorage> Storage;
  if (K == harness::ScheduleKind::Overlapped) {
    // The fifth family has no lexicographic key: its device-level
    // trapezoids replay through the dedicated overlapped driver instead,
    // with the banded exchange cadence (one band-deep halo push per band)
    // flowing through the same two-phase barrier protocol and the same
    // per-link accounting this suite races for the keyed families.
    core::OverlappedSchedule Sched(P, /*BandSteps=*/T.H + 1, T.W0);
    Storage = makeOverlappedStorage(P, Sched, Opts);
    runOverlapped(P, Sched, *Storage, Opts);
  } else {
    harness::OracleSchedule S = harness::makeOracleSchedule(P, K, T);
    EXPECT_NE(S.Key, nullptr) << S.Skipped;
    if (!S.Key)
      return {};
    Opts.ParallelFrom = S.ParallelFrom;
    Storage = makeStorage(P, Opts);
    core::IterationDomain Domain = core::IterationDomain::forProgram(P);
    runSchedule(P, *Storage, Domain, S.Key, Opts);
  }

  GridStorage Ref(P);
  runReference(P, Ref);
  EXPECT_EQ(compareStoragesAtStep(Ref, *Storage, P.timeSteps() - 1), "")
      << harness::scheduleKindName(K) << " on " << Topo.str()
      << " shuffle=0x" << std::hex << ShuffleSeed;
  return Stats;
}

class DeviceSimThreadedSweep : public ::testing::TestWithParam<unsigned> {};

} // namespace

/// The headline race suite: 2/4/8 concurrently-advancing devices with
/// randomized slab widths, across all five schedule families, bit-exact
/// every time. Per-link counters must be internally consistent: links
/// partition the total traffic, and every link records the replay's
/// exchange cadence.
TEST_P(DeviceSimThreadedSweep, RacedSchedulesStayBitExact) {
  unsigned Devices = GetParam();
  std::mt19937_64 Rng(0x7478736e61535431ull ^ Devices);
  ir::StencilProgram P = ir::makeJacobi2D(48, 6);
  for (harness::ScheduleKind K : harness::allScheduleKinds()) {
    gpu::DeviceTopology Topo = randomTopology(Devices, Rng);
    SCOPED_TRACE(::testing::Message()
                 << harness::scheduleKindName(K) << " on " << Topo.str());
    ReplayStats Stats = replayThreaded(P, K, Topo, /*ShuffleSeed=*/Rng());

    EXPECT_GT(Stats.Devices, 1u);
    ASSERT_EQ(Stats.PerLink.size(), Stats.Devices - 1);
    size_t LinkValues = 0;
    for (const LinkReplayStats &L : Stats.PerLink) {
      EXPECT_EQ(L.Exchanges, Stats.HaloExchanges);
      EXPECT_EQ(L.Bytes, L.Values * sizeof(float));
      // The latency term alone makes any exchanged round cost time.
      EXPECT_GT(L.SimulatedSeconds, 0.0);
      LinkValues += L.Values;
    }
    // Links partition the traffic: every sent value crosses exactly one.
    EXPECT_EQ(LinkValues, Stats.HaloValuesExchanged);
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, DeviceSimThreadedSweep,
                         ::testing::Values(2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<unsigned> &I) {
                           return "devices" + std::to_string(I.param);
                         });

/// The concurrency must be genuine, not an artifact of the pool running
/// everything on the caller: the backend records an atomic high-water mark
/// of simultaneously-active device compute phases and the set of distinct
/// OS threads that ran them.
TEST(DeviceSimThreadedTest, DevicesGenuinelyRunConcurrently) {
  if (std::thread::hardware_concurrency() < 2)
    GTEST_SKIP() << "single hardware thread; no real overlap possible";
  ir::StencilProgram P = ir::makeJacobi2D(64, 8);
  ReplayStats Stats = replayThreaded(P, harness::ScheduleKind::Hex,
                                     defaultSimTopology(4), 0);
  EXPECT_TRUE(Stats.MaxConcurrentDevices >= 2 ||
              Stats.DistinctComputeThreads >= 2)
      << "threaded replay never overlapped two devices "
         "(MaxConcurrentDevices="
      << Stats.MaxConcurrentDevices
      << ", DistinctComputeThreads=" << Stats.DistinctComputeThreads << ")";
}

/// Below the batching floor nothing is handed to the pool (the pooled-
/// classical regression fix, on the DeviceSim side): a floor above every
/// wavefront keeps PoolTasks at zero and every device on the caller's
/// thread, while the replay stays bit-exact with unchanged traffic.
TEST(DeviceSimThreadedTest, BatchingFloorKeepsSmallWavefrontsInline) {
  ir::StencilProgram P = ir::makeJacobi2D(32, 4);
  harness::OracleTiling T;
  T.H = 2;
  T.W0 = 4;
  T.InnerWidths = {5};
  harness::OracleSchedule S =
      harness::makeOracleSchedule(P, harness::ScheduleKind::Classical, T);
  ASSERT_NE(S.Key, nullptr);
  core::IterationDomain Domain = core::IterationDomain::forProgram(P);

  auto replay = [&](size_t Floor, ReplayStats &Stats) {
    DeviceSimBackend Backend(defaultSimTopology(2));
    Backend.setMinTaskInstances(Floor);
    ScheduleRunOptions Opts;
    Opts.BackendOverride = &Backend;
    Opts.ParallelFrom = S.ParallelFrom;
    Opts.Stats = &Stats;
    std::unique_ptr<FieldStorage> Storage = makeStorage(P, Opts);
    runSchedule(P, *Storage, Domain, S.Key, Opts);
    GridStorage Ref(P);
    runReference(P, Ref);
    EXPECT_EQ(compareStoragesAtStep(Ref, *Storage, P.timeSteps() - 1), "")
        << "floor " << Floor;
  };

  ReplayStats Inline, Eager;
  replay(1u << 20, Inline);
  EXPECT_EQ(Inline.PoolTasks, 0u);
  EXPECT_EQ(Inline.MaxConcurrentDevices, 1u);
  EXPECT_EQ(Inline.DistinctComputeThreads, 1u);
  replay(1, Eager);
  EXPECT_GT(Eager.PoolTasks, 0u);
  // Same traffic either way.
  EXPECT_EQ(Inline.HaloValuesExchanged, Eager.HaloValuesExchanged);
}

/// The negative control: with the barrier between the push and compute
/// phases removed (the hook folds the halo push into the compute phase,
/// each device delivering the previous wavefront's halos on its own
/// schedule), a device computes against ring values its neighbor has not
/// pushed yet -- and a concurrent push overwrites the very cells a
/// neighbor's compute is reading. The differential check must catch the
/// resulting stale reads; this is the proof that the bit-exact suite
/// above *can* see a broken barrier. The staleness shows up under any
/// interleaving (even fully serialized task order), so no minimum core
/// count is needed. The hook lives in the two-phase driver wavefronts and
/// overlapped bands share, so it must break bands too: a band's
/// device-level trapezoid then reads band-entry halos its neighbor has
/// not delivered. Skipped under TSan (the same-cell access is an
/// intentional data race) and in release builds (the hook is compiled
/// out).
TEST(DeviceSimThreadedTest, BrokenBarrierIsCaughtByDifferentialCheck) {
#if HEXTILE_UNDER_TSAN
  GTEST_SKIP() << "intentional data races; the TSan job covers the legal "
                  "two-phase barrier only";
#endif
  if (!DeviceSimBackend::brokenBarrierSupported())
    GTEST_SKIP() << "DeviceSim test hooks compiled out of this build";

  // Imbalance (14:2 SMs) skews the slab split, so plenty of boundary
  // values cross the link every wavefront.
  gpu::DeviceTopology Topo;
  Topo.Devices = {gpu::DeviceConfig::gtx470(), gpu::DeviceConfig::nvs5200()};
  ir::StencilProgram P = ir::makeJacobi2D(48, 10);
  harness::OracleTiling T;
  T.H = 3;
  T.W0 = 4;
  T.InnerWidths = {6};
  harness::OracleSchedule S =
      harness::makeOracleSchedule(P, harness::ScheduleKind::Hex, T);
  ASSERT_NE(S.Key, nullptr);

  bool Caught = false;
  for (uint64_t Seed : {0x1111ull, 0x2222ull, 0x3333ull, 0x4444ull}) {
    DeviceSimBackend Backend(Topo);
    Backend.setMinTaskInstances(1);
    Backend.setBrokenBarrierForTesting(true);
    ScheduleRunOptions Opts;
    Opts.BackendOverride = &Backend;
    Opts.ParallelFrom = S.ParallelFrom;
    Opts.ShuffleSeed = Seed;
    if (!checkScheduleEquivalence(P, S.Key, Opts).empty())
      Caught = true;
  }
  EXPECT_TRUE(Caught) << "single-phase replay never diverged -- the "
                         "threaded differential suite has no teeth";

  // A band has far fewer barriers than a replay has wavefronts, and pooled
  // devices can win every push race on a loaded host; in order on the
  // caller (a floor above every band) device 0 computes each band before
  // device 1 delivers the previous band's halos, every time.
  core::OverlappedSchedule Bands(P, /*BandSteps=*/T.H + 1, T.W0);
  DeviceSimBackend Backend(Topo);
  Backend.setMinTaskInstances(SIZE_MAX);
  Backend.setBrokenBarrierForTesting(true);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Backend;
  EXPECT_NE(checkOverlappedEquivalence(P, Bands, Opts), "")
      << "single-phase overlapped bands never diverged -- the broken "
         "barrier misses the band driver";
}
