//===- bench_shim_launch.cpp - Parallel shim launch and barrier costs -----===//
//
// Costs the parallel host shim's runtime (service/ShimRuntime) with no
// kernel work at all, so launch and barrier show on their own:
//
//   launch_us  wall time of one launch whose blocks return at once;
//   sync_us    time one __syncthreads per block adds to a team's run of
//              its blocks: (t(S syncs) - t(0 syncs)) per launch, divided
//              by S x ceil(blocks / teams). A difference of two timings,
//              it is noise where waking teams that get no block dominates
//              the launch (one block on several teams), and may read
//              below zero there.
//
// Geometries (teams x threads, set through HT_SHIM_TEAMS and
// HT_SHIM_THREADS): 1x1, 2x1, 1x2, 2x2, 4x1 and 1x4, each at 1 and 8
// blocks. Each number is the median of 9 repetitions of 2,000 launches
// (3 of 200 under --smoke), with the quartiles of the repetitions beside
// launch_us; every repetition times the empty and the syncing launches
// back to back, so a slow stretch of the machine lands on both.
//
// The harness links only libhextile: one hand-written unit, built and
// bound through service::JitUnit, so the same source builds against an
// older library to compare two runtimes. Machines without a system
// compiler print a note and exit 0.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "service/JitUnit.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace hextile;
using namespace hextile::bench;

namespace {

/// Blocks that meet at \p nsync barriers and do nothing else; the baked-in
/// team size is overridden through the environment.
constexpr const char *UnitSource = R"cpp(#define HT_SHIM_THREADS 1
#include "cuda_shim.h"

__global__ void syncs(ht_int ht_block, ht_int nsync) {
  (void)ht_block;
  for (ht_int I = 0; I < nsync; ++I)
    __syncthreads();
}

extern "C" void launches(ht_int n, ht_int nblocks, ht_int nsync) {
  for (ht_int I = 0; I < n; ++I)
    HT_LAUNCH_1D(syncs, nblocks, nsync);
}
)cpp";

using LaunchesFn = void (*)(int64_t, int64_t, int64_t);

/// Barriers per block in the syncing launches.
constexpr int64_t SyncsPerBlock = 8;

struct Geometry {
  int Teams;
  int Threads;
};

/// Microseconds per launch of \p N launches of \p Blocks blocks.
double perLaunchUs(LaunchesFn Run, int64_t N, int64_t Blocks,
                   int64_t Syncs) {
  auto T0 = std::chrono::steady_clock::now();
  Run(N, Blocks, Syncs);
  std::chrono::duration<double, std::micro> D =
      std::chrono::steady_clock::now() - T0;
  return D.count() / static_cast<double>(N);
}

/// The value at fraction \p Q of \p V (nearest rank; V is sorted here).
double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  return V[static_cast<size_t>(Q * static_cast<double>(V.size() - 1) + 0.5)];
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  const int Reps = Smoke ? 3 : 9;
  const int64_t Launches = Smoke ? 200 : 2000;

  JsonReport Report("shim_launch");
  Report.config()
      .num("reps", int64_t{Reps})
      .num("launches", int64_t{Launches})
      .num("syncs_per_block", int64_t{SyncsPerBlock});

  if (!service::JitUnit::available()) {
    std::printf("no system C++ compiler: the shim runtime is not "
                "measured\n");
    return Report.writeTo(jsonPathArg(argc, argv)) ? 0 : 1;
  }
  service::JitUnit Unit;
  std::string Err = Unit.build(UnitSource);
  if (!Err.empty()) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  auto Run = reinterpret_cast<LaunchesFn>(Unit.symbol("launches"));

  const Geometry Geometries[] = {{1, 1}, {2, 1}, {1, 2},
                                 {2, 2}, {4, 1}, {1, 4}};
  std::printf("%-8s %6s %10s %20s %10s\n", "geometry", "blocks",
              "launch_us", "launch_us q1..q3", "sync_us");
  for (const Geometry &G : Geometries) {
    setenv("HT_SHIM_TEAMS", std::to_string(G.Teams).c_str(), 1);
    setenv("HT_SHIM_THREADS", std::to_string(G.Threads).c_str(), 1);
    for (int64_t Blocks : {int64_t{1}, int64_t{8}}) {
      // Untimed: re-shapes the pool and wakes its workers once.
      Run(Launches / 10, Blocks, SyncsPerBlock);
      const int64_t PerTeam = (Blocks + G.Teams - 1) / G.Teams;
      std::vector<double> Empty, Sync;
      for (int R = 0; R < Reps; ++R) {
        double E = perLaunchUs(Run, Launches, Blocks, 0);
        double S = perLaunchUs(Run, Launches, Blocks, SyncsPerBlock);
        Empty.push_back(E);
        Sync.push_back((S - E) /
                       static_cast<double>(SyncsPerBlock * PerTeam));
      }
      double LaunchUs = quantile(Empty, 0.5), Q1 = quantile(Empty, 0.25),
             Q3 = quantile(Empty, 0.75), SyncUs = quantile(Sync, 0.5);
      std::string Name =
          std::to_string(G.Teams) + "x" + std::to_string(G.Threads);
      std::printf("%-8s %6lld %10.2f %9.2f..%-9.2f %10.3f\n", Name.c_str(),
                  static_cast<long long>(Blocks), LaunchUs, Q1, Q3, SyncUs);
      JsonRow Row;
      Row.str("geometry", Name)
          .num("teams", int64_t{G.Teams})
          .num("threads", int64_t{G.Threads})
          .num("blocks", int64_t{Blocks})
          .num("launch_us", LaunchUs)
          .num("launch_us_q1", Q1)
          .num("launch_us_q3", Q3)
          .num("sync_us", SyncUs);
      Report.add(Row);
    }
  }
  return Report.writeTo(jsonPathArg(argc, argv)) ? 0 : 1;
}
