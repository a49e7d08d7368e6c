//===- hextiled_loadtest.cpp - Hammer the compile service -----------------===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
// The compile-service load test: M client threads replay thousands of
// mixed gallery requests (12 programs x 4 ladder rungs = 48 distinct
// keys) against one service::CompileService and the harness reports what
// the "millions of users" framing actually needs -- request-latency
// percentiles, cache hit rate and single-flight dedup leverage -- into
// BENCH_service.json.
//
// Two phases:
//   stampede  every thread requests the SAME key concurrently: the
//             worst-case thundering herd, served by exactly one compile
//             (dedup ratio == number of threads on a cold start).
//   mixed     every thread replays its own randomized request stream over
//             the full key population: steady-state behavior, dominated
//             by memory hits once the 48 keys are resident.
//
// Host target (JIT .so, runnable) when a system compiler exists; Cuda
// source-only units otherwise, so the harness degrades gracefully instead
// of skipping. Flags: --smoke (small replay), --threads N, --requests N
// (per thread, mixed phase), --json <path>. Before both phases it times the
// key hash alone (makeCompileKey, best of N per key, median over keys) and
// reports it as the key_hash row's key_hash_us.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "service/CompileService.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace hextile;
using namespace hextile::bench;
using namespace hextile::service;

namespace {

/// The EmittedOracleTest gallery at its sweep-friendly sizes -- the same
/// key population the service stress test covers.
struct GalleryCase {
  const char *Name;
  int64_t N;
  int64_t Steps;
  int64_t H;
  int64_t W0;
  std::vector<int64_t> Inner;
};

const GalleryCase Gallery[] = {
    {"jacobi1d", 48, 12, 3, 4, {}},    {"skewed1d", 48, 10, 2, 3, {}},
    {"jacobi2d", 20, 8, 1, 2, {6}},    {"laplacian2d", 20, 8, 2, 2, {6}},
    {"heat2d", 18, 6, 1, 3, {5}},      {"gradient2d", 18, 6, 2, 4, {6}},
    {"fdtd2d", 16, 5, 2, 3, {5}},      {"wave2d", 16, 6, 2, 3, {5}},
    {"varheat2d", 16, 6, 1, 3, {5}},   {"laplacian3d", 12, 4, 1, 2, {4, 4}},
    {"heat3d", 12, 4, 2, 2, {4, 4}},   {"gradient3d", 12, 4, 1, 3, {3, 4}},
};

std::vector<CompileRequest> galleryRequests(TargetKind Target) {
  std::vector<CompileRequest> Requests;
  for (const GalleryCase &C : Gallery)
    for (char Rung : {'a', 'b', 'c', 'd'}) {
      CompileRequest R;
      R.Program = ir::makeByName(C.Name);
      R.Program.setSpaceSizes(
          std::vector<int64_t>(R.Program.spaceRank(), C.N));
      R.Program.setTimeSteps(C.Steps);
      R.Tiling.H = C.H;
      R.Tiling.W0 = C.W0;
      R.Tiling.InnerWidths = C.Inner;
      R.Config = codegen::OptimizationConfig::level(Rung);
      R.Target = Target;
      Requests.push_back(std::move(R));
    }
  return Requests;
}

int64_t intArg(int argc, char **argv, const char *Flag, int64_t Default) {
  for (int I = 1; I + 1 < argc; ++I)
    if (std::string_view(argv[I]) == Flag)
      return std::atoll(argv[I + 1]);
  return Default;
}

struct LatencyStats {
  double P50 = 0, P99 = 0, Mean = 0, Max = 0;
  size_t Count = 0;
};

LatencyStats summarize(std::vector<double> &Ms) {
  LatencyStats S;
  S.Count = Ms.size();
  if (Ms.empty())
    return S;
  std::sort(Ms.begin(), Ms.end());
  auto Pct = [&](double P) {
    return Ms[std::min(Ms.size() - 1,
                       static_cast<size_t>(P * (Ms.size() - 1)))];
  };
  S.P50 = Pct(0.50);
  S.P99 = Pct(0.99);
  S.Max = Ms.back();
  for (double M : Ms)
    S.Mean += M;
  S.Mean /= Ms.size();
  return S;
}

/// The request path's first stage on its own: makeCompileKey over every
/// request, best of \p Reps calls per key, median over keys, in us.
double keyHashUs(const std::vector<CompileRequest> &Requests, int Reps) {
  std::vector<double> BestUs;
  for (const CompileRequest &R : Requests) {
    double Best = INFINITY;
    for (int I = 0; I < Reps; ++I) {
      auto T0 = std::chrono::steady_clock::now();
      (void)makeCompileKey(R);
      Best = std::min(Best, std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - T0)
                                .count());
    }
    BestUs.push_back(Best);
  }
  return summarize(BestUs).P50;
}

/// Replays \p Total requests drawn by \p Pick across \p NumThreads client
/// threads; returns every per-request latency. Any failed request aborts
/// the harness (a load test that drops errors is lying).
std::vector<double>
replay(CompileService &Svc, const std::vector<CompileRequest> &Requests,
       unsigned NumThreads, unsigned PerThread,
       const std::function<size_t(std::mt19937 &)> &Pick) {
  std::vector<std::vector<double>> PerThreadMs(NumThreads);
  std::atomic<bool> Failed{false};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < NumThreads; ++T)
    Clients.emplace_back([&, T] {
      std::mt19937 Rng(0x9e3779b9u + T);
      PerThreadMs[T].reserve(PerThread);
      for (unsigned I = 0; I < PerThread && !Failed.load(); ++I) {
        CompileResult Res = Svc.compile(Requests[Pick(Rng)]);
        if (!Res.ok()) {
          std::fprintf(stderr, "request failed: %s\n", Res.Error.c_str());
          Failed.store(true);
          return;
        }
        PerThreadMs[T].push_back(Res.Stats.TotalMs);
      }
    });
  for (std::thread &C : Clients)
    C.join();
  if (Failed.load())
    std::exit(1);
  std::vector<double> All;
  for (std::vector<double> &Ms : PerThreadMs)
    All.insert(All.end(), Ms.begin(), Ms.end());
  return All;
}

JsonRow latencyRow(const char *Phase, LatencyStats S,
                   const ServiceCounters &C) {
  JsonRow Row;
  Row.str("phase", Phase)
      .num("requests", S.Count)
      .num("p50_ms", S.P50)
      .num("p99_ms", S.P99)
      .num("mean_ms", S.Mean)
      .num("max_ms", S.Max)
      .num("cumulative_hit_rate", C.hitRate())
      .num("cumulative_dedup_ratio", C.dedupRatio())
      .num("cumulative_compiles", C.Compiles);
  return Row;
}

} // namespace

int main(int argc, char **argv) {
  const bool Smoke = smokeMode(argc, argv);
  const unsigned NumThreads = static_cast<unsigned>(
      intArg(argc, argv, "--threads", Smoke ? 8 : 16));
  const unsigned PerThread = static_cast<unsigned>(
      intArg(argc, argv, "--requests", Smoke ? 150 : 2000));

  const TargetKind Target =
      JitUnit::available() ? TargetKind::Host : TargetKind::Cuda;
  const std::vector<CompileRequest> Requests = galleryRequests(Target);

  // A private store directory per run: the numbers measure this run's
  // compiles, not a previous run's warm units.
  std::string StoreDir =
      (std::filesystem::temp_directory_path() /
       ("hextiled-loadtest-" + std::to_string(getpid())))
          .string();
  CompileServiceOptions Opts;
  Opts.StoreDir = StoreDir;
  CompileService Svc(Opts);

  std::printf("hextiled loadtest: %u threads, %u mixed requests/thread, "
              "%zu keys, target=%s\n",
              NumThreads, PerThread, Requests.size(),
              targetKindName(Target));

  const int KeyHashReps = Smoke ? 50 : 1000;
  const double KeyHashUs = keyHashUs(Requests, KeyHashReps);

  // Phase 1 -- stampede: every thread, one key, simultaneously. On this
  // cold service the whole herd is served by exactly one compile.
  std::vector<double> StampedeMs =
      replay(Svc, Requests, NumThreads, 1,
             [](std::mt19937 &) -> size_t { return 0; });
  LatencyStats Stampede = summarize(StampedeMs);
  ServiceCounters AfterStampede = Svc.counters();

  // Phase 2 -- mixed replay over the full key population.
  std::vector<double> MixedMs =
      replay(Svc, Requests, NumThreads, PerThread,
             [&](std::mt19937 &Rng) -> size_t {
               return std::uniform_int_distribution<size_t>(
                   0, Requests.size() - 1)(Rng);
             });
  LatencyStats Mixed = summarize(MixedMs);
  ServiceCounters Final = Svc.counters();

  std::printf("  stampede: %zu requests, p50 %.3f ms, p99 %.3f ms, "
              "compiles %" PRIu64 "\n",
              Stampede.Count, Stampede.P50, Stampede.P99,
              AfterStampede.Compiles);
  std::printf("  mixed:    %zu requests, p50 %.3f ms, p99 %.3f ms, "
              "mean %.3f ms\n",
              Mixed.Count, Mixed.P50, Mixed.P99, Mixed.Mean);
  std::printf("  key hash: %.3f us (best of %d per key, median over "
              "keys)\n",
              KeyHashUs, KeyHashReps);
  std::printf("  service:  %" PRIu64 " requests, hit rate %.4f, dedup "
              "ratio %.2f, %" PRIu64 " compiles (%" PRIu64 " failures), "
              "%" PRIu64 " mem hits, %" PRIu64 " disk hits, %" PRIu64
              " joins\n",
              Final.Requests, Final.hitRate(), Final.dedupRatio(),
              Final.Compiles, Final.CompileFailures, Final.MemoryHits,
              Final.DiskHits, Final.InflightJoins);

  JsonReport Report("hextiled_loadtest");
  Report.config()
      .num("threads", int64_t(NumThreads))
      .num("requests_per_thread", int64_t(PerThread))
      .num("keys", Requests.size())
      .str("target", targetKindName(Target))
      .num("smoke", int64_t(Smoke));
  Report.add(latencyRow("stampede", Stampede, AfterStampede));
  Report.add(latencyRow("mixed", Mixed, Final));
  JsonRow KeyHash;
  KeyHash.str("phase", "key_hash")
      .num("key_hash_us", KeyHashUs)
      .num("reps_per_key", int64_t(KeyHashReps));
  Report.add(KeyHash);
  JsonRow Counters;
  Counters.str("phase", "counters")
      .num("requests", Final.Requests)
      .num("memory_hits", Final.MemoryHits)
      .num("disk_hits", Final.DiskHits)
      .num("inflight_joins", Final.InflightJoins)
      .num("compiles", Final.Compiles)
      .num("compile_failures", Final.CompileFailures)
      .num("evictions", Final.Evictions)
      .num("quarantined", Final.Quarantined)
      .num("bytes_resident", Final.BytesResident)
      .num("entries_resident", Final.EntriesResident)
      .num("hit_rate", Final.hitRate())
      .num("dedup_ratio", Final.dedupRatio());
  Report.add(Counters);
  bool Written = Report.writeTo(jsonPathArg(argc, argv));

  std::error_code Ec;
  std::filesystem::remove_all(StoreDir, Ec);

  // The acceptance gates: the smoke run must demonstrate real cache
  // leverage, not merely terminate.
  if (Final.CompileFailures != 0 ||
      Final.Compiles > static_cast<uint64_t>(Requests.size()) + 1) {
    std::fprintf(stderr, "error: compile counters out of contract\n");
    return 1;
  }
  if (Final.hitRate() < 0.9 || Final.dedupRatio() <= 1.0) {
    std::fprintf(stderr,
                 "error: hit rate %.4f / dedup ratio %.2f below the "
                 "service's point\n",
                 Final.hitRate(), Final.dedupRatio());
    return 1;
  }
  return Written ? 0 : 1;
}
