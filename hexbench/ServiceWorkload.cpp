//===- ServiceWorkload.cpp - The service-warm workload --------------------===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
// The compile service's read path. Setup fills a store with 48 keys -- the
// hextiled_loadtest gallery (12 programs) crossed with the four emitted
// flavors at rung d -- and reopens it under a fixed 1 MiB cache budget.
// Rounds of Zipf(s = 1) CompileService::compile requests from the parallel
// setting's closed-loop clients, then from 1 client, exercise key hashing,
// LRU hits, disk loads (dlopen) and evictions, with zero compiles.
//
// The single client's requests are timed in CPU time, with a reference pass
// every ReferenceEvery requests: the client's own thread serves hits and
// disk loads. The parallel clients' requests are timed in wall time.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "harness/HostKernelRunner.h"
#include "harness/StencilOracle.h"
#include "service/CompileService.h"

#include <atomic>
#include <filesystem>
#include <future>
#include <iterator>
#include <optional>
#include <thread>

using namespace hextile;
using namespace hextile::bench;
using namespace hextile::service;

namespace {

using Clock = std::chrono::steady_clock;

struct GalleryCase {
  const char *Name;
  int64_t N;
  int64_t Steps;
  int64_t H;
  int64_t W0;
  std::vector<int64_t> Inner;
};

/// hextiled_loadtest's gallery at its sweep-friendly sizes.
const std::vector<GalleryCase> &gallery() {
  static const std::vector<GalleryCase> G = {
      {"jacobi1d", 48, 12, 3, 4, {}},    {"skewed1d", 48, 10, 2, 3, {}},
      {"jacobi2d", 20, 8, 1, 2, {6}},    {"laplacian2d", 20, 8, 2, 2, {6}},
      {"heat2d", 18, 6, 1, 3, {5}},      {"gradient2d", 18, 6, 2, 4, {6}},
      {"fdtd2d", 16, 5, 2, 3, {5}},      {"wave2d", 16, 6, 2, 3, {5}},
      {"varheat2d", 16, 6, 1, 3, {5}},   {"laplacian3d", 12, 4, 1, 2, {4, 4}},
      {"heat3d", 12, 4, 2, 2, {4, 4}},   {"gradient3d", 12, 4, 1, 3, {3, 4}},
  };
  return G;
}

const codegen::EmitSchedule Flavors[] = {
    codegen::EmitSchedule::Hex, codegen::EmitSchedule::Hybrid,
    codegen::EmitSchedule::Classical, codegen::EmitSchedule::Overlapped};

/// The cache budget: a constant, so smaller artifacts show as fewer
/// evictions rather than as a different budget.
constexpr size_t CacheBytes = 1u << 20;

/// Requests of the single client per reference pass: a request takes about
/// 10 us, the pass about 0.3 ms.
constexpr size_t ReferenceEvery = 32;

struct Key {
  CompileRequest Req;
  std::string Family;
};

/// One finished request, kept small: a phase records millions. Holds no
/// artifact: a sample that kept one alive would keep an evicted unit loaded
/// and turn the next disk load into a reference-count bump.
struct Sample {
  uint32_t Key = 0;
  RequestOutcome How = RequestOutcome::Failed;
  float Ms = 0;
  float CpuMs = 0; ///< The single client's requests only.
};

/// The requests of one client phase.
struct PhaseResult {
  std::vector<Sample> Samples;
  std::vector<std::string> Errors; ///< One per failed request.
  std::vector<double> ReferenceMs; ///< The single client's reference passes.
  double WallMs = 0;
};

class ServiceWorkload final : public Workload {
public:
  explicit ServiceWorkload(const RunOptions &Opts)
      : Opts(Opts), Init(harness::seededInit(Opts.Seed)) {
    for (int C = 0; C <= ParallelWidth; ++C)
      Streams.emplace_back(Opts.Seed * 0x100000001b3ull + C);
  }

  ~ServiceWorkload() override {
    Svc.reset();
    std::error_code Ec;
    if (!StoreDir.empty())
      std::filesystem::remove_all(StoreDir, Ec);
  }

  void setup() override {
    if (!JitUnit::available())
      throw std::runtime_error("no system C++ compiler for the JIT");
    size_t NumPrograms = Opts.Smoke ? 4 : gallery().size();
    for (size_t P = 0; P < NumPrograms; ++P) {
      const GalleryCase &G = gallery()[P];
      ir::StencilProgram Program = parseGalleryProgram(G.Name, G.N, G.Steps);
      for (codegen::EmitSchedule F : Flavors) {
        Key K;
        K.Req.Program = Program;
        K.Req.Tiling.H = G.H;
        K.Req.Tiling.W0 = G.W0;
        K.Req.Tiling.InnerWidths = G.Inner;
        K.Req.Config = codegen::OptimizationConfig::level('d');
        K.Req.Flavor = F;
        K.Family = codegen::emitScheduleName(F);
        Keys.push_back(std::move(K));
      }
    }

    // Fill the store through a service of its own, then reopen it: the
    // measured service starts from a warm disk and a cold memory cache.
    static std::atomic<size_t> StoreCounter{0};
    StoreDir = (std::filesystem::path(Opts.WorkDir) /
                ("warm-" + std::to_string(StoreCounter.fetch_add(1))))
                   .string();
    std::filesystem::remove_all(StoreDir);
    std::filesystem::create_directories(StoreDir);
    std::vector<CompileRequest> Requests;
    for (const Key &K : Keys)
      Requests.push_back(K.Req);
    {
      // The fill is setup: it compiles on every core.
      CompileServiceOptions SO;
      SO.StoreDir = StoreDir;
      CompileService Filler(SO);
      BenchTrace::Span S("service.compile_batch");
      for (std::future<CompileResult> &F : Filler.compileBatch(Requests)) {
        CompileResult R = F.get();
        if (!R.ok())
          throw std::runtime_error("store fill failed: " + R.Error);
      }
    }
    CompileServiceOptions SO;
    SO.StoreDir = StoreDir;
    SO.NumThreads = ParallelWidth;
    SO.CacheBytes = CacheBytes;
    {
      BenchTrace::Span S("service.open");
      Svc = std::make_unique<CompileService>(SO);
    }

    // Zipf rank -> key: ranks go round-robin over the flavors so every
    // flavor gets the same popularity profile; the seed permutes the keys
    // inside each flavor.
    SeededRng Rng(Opts.Seed ^ 0x21bf);
    std::vector<std::vector<size_t>> ByFlavor(std::size(Flavors));
    for (size_t K = 0; K < Keys.size(); ++K)
      ByFlavor[K % std::size(Flavors)].push_back(K);
    for (std::vector<size_t> &V : ByFlavor)
      seededShuffle(V, Rng);
    for (size_t R = 0; R < Keys.size(); ++R)
      RankToKey.push_back(
          ByFlavor[R % ByFlavor.size()][R / ByFlavor.size()]);
    Zipf = std::make_unique<ZipfSampler>(Keys.size(), 1.0);
  }

  Measurements measure(double Seconds) override {
    Measurements M;
    for (const Key &K : Keys)
      for (bool Par : {true, false})
        M.Cases.push_back(CaseSamples{
            K.Req.Program.name() + " " + K.Family +
                (Par ? " " + std::to_string(ParallelWidth) + " clients"
                     : " 1 client"),
            K.Family, Par, {}});
    ServiceCounters Before = Svc->counters();
    MemoryHitUs = {};
    DiskHitMs = {};
    const size_t PerClient = Opts.Smoke ? 50 : 500;
    Clock::time_point T0 = Clock::now();
    for (int Round = 0; Round < 1 || msSince(T0) < Seconds * 1e3; ++Round) {
      for (int Clients : {ParallelWidth, 1}) {
        std::vector<size_t> Issued(Clients, 0);
        PhaseResult P = runClients(Clients, [&](int C) {
          if (Issued[C]++ == PerClient)
            return Keys.size();
          return RankToKey[Zipf->draw(Streams[Clients == 1 ? ParallelWidth
                                                           : C])];
        });
        record(M, P, Clients > 1);
      }
    }
    PhaseCounters = Svc->counters();
    PhaseCounters.Requests -= Before.Requests;
    PhaseCounters.MemoryHits -= Before.MemoryHits;
    PhaseCounters.DiskHits -= Before.DiskHits;
    PhaseCounters.InflightJoins -= Before.InflightJoins;
    PhaseCounters.Compiles -= Before.Compiles;
    PhaseCounters.CompileFailures -= Before.CompileFailures;
    PhaseCounters.Evictions -= Before.Evictions;
    if (PhaseCounters.Compiles != 0)
      M.Failures.push_back("the warm store served " +
                           std::to_string(PhaseCounters.Compiles) +
                           " compiles; expected none");
    return M;
  }

  /// Requests every key again after the timed phase (untimed) and checks
  /// the served artifact through its entry point.
  size_t verify(std::vector<std::string> &Failures) override {
    for (const Key &K : Keys) {
      std::string Name = K.Req.Program.name() + " " + K.Family;
      CompileResult R = Svc->compile(K.Req);
      if (!R.ok() || !R.Artifact) {
        Failures.push_back(Name + ": not served after the timed phase: " +
                           R.Error);
        continue;
      }
      std::string Diff = harness::runEntryDifferential(
          K.Req.Program, R.Artifact->entry(), Init, Name);
      if (!Diff.empty())
        Failures.push_back(Diff);
    }
    return Keys.size();
  }

  void layerMetrics(const Measurements &M, MetricValues &Out) override {
    double Pct = highestSupportedPercentile(M.Parallel.Seen);
    Out["service.tail_pct"] = Pct;
    Out["service.tail_ms"] = percentile(M.Parallel.Ms, Pct);
    Out["service.requests"] = static_cast<double>(M.Parallel.Seen);
    Out["service.compiles"] = static_cast<double>(PhaseCounters.Compiles);
    Out["service.compile_failures"] =
        static_cast<double>(PhaseCounters.CompileFailures);
    Out["service.memory_hit_us_p50"] = median(MemoryHitUs.Ms);
    Out["service.disk_hit_ms_p50"] = median(DiskHitMs.Ms);
    Out["service.evictions"] = static_cast<double>(PhaseCounters.Evictions);
    Out["service.hit_rate"] = PhaseCounters.hitRate();
    Out["service.disk_hits"] = static_cast<double>(PhaseCounters.DiskHits);
    Out["service.inflight_joins"] =
        static_cast<double>(PhaseCounters.InflightJoins);

    // Probe: the key hash every request starts with.
    for (int Rep = 0; Rep < 20; ++Rep)
      for (const Key &K : Keys) {
        BenchTrace::Span Sp("service.key_hash");
        (void)makeCompileKey(K.Req);
      }
  }

private:
  /// Issues one request and times it -- in CPU time too when \p TimeCpu --
  /// as a traced request when \p Traced. A failure's diagnostic goes to
  /// \p Errors.
  Sample request(size_t KeyIdx, bool Traced, bool TimeCpu,
                 std::vector<std::string> &Errors) {
    std::optional<BenchTrace::RequestScope> Scope;
    std::optional<BenchTrace::Span> Span;
    if (Traced)
      Scope.emplace(BenchTrace::newRequestId());
    Clock::time_point T0 = Clock::now();
    double Cpu0 = TimeCpu ? threadCpuMs() : 0;
    if (Traced)
      Span.emplace("service.request");
    CompileResult R = Svc->compile(Keys[KeyIdx].Req);
    Span.reset();
    Sample S;
    if (TimeCpu)
      S.CpuMs = static_cast<float>(threadCpuMs() - Cpu0);
    S.Ms = static_cast<float>(msSince(T0));
    S.Key = static_cast<uint32_t>(KeyIdx);
    S.How = R.ok() ? R.Stats.How : RequestOutcome::Failed;
    if (!R.ok())
      Errors.push_back(Keys[KeyIdx].Req.Program.name() + " " +
                       Keys[KeyIdx].Family + ": " + R.Error);
    return S;
  }

  /// \p Clients closed-loop clients; client C issues the keys NextKey(C)
  /// returns until it returns Keys.size(). One request in 64 is traced: a
  /// phase serves millions, and a trace of all of them would not fit in
  /// memory. A single client's requests are timed in CPU time too, with a
  /// reference pass before every ReferenceEvery-th.
  PhaseResult runClients(int Clients,
                         const std::function<size_t(int)> &NextKey) {
    std::vector<PhaseResult> PerClient(Clients);
    Clock::time_point T0 = Clock::now();
    auto Loop = [&](int C) {
      PhaseResult &P = PerClient[C];
      size_t N = 0;
      for (size_t K = NextKey(C); K < Keys.size(); K = NextKey(C), ++N) {
        if (Clients == 1 && N % ReferenceEvery == 0)
          P.ReferenceMs.push_back(referencePassMs());
        P.Samples.push_back(request(K, N % 64 == 0, Clients == 1, P.Errors));
      }
    };
    if (Clients == 1) {
      Loop(0);
    } else {
      std::vector<std::thread> Threads;
      for (int C = 0; C < Clients; ++C)
        Threads.emplace_back(Loop, C);
      for (std::thread &T : Threads)
        T.join();
    }
    PhaseResult Out;
    Out.WallMs = msSince(T0);
    for (PhaseResult &P : PerClient) {
      Out.Samples.insert(Out.Samples.end(), P.Samples.begin(),
                         P.Samples.end());
      Out.Errors.insert(Out.Errors.end(), P.Errors.begin(), P.Errors.end());
      Out.ReferenceMs.insert(Out.ReferenceMs.end(), P.ReferenceMs.begin(),
                             P.ReferenceMs.end());
    }
    return Out;
  }

  /// Files a phase's requests under their key's case at the given
  /// setting: every key is a case, as every (program, family) is in the
  /// replay workload, so a family's number is a geometric mean over its
  /// keys whatever their popularity. A serial case times a request's CPU
  /// time, a parallel one its latency.
  void record(Measurements &M, const PhaseResult &P, bool Parallel) {
    M.Attempted += P.Samples.size();
    M.Failures.insert(M.Failures.end(), P.Errors.begin(), P.Errors.end());
    for (double R : P.ReferenceMs)
      M.Reference.add(R);
    if (Parallel)
      M.ParallelWallMs += P.WallMs;
    for (const Sample &S : P.Samples) {
      if (S.How == RequestOutcome::Failed)
        continue;
      if (S.How == RequestOutcome::MemoryHit)
        MemoryHitUs.add(S.Ms * 1e3);
      else if (S.How == RequestOutcome::DiskHit)
        DiskHitMs.add(S.Ms);
      M.Cases[2 * S.Key + (Parallel ? 0 : 1)].add(Parallel ? S.Ms : S.CpuMs);
      if (Parallel)
        M.Parallel.add(S.Ms);
    }
  }

  RunOptions Opts;
  exec::Initializer Init;
  std::vector<Key> Keys;
  std::string StoreDir;
  std::unique_ptr<CompileService> Svc;
  std::vector<size_t> RankToKey;
  std::unique_ptr<ZipfSampler> Zipf;
  /// One request stream per client; the last is the single client's.
  std::vector<SeededRng> Streams;
  /// Latencies of memory hits and disk loads over the latest phase, and
  /// its service counters, for the per-layer metrics.
  CaseSamples MemoryHitUs, DiskHitMs;
  ServiceCounters PhaseCounters;
};

} // namespace

std::unique_ptr<Workload>
bench::makeServiceWarmWorkload(const RunOptions &Opts) {
  return std::make_unique<ServiceWorkload>(Opts);
}
