//===- hextile_bench.cpp - The hextile benchmark driver -------------------===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
// One workload per process:
//
//   hextile_bench --workload <name> --seed <n> [--seconds <s>]
//                 [--trace <trace.json>] [--smoke] [--json <path>]
//                 [--work-dir <dir>]
//   hextile_bench --self-test
//   hextile_bench --list-metrics
//
// Workloads: replay, emitted, service-warm (see README.md). A run times the
// workload's setup several times (median), runs the closed-loop
// timed phase for --seconds, checks every case bit-exact against
// exec::runReference, and prints every metric as "name value unit".
// With --trace the timed phase runs twice, untraced then traced, and the
// run reports the per-layer metrics of the traced half plus the tracing
// overhead, and writes the spans as Chrome trace-event JSON. The exit code
// is non-zero when any operation or check failed.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "frontend/Parser.h"
#include "ir/StencilGallery.h"
#include "service/JitUnit.h"

#include <atomic>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <thread>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

using namespace hextile;
using namespace hextile::bench;

namespace {

double clockMs(clockid_t Clock) {
  timespec T{};
  if (clock_gettime(Clock, &T) != 0)
    return 0;
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

/// CPU time, in ms, of every child process the benchmark has waited for:
/// the JIT's compilers.
double childrenCpuMs() {
  rusage U{};
  getrusage(RUSAGE_CHILDREN, &U);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(U.ru_utime) + Ms(U.ru_stime);
}

/// CPU time, in ms, of the process's own threads, exited ones included.
double ownCpuMs() { return clockMs(CLOCK_PROCESS_CPUTIME_ID); }

} // namespace

double bench::threadCpuMs() { return clockMs(CLOCK_THREAD_CPUTIME_ID); }

namespace {

/// The reference pass's inputs, built once. Its grid and table (about 35
/// and 32 KB) stay in the core's caches, so the pass measures the core's
/// speed rather than the memory system's.
struct ReferenceInputs {
  static constexpr int Edge = 66;
  std::vector<float> A, B;
  std::vector<uint64_t> Table;

  ReferenceInputs() : A(Edge * Edge), B(Edge * Edge) {
    for (size_t I = 0; I < A.size(); ++I)
      A[I] = static_cast<float>(I % 7) * 0.25f;
    SeededRng R(42);
    for (int I = 0; I < 4096; ++I)
      Table.push_back(R.next());
    std::sort(Table.begin(), Table.end());
  }
};

volatile uint64_t ReferenceSink;

} // namespace

double bench::referencePassMs() {
  static ReferenceInputs In;
  constexpr int E = ReferenceInputs::Edge;
  double Cpu0 = threadCpuMs();
  // Four 5-point Jacobi sweeps: the floating-point loads and stores of a
  // stencil kernel.
  for (int Sweep = 0; Sweep < 4; ++Sweep) {
    for (int Y = 1; Y < E - 1; ++Y)
      for (int X = 1; X < E - 1; ++X)
        In.B[Y * E + X] =
            0.2f * (In.A[Y * E + X] + In.A[Y * E + X - 1] +
                    In.A[Y * E + X + 1] + In.A[(Y - 1) * E + X] +
                    In.A[(Y + 1) * E + X]);
    std::swap(In.A, In.B);
  }
  // 3000 binary searches: the branches and dependent loads of key
  // evaluation, hashing and lookups.
  SeededRng R(7);
  uint64_t Acc = 0;
  for (int I = 0; I < 3000; ++I) {
    uint64_t K = R.next();
    auto It = std::lower_bound(In.Table.begin(), In.Table.end(), K);
    Acc += It == In.Table.end() ? K % 13 : (*It ^ K) % 97;
  }
  ReferenceSink = Acc;
  return threadCpuMs() - Cpu0;
}

namespace {

/// The reference compile's unit: a fixed source shaped like an emitted host
/// unit -- the shim's standard headers, a thread team with a barrier, and
/// templated stencil sweeps -- which no change to hextile alters.
const char *const ReferenceUnit = R"(#include <atomic>
#include <condition_variable>
#include <math.h>
#include <mutex>
#include <stdio.h>
#include <stdlib.h>
#include <thread>
#include <vector>

namespace {

struct Barrier {
  std::mutex M;
  std::condition_variable Cv;
  int Count = 0, Waiting = 0, Generation = 0;
  void arrive() {
    std::unique_lock<std::mutex> L(M);
    int G = Generation;
    if (++Waiting == Count) {
      Waiting = 0;
      ++Generation;
      Cv.notify_all();
      return;
    }
    Cv.wait(L, [&] { return Generation != G; });
  }
};

template <int R>
void sweep(const float *In, float *Out, int N, int Lo, int Hi) {
  for (int Y = Lo < R ? R : Lo; Y < Hi && Y < N - R; ++Y)
    for (int X = R; X < N - R; ++X) {
      float S = 0;
      for (int D = -R; D <= R; ++D)
        S += In[(Y + D) * N + X] + In[Y * N + X + D];
      Out[Y * N + X] = S / (4 * R + 2);
    }
}

} // namespace

extern "C" void reference_entry(float **F, int N, int Steps, int Teams) {
  Barrier B;
  B.Count = Teams;
  std::atomic<long> Done{0};
  std::vector<std::thread> Team;
  for (int T = 0; T < Teams; ++T)
    Team.emplace_back([&, T] {
      int Lo = N * T / Teams, Hi = N * (T + 1) / Teams;
      for (int S = 0; S < Steps; ++S) {
        float *In = F[S % 2], *Out = F[(S + 1) % 2];
        switch (S % 3) {
        case 0: sweep<1>(In, Out, N, Lo, Hi); break;
        case 1: sweep<2>(In, Out, N, Lo, Hi); break;
        default: sweep<3>(In, Out, N, Lo, Hi); break;
        }
        B.arrive();
      }
      Done.fetch_add(1);
    });
  for (std::thread &T : Team)
    T.join();
  if (Done.load() != Teams)
    abort();
  printf("%f\n", sqrt(fabs(F[Steps % 2][N + 1])));
}
)";

/// The reference compile's median CPU time per compile on the baseline
/// host (baseline/machine.txt): setup_s counts the JIT's compiler time in
/// units of this.
constexpr double ReferenceCompileBaselineMs = 590;

std::string shellQuote(const std::string &S) {
  std::string Q = "'";
  for (char C : S)
    Q += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Q + "'";
}

/// Compiles ReferenceUnit with the JIT's compiler and flags, once per
/// hardware thread and all at once, as the compile service's pool compiles
/// a batch, and returns the mean CPU time of one compile in ms. The files
/// go to a directory under \p WorkDir. Throws when a compile fails.
double referenceCompileMs(const std::string &WorkDir) {
  namespace fs = std::filesystem;
  unsigned N = std::max(1u, std::thread::hardware_concurrency());
  fs::path Dir = fs::path(WorkDir) / "reference-compile";
  fs::create_directories(Dir);
  fs::path Src = Dir / "unit.cpp";
  std::ofstream(Src) << ReferenceUnit;
  std::atomic<bool> Failed{false};
  double Cpu0 = childrenCpuMs();
  std::vector<std::thread> Compilers;
  for (unsigned I = 0; I < N; ++I)
    Compilers.emplace_back([&, I] {
      fs::path Lib = Dir / ("unit" + std::to_string(I) + ".so");
      std::string Cmd = shellQuote(service::JitUnit::systemCompiler()) +
                        " -std=c++17 -O1 -fPIC -shared -pthread -o " +
                        shellQuote(Lib.string()) + " " +
                        shellQuote(Src.string()) + " > /dev/null 2>&1";
      if (std::system(Cmd.c_str()) != 0)
        Failed = true;
    });
  for (std::thread &T : Compilers)
    T.join();
  double Ms = (childrenCpuMs() - Cpu0) / N;
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  if (Failed)
    throw std::runtime_error("the reference compile failed");
  return Ms;
}

} // namespace

ir::StencilProgram bench::parseGalleryProgram(const std::string &Name,
                                              int64_t Size, int64_t Steps) {
  ir::StencilProgram P = ir::makeByName(Name);
  if (P.name().empty())
    throw std::runtime_error("unknown gallery program " + Name);
  P.setSpaceSizes(std::vector<int64_t>(P.spaceRank(), Size));
  P.setTimeSteps(Steps);
  std::string Source = P.str();
  frontend::ParseResult R;
  {
    BenchTrace::Span S("frontend.parse");
    R = frontend::parseStencilProgram(Source, Name);
  }
  if (!R.ok())
    throw std::runtime_error("cannot parse the printed " + Name + ": " +
                             R.Error);
  return R.Program;
}

namespace {

/// Span totals by span name (BenchTrace::fold).
using SpanFold = std::map<std::string, SpanTotals>;

/// The workloads a metric belongs to, one bit each.
enum WorkloadBits : unsigned {
  Replay = 1,
  Emitted = 2,
  Warm = 4,
  All = Replay | Emitted | Warm,
};

using Factory = std::unique_ptr<Workload> (*)(const RunOptions &);

struct WorkloadEntry {
  const char *Name;
  Factory Make;
  unsigned Bit;
};

const WorkloadEntry Workloads[] = {
    {"replay", makeReplayWorkload, Replay},
    {"emitted", makeEmittedWorkload, Emitted},
    {"service-warm", makeServiceWarmWorkload, Warm},
};

const WorkloadEntry *findWorkload(const std::string &Name) {
  for (const WorkloadEntry &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

struct MetricSpec {
  std::string Name;
  std::string Unit;
  bool EndToEnd;
  /// The workloads that exercise the metric's layer and report it; the
  /// others leave it out rather than report a 0 that measured nothing.
  unsigned Workloads;
};

/// Every metric the driver emits, in output order. BENCHMARK.json declares
/// the same lists (checked by the bench_declared_metrics test).
const std::vector<MetricSpec> &metricCatalog() {
  static const std::vector<MetricSpec> Catalog = [] {
    std::vector<MetricSpec> C;
    auto E2E = [&](std::string N, std::string U) {
      C.push_back({std::move(N), std::move(U), true, All});
    };
    auto Layer = [&](std::string N, std::string U, unsigned W) {
      C.push_back({std::move(N), std::move(U), false, W});
    };
    const std::vector<std::string> &Fams = familyNames();
    const std::vector<std::string> Keyed(Fams.begin(),
                                         Fams.begin() + NumKeyedFamilies);
    const std::vector<std::string> Flavors = {"hex", "hybrid", "classical",
                                              "overlapped"};
    auto PerFamily = [&](const std::vector<std::string> &Set,
                         const std::string &Stem, const std::string &U,
                         unsigned W) {
      for (const std::string &F : Set)
        Layer(Stem + "." + F, U, W);
    };

    E2E("setup_s", "s");
    for (const std::string &F : Flavors)
      E2E(F + "_ms", "ms");

    Layer("frontend.parse_us", "us", All);
    Layer("core.schedule_build_ms", "ms", Replay);
    PerFamily(Keyed, "core.key_eval_ns", "ns", Replay);
    PerFamily(Fams, "exec.mpts_s", "Mpts/s", Replay);
    Layer("exec.serial_mpts_s", "Mpts/s", Replay);
    Layer("exec.reference_mpts_s", "Mpts/s", Replay);
    PerFamily(Keyed, "exec.stream_s", "s", Replay);
    PerFamily(Keyed, "exec.key_evals_per_instance", "ratio", Replay);
    PerFamily(Fams, "exec.dispatch_s", "s", Replay);
    PerFamily(Fams, "exec.pool_tasks", "count", Replay);
    PerFamily(Keyed, "exec.wavefronts", "count", Replay);
    PerFamily(Keyed, "exec.max_wavefront", "count", Replay);
    Layer("exec.redundant_ratio", "ratio", Replay);
    PerFamily(Fams, "exec.halo_exchanges", "count", Replay);
    PerFamily(Fams, "exec.halo_bytes", "bytes", Replay);
    PerFamily(Fams, "exec.halo_copy_wall_s", "s", Replay);
    PerFamily(Fams, "exec.devsim_speedup", "x", Replay);
    Layer("exec.max_concurrent_devices", "count", Replay);
    PerFamily(Fams, "gpu.halo_link_s", "s", Replay);
    PerFamily(Fams, "gpu.predicted_halo_link_s", "s", Replay);
    Layer("gpu.prediction_gap_pct", "%", Replay);
    Layer("codegen.compile_hybrid_ms", "ms", Emitted);
    Layer("codegen.emit_host_ms", "ms", Emitted);
    Layer("codegen.host_bytes", "bytes", Emitted);
    PerFamily(Flavors, "codegen.launches", "count", Emitted);
    Layer("shim.run_ms", "ms", Emitted);
    PerFamily(Flavors, "shim.parallel_over_serial", "x", Emitted);
    PerFamily(Flavors, "shim.per_launch_us", "us", Emitted);
    Layer("service.jit_build_ms", "ms", Emitted);
    Layer("service.key_hash_us", "us", Warm);
    Layer("service.memory_hit_us_p50", "us", Warm);
    Layer("service.disk_hit_ms_p50", "ms", Warm);
    Layer("service.tail_ms", "ms", Warm);
    Layer("service.tail_pct", "%", Warm);
    Layer("service.requests", "count", Warm);
    Layer("service.evictions", "count", Warm);
    Layer("service.hit_rate", "ratio", Warm);
    Layer("service.compiles", "count", Emitted | Warm);
    Layer("service.disk_hits", "count", Warm);
    Layer("service.inflight_joins", "count", Warm);
    Layer("service.compile_failures", "count", Warm);
    Layer("bench.self_ms", "ms", All);
    Layer("frontend.self_ms", "ms", All);
    Layer("core.self_ms", "ms", Replay);
    Layer("exec.self_ms", "ms", Replay);
    Layer("gpu.self_ms", "ms", Replay);
    Layer("codegen.self_ms", "ms", Emitted);
    Layer("shim.self_ms", "ms", Emitted);
    Layer("service.self_ms", "ms", Emitted | Warm);
    Layer("bench.reference_ms", "ms", All);
    Layer("bench.ops_s", "1/s", All);
    Layer("bench.p90_ms", "ms", All);
    Layer("bench.peak_rss_mb", "MB", All);
    Layer("trace.overhead_pct", "%", All);
    return C;
  }();
  return Catalog;
}

/// Sets \p Metric to the mean duration of the spans named \p Span, scaled
/// from ms by \p Scale, when the run recorded any.
void meanSpan(const SpanFold &Fold, const char *Span, double Scale,
              const char *Metric, MetricValues &Out) {
  auto It = Fold.find(Span);
  if (It != Fold.end() && It->second.Count > 0)
    Out[Metric] = It->second.TotalMs / It->second.Count * Scale;
}

/// The process's peak resident set (VmHWM) in MB.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// The end-to-end metrics every workload shares, from an untraced phase:
/// per family, the geometric mean over its serial cases of each case's
/// time over the reference pass's, in units of the reference pass's time
/// on the baseline host.
void endToEnd(const Measurements &M, double SetupS, MetricValues &Out) {
  Out["setup_s"] = SetupS;
  double Scale = ReferencePassBaselineMs / M.Reference.typicalMs();
  std::map<std::string, std::vector<double>> Family;
  for (const CaseSamples &C : M.Cases)
    if (!C.Parallel && !C.Ms.empty())
      Family[C.Family].push_back(C.typicalMs() * Scale);
  for (const char *F : {"hex", "hybrid", "classical", "overlapped"})
    Out[std::string(F) + "_ms"] = geomean(Family[F]);
}

/// Geometric mean over serial cases of (traced / untraced time) - 1, in
/// percent, each time taken over its phase's reference pass as the
/// end-to-end metrics take it.
double traceOverheadPct(const Measurements &Untraced,
                        const Measurements &Traced) {
  std::vector<double> Ratios;
  for (size_t I = 0; I < Untraced.Cases.size() && I < Traced.Cases.size();
       ++I) {
    const CaseSamples &U = Untraced.Cases[I], &T = Traced.Cases[I];
    if (!U.Parallel && !U.Ms.empty() && !T.Ms.empty())
      Ratios.push_back((T.typicalMs() / Traced.Reference.typicalMs()) /
                       (U.typicalMs() / Untraced.Reference.typicalMs()));
  }
  return (geomean(Ratios) - 1) * 100;
}

int selfTest() {
  int Failures = 0;
  auto Check = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", What);
      ++Failures;
    }
  };
  // The percentile rule: the highest of p99/p90/p50 with >= 10 samples
  // beyond it.
  Check(highestSupportedPercentile(144) == 90, "144 samples support p90");
  Check(highestSupportedPercentile(20000) == 99, "20000 samples support p99");
  Check(highestSupportedPercentile(1000) == 99, "1000 samples support p99");
  Check(highestSupportedPercentile(999) == 90, "999 samples stop at p90");
  Check(highestSupportedPercentile(100) == 90, "100 samples support p90");
  Check(highestSupportedPercentile(99) == 50, "99 samples stop at p50");
  Check(highestSupportedPercentile(19) == 0, "19 samples support nothing");
  std::vector<double> Ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  Check(percentile(Ten, 90) == 9 && percentile(Ten, 50) == 5 &&
            percentile(Ten, 100) == 10 && percentile(Ten, 0) == 1,
        "nearest-rank percentiles");
  Check(median({3, 1, 2}) == 2, "odd median");
  // Geometric mean.
  Check(std::abs(geomean({1, 4, 16}) - 4) < 1e-12, "geomean(1,4,16) = 4");
  Check(std::abs(geomean({2, 8}) - 4) < 1e-12, "geomean(2,8) = 4");
  Check(geomean({}) == 0 && geomean({1, 0}) == 0,
        "geomean of nothing or of a zero is 0");
  // Seeded Zipf determinism.
  auto Sequence = [](uint64_t Seed) {
    ZipfSampler Z(96, 1.0);
    SeededRng R(Seed);
    std::vector<size_t> V;
    for (int I = 0; I < 1000; ++I)
      V.push_back(Z.draw(R));
    return V;
  };
  Check(Sequence(7) == Sequence(7), "same seed, same Zipf sequence");
  Check(Sequence(7) != Sequence(8), "different seed, different sequence");
  std::vector<size_t> Seq = Sequence(7);
  size_t Rank0 = std::count(Seq.begin(), Seq.end(), size_t(0));
  size_t Rank1 = std::count(Seq.begin(), Seq.end(), size_t(1));
  Check(Rank0 > Rank1 && Rank0 > 100, "Zipf favors the lowest ranks");
  // Tracer: self time is duration minus child coverage.
  BenchTrace::enable(true);
  {
    BenchTrace::Span Outer("bench.outer");
    BenchTrace::Span Inner("exec.inner");
  }
  BenchTrace::enable(false);
  {
    BenchTrace::Span Off("exec.off");
  }
  SpanFold Fold = BenchTrace::fold(BenchTrace::collect());
  Check(Fold.count("exec.off") == 0, "a span records nothing when off");
  Check(Fold["bench.outer"].Count == 1 && Fold["exec.inner"].Count == 1,
        "one record per span");
  Check(std::abs(Fold["bench.outer"].SelfMs -
                 (Fold["bench.outer"].TotalMs - Fold["exec.inner"].TotalMs)) <
            1e-9,
        "self time excludes the child");
  std::printf("self-test: %s\n", Failures ? "FAILED" : "ok");
  return Failures ? 1 : 0;
}

struct CliOptions {
  RunOptions Run;
  std::string TracePath;
  std::string JsonPath;
  bool SelfTest = false;
  bool ListMetrics = false;
};

[[noreturn]] void usage(const std::string &Error) {
  std::fprintf(stderr,
               "error: %s\nusage: hextile_bench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace <path>] [--smoke] [--json <path>] "
               "[--work-dir <dir>] | --self-test | --list-metrics\n",
               Error.c_str());
  std::exit(2);
}

CliOptions parseArgs(int argc, char **argv) {
  CliOptions O;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= argc)
        usage(A + " needs a value");
      return argv[++I];
    };
    if (A == "--workload")
      O.Run.Workload = Value();
    else if (A == "--seed") {
      std::string V = Value();
      char *End = nullptr;
      O.Run.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("--seed wants a non-negative integer, got '" + V + "'");
      HaveSeed = true;
    } else if (A == "--seconds") {
      std::string V = Value();
      char *End = nullptr;
      O.Run.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Run.Seconds > 0) || O.Run.Seconds > 600)
        usage("--seconds wants a number in (0, 600], got '" + V + "'");
    } else if (A == "--trace")
      O.TracePath = Value();
    else if (A == "--json")
      O.JsonPath = Value();
    else if (A == "--work-dir")
      O.Run.WorkDir = Value();
    else if (A == "--smoke")
      O.Run.Smoke = true;
    else if (A == "--self-test")
      O.SelfTest = true;
    else if (A == "--list-metrics")
      O.ListMetrics = true;
    else
      usage("unknown argument '" + A + "'");
  }
  if (O.SelfTest || O.ListMetrics)
    return O;
  if (!findWorkload(O.Run.Workload))
    usage("unknown workload '" + O.Run.Workload + "'");
  if (!HaveSeed)
    usage("--seed is required");
  if (O.Run.Smoke && O.Run.Seconds == RunOptions().Seconds)
    O.Run.Seconds = 0.5;
  return O;
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Cli = parseArgs(argc, argv);
  if (Cli.SelfTest)
    return selfTest();
  if (Cli.ListMetrics) {
    // "kind name unit workload,workload,..."
    for (const MetricSpec &M : metricCatalog()) {
      std::string Names;
      for (const WorkloadEntry &W : Workloads)
        if (M.Workloads & W.Bit)
          Names += (Names.empty() ? "" : ",") + std::string(W.Name);
      std::printf("%s %s %s %s\n", M.EndToEnd ? "end_to_end" : "per_layer",
                  M.Name.c_str(), M.Unit.c_str(), Names.c_str());
    }
    return 0;
  }

  RunOptions &Run = Cli.Run;
  bool Traced = !Cli.TracePath.empty();
  bool OwnWorkDir = Run.WorkDir.empty();
  if (OwnWorkDir)
    Run.WorkDir = (std::filesystem::temp_directory_path() /
                   ("hextile-bench-" + std::to_string(getpid())))
                      .string();
  std::filesystem::create_directories(Run.WorkDir);

  auto RemoveWorkDir = [&] {
    std::error_code Ec;
    if (OwnWorkDir)
      std::filesystem::remove_all(Run.WorkDir, Ec);
  };
  MetricValues Values;
  std::vector<std::string> Failures;
  size_t Attempted = 0;
  const WorkloadEntry &Entry = *findWorkload(Run.Workload);
  try {
    Factory Make = Entry.Make;

    // Setup is timed on fresh objects: at least three times (once under
    // --smoke), and a set-up that takes milliseconds repeats until it has
    // used a second of CPU. A set-up's time is CPU time in two parts, each
    // taken relative to a reference run next to it and scaled to the
    // baseline host, as the family metrics are: the process's own threads
    // over the reference pass just before, and the JIT's compilers over a
    // reference compile just after. The compilers' CPU time drifts by up to
    // a third over an hour on the baseline host, the reference compile's
    // with it. A traced run traces every repetition.
    std::vector<double> SetupMs;
    std::unique_ptr<Workload> W;
    const size_t MinSetups = Run.Smoke ? 1 : 3;
    double SetupCpuMs = 0;
    BenchTrace::enable(Traced);
    while (SetupMs.size() < MinSetups ||
           (!Run.Smoke && SetupCpuMs < 1000 && SetupMs.size() < 1000)) {
      W.reset();
      W = Make(Run);
      double RefMs = median({referencePassMs(), referencePassMs(),
                             referencePassMs(), referencePassMs(),
                             referencePassMs()});
      double Own0 = ownCpuMs(), Children0 = childrenCpuMs();
      {
        BenchTrace::Span S("bench.setup");
        W->setup();
      }
      double OwnMs = ownCpuMs() - Own0;
      double ChildrenMs = childrenCpuMs() - Children0;
      double Ms = OwnMs * ReferencePassBaselineMs / RefMs;
      if (ChildrenMs > 0)
        Ms += ChildrenMs * ReferenceCompileBaselineMs /
              referenceCompileMs(Run.WorkDir);
      SetupMs.push_back(Ms);
      SetupCpuMs += OwnMs + ChildrenMs;
    }
    BenchTrace::enable(false);

    Measurements M = W->measure(Traced ? Run.Seconds / 2 : Run.Seconds);
    Attempted += M.Attempted;
    Failures.insert(Failures.end(), M.Failures.begin(), M.Failures.end());

    if (Traced) {
      BenchTrace::enable(true);
      Measurements T;
      {
        BenchTrace::Span S("bench.measure");
        T = W->measure(Run.Seconds / 2);
      }
      Attempted += T.Attempted;
      Failures.insert(Failures.end(), T.Failures.begin(), T.Failures.end());
      W->layerMetrics(T, Values);
      BenchTrace::enable(false);

      std::vector<SpanRecord> Spans = BenchTrace::collect();
      SpanFold Fold = BenchTrace::fold(Spans);
      meanSpan(Fold, "frontend.parse", 1e3, "frontend.parse_us", Values);
      meanSpan(Fold, "core.schedule_build", 1, "core.schedule_build_ms",
               Values);
      meanSpan(Fold, "codegen.compile_hybrid", 1, "codegen.compile_hybrid_ms",
               Values);
      meanSpan(Fold, "codegen.emit_host", 1, "codegen.emit_host_ms", Values);
      meanSpan(Fold, "service.key_hash", 1e3, "service.key_hash_us", Values);
      for (const auto &[Name, Totals] : Fold)
        Values[Name.substr(0, Name.find('.')) + ".self_ms"] += Totals.SelfMs;
      Values["trace.overhead_pct"] = traceOverheadPct(M, T);
      Values["bench.reference_ms"] = T.Reference.typicalMs();
      Values["bench.ops_s"] =
          T.ParallelWallMs > 0
              ? static_cast<double>(T.Parallel.Seen) / (T.ParallelWallMs / 1e3)
              : 0;
      Values["bench.p90_ms"] = percentile(T.Parallel.Ms, 90);
      if (!BenchTrace::writeChromeTrace(Cli.TracePath, Spans))
        Failures.push_back("trace export failed");
    }

    endToEnd(M, median(SetupMs) / 1e3, Values);
    Attempted += W->verify(Failures);
    W.reset();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s workload: %s\n", Run.Workload.c_str(),
                 E.what());
    RemoveWorkDir();
    return 1;
  }
  RemoveWorkDir();
  if (Traced)
    Values["bench.peak_rss_mb"] = peakRssMb();
  size_t Failed = Failures.size();

  // The run prints exactly the catalog metrics of its workload and mode: a
  // metric the catalog gives the workload but the run did not measure is a
  // bug, and so is a value the catalog does not give it.
  JsonReport Report("hextile_bench");
  Report.config()
      .str("workload", Run.Workload)
      .num("seed", static_cast<int64_t>(Run.Seed))
      .num("seconds", Run.Seconds)
      .num("smoke", static_cast<int64_t>(Run.Smoke))
      .num("traced", static_cast<int64_t>(Traced));
  std::set<std::string> Printed;
  for (const MetricSpec &Spec : metricCatalog()) {
    if (!(Spec.Workloads & Entry.Bit) || (!Spec.EndToEnd && !Traced))
      continue;
    auto It = Values.find(Spec.Name);
    if (It == Values.end()) {
      std::fprintf(stderr, "error: %s did not measure %s\n",
                   Run.Workload.c_str(), Spec.Name.c_str());
      return 1;
    }
    Printed.insert(Spec.Name);
    std::printf("%s %.10g %s\n", Spec.Name.c_str(), It->second,
                Spec.Unit.c_str());
    JsonRow Row;
    Row.str("metric", Spec.Name)
        .num("value", It->second)
        .str("unit", Spec.Unit)
        .str("kind", Spec.EndToEnd ? "end_to_end" : "per_layer");
    Report.add(Row);
  }
  for (const auto &[Name, V] : Values)
    if (!Printed.count(Name)) {
      std::fprintf(stderr, "error: %s is not a %s metric of %s\n",
                   Name.c_str(), Traced ? "catalog" : "end-to-end",
                   Run.Workload.c_str());
      return 1;
    }
  for (const std::string &F : Failures)
    std::fprintf(stderr, "FAILED: %s\n", F.c_str());
  bool Correct = Failed == 0;
  JsonRow Summary;
  Summary.str("summary", "run")
      .num("attempted", static_cast<int64_t>(Attempted))
      .num("failed", static_cast<int64_t>(Failed))
      .num("correct", static_cast<int64_t>(Correct));
  Report.add(Summary);
  std::printf("attempted %zu failed %zu correct %s\n", Attempted, Failed,
              Correct ? "true" : "false");
  if (!Cli.JsonPath.empty() && !Report.writeTo(Cli.JsonPath.c_str()))
    return 1;
  return Correct ? 0 : 1;
}
