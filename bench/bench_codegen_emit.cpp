//===- bench_codegen_emit.cpp - Emit + JIT + run smoke bench --------------===//
//
// The codegen pipeline's perf trajectory seed: for every gallery stencil
// and every emitted flavor (hex / hybrid / classical / overlapped),
// measures
//
//   emit_ms      HostEmitter rendering time (text construction),
//   cuda_emit_ms CudaEmitter rendering time,
//   compile_ms   system-compiler JIT build of the emitted unit,
//   run_ms       one execution of the emitted entry point,
//   mpoints_s    statement instances per second through the emitted code,
//
// across the Sec. 4.2 memory-strategy ladder: --config <letters> selects
// the OptimizationConfig rungs ('a' global-direct, 'b' staged + separate
// copy-out, 'c' + interleaved copy-out, 'd' + aligned loads); the default
// sweeps abcd ("acd" in --smoke), so BENCH_codegen.json records the
// ladder's cost/benefit per commit in its "config" column.
//
// Every emitted configuration is measured twice -- the serial shim
// (mode=emitted-serial) and the parallel shim (mode=emitted-parallel,
// HT_LAUNCH_1D dispatching blocks across worker teams of --shim-threads
// threads, default 4) -- and each (program, flavor) additionally gets an
// interpreted row (mode=interpreted): the devirtualized executor
// replaying the same schedule key, so the json tracks the
// serial-vs-parallel-vs-interpreted trajectory per commit. Each emitted
// run's entry point is differential-verified against the reference
// executor after it is timed, so the bench doubles as an end-to-end smoke
// of the oracle's fourth mechanism at one JIT build per unit.
// Overlapped rows additionally record the redundancy-vs-traffic frontier
// (cadence_steps: ticks per band; redundant_instances: the analytic
// interior recomputation the banded cadence pays); the interpreted
// baseline has no overlapped row because the family has no schedule key.
//
// On a multi-core full-size run the bench *fails itself* unless at least
// one parallel row beats its serial counterpart; on a single-core box
// the gate is vacuous (a note is printed) because parallel dispatch
// cannot beat serial with one hardware thread. Machines without a system
// compiler emit-only (compile_ms/run_ms = -1) and still exit 0: the
// bench degrades, it does not fail.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "codegen/CudaEmitter.h"
#include "codegen/EmissionCore.h"
#include "codegen/HostEmitter.h"
#include "core/IterationDomain.h"
#include "exec/Executor.h"
#include "harness/HostKernelRunner.h"
#include "harness/StencilOracle.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace hextile;
using namespace hextile::bench;

namespace {

struct EmitCase {
  const char *Name;
  int64_t N;
  int64_t Steps;
  int64_t H;
  int64_t W0;
  std::vector<int64_t> Inner;
};

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// Ladder rungs given with --config <letters 'a'..'f'>; \p Fallback when
/// the flag is absent. Unknown letters abort loudly.
std::string configsArg(int argc, char **argv, const char *Fallback) {
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) != "--config")
      continue;
    if (I + 1 >= argc) {
      std::fprintf(stderr,
                   "error: --config needs a rung-letter argument "
                   "(e.g. --config abcd)\n");
      std::exit(2);
    }
    std::string Levels = argv[I + 1];
    if (Levels.empty()) {
      std::fprintf(stderr,
                   "error: --config got an empty rung list; nothing "
                   "would be benched\n");
      std::exit(2);
    }
    for (char L : Levels)
      if (L < 'a' || L > 'f') {
        std::fprintf(stderr, "error: unknown ladder rung '%c'\n", L);
        std::exit(2);
      }
    return Levels;
  }
  return Fallback;
}

/// Parallel-shim team size given with --shim-threads <n>; default 4.
int shimThreadsArg(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) != "--shim-threads")
      continue;
    if (I + 1 >= argc) {
      std::fprintf(stderr,
                   "error: --shim-threads needs a thread count\n");
      std::exit(2);
    }
    int N = std::atoi(argv[I + 1]);
    if (N < 1 || N > 256) {
      std::fprintf(stderr,
                   "error: --shim-threads wants 1..256, got '%s'\n",
                   argv[I + 1]);
      std::exit(2);
    }
    return N;
  }
  return 4;
}

harness::ScheduleKind kindOf(codegen::EmitSchedule S) {
  switch (S) {
  case codegen::EmitSchedule::Hex:
    return harness::ScheduleKind::Hex;
  case codegen::EmitSchedule::Hybrid:
    return harness::ScheduleKind::Hybrid;
  case codegen::EmitSchedule::Overlapped:
    return harness::ScheduleKind::Overlapped;
  default:
    return harness::ScheduleKind::Classical;
  }
}

/// The banded-cadence frontier columns of an overlapped rendering: ticks
/// per band, and the analytic interior recomputation (margin cell-ticks
/// beyond every tile's core, per band, times tiles x bands x inner
/// points). Zero for the barrier-synchronized flavors.
void cadenceColumns(const codegen::EmissionPlan &Plan,
                    const ir::StencilProgram &P, int64_t &CadenceSteps,
                    int64_t &Redundant) {
  CadenceSteps = 0;
  Redundant = 0;
  if (Plan.Schedule != codegen::EmitSchedule::Overlapped)
    return;
  CadenceSteps = Plan.Over.BandSteps;
  int64_t MarginTicks = 0;
  for (size_t V = 0; V < Plan.Over.MLo.size(); ++V)
    MarginTicks += Plan.Over.MLo[V] + Plan.Over.MHi[V];
  int64_t InnerPoints = 1;
  for (size_t D = 1; D < P.spaceSizes().size(); ++D)
    InnerPoints *= P.spaceSizes()[D];
  Redundant =
      MarginTicks * Plan.Over.NumTiles * Plan.Over.NumBands * InnerPoints;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = smokeMode(argc, argv);
  const char *JsonPath = jsonPathArg(argc, argv);
  std::string Configs = configsArg(argc, argv, Smoke ? "acd" : "abcd");
  int ShimThreads = shimThreadsArg(argc, argv);
  unsigned Cores = std::thread::hardware_concurrency();

  std::vector<EmitCase> Cases = {
      {"jacobi1d", 512, 64, 3, 4, {}},
      {"jacobi2d", 96, 24, 2, 3, {8}},
      {"heat2d", 96, 24, 2, 3, {8}},
      {"fdtd2d", 64, 12, 2, 3, {6}},
      {"laplacian3d", 32, 8, 1, 2, {4, 8}},
      {"heat3d", 24, 6, 2, 2, {4, 6}},
  };
  if (Smoke) {
    Cases.resize(2);
    Cases[0].N = 64;
    Cases[0].Steps = 12;
    Cases[1].N = 24;
    Cases[1].Steps = 6;
  }

  bool Compiler = harness::JitUnit::available();
  JsonReport Report("codegen_emit");
  Report.config()
      .str("compiler",
           Compiler ? harness::JitUnit::systemCompiler() : "none")
      .str("configs", Configs)
      .num("shim_threads", static_cast<int64_t>(ShimThreads))
      .num("cores", static_cast<int64_t>(Cores))
      .num("smoke", static_cast<int64_t>(Smoke));

  std::printf("%-12s %-10s %-7s %-17s %9s %9s %9s %9s %10s\n", "program",
              "flavor", "config", "mode", "emit_ms", "cuda_ms", "compile",
              "run_ms", "mpoints/s");
  int Failures = 0;
  // The full-size gate: did any parallel row beat its serial counterpart?
  bool AnyParallelWin = false;
  bool AnyParallelRow = false;
  for (const EmitCase &Cs : Cases) {
    ir::StencilProgram P = ir::makeByName(Cs.Name);
    P.setSpaceSizes(std::vector<int64_t>(P.spaceRank(), Cs.N));
    P.setTimeSteps(Cs.Steps);
    codegen::TileSizeRequest R;
    R.H = Cs.H;
    R.W0 = Cs.W0;
    R.InnerWidths = Cs.Inner;
    core::IterationDomain Domain = core::IterationDomain::forProgram(P);
    int64_t Instances = Domain.numPoints();

    for (char Level : Configs) {
      for (codegen::EmitSchedule S :
           {codegen::EmitSchedule::Hex, codegen::EmitSchedule::Hybrid,
            codegen::EmitSchedule::Classical,
            codegen::EmitSchedule::Overlapped}) {
        double SerialM = -1;
        for (const char *Mode : {"emitted-serial", "emitted-parallel"}) {
          bool Parallel = Mode[8] == 'p';
          codegen::OptimizationConfig Config =
              codegen::OptimizationConfig::level(Level);
          if (Parallel)
            Config.ShimThreads = ShimThreads;
          codegen::CompiledHybrid C =
              codegen::compileHybrid(P, R, Config);
          int64_t CadenceSteps = 0, Redundant = 0;
          cadenceColumns(codegen::EmissionPlan::build(C, S), P,
                         CadenceSteps, Redundant);
          auto T0 = std::chrono::steady_clock::now();
          std::string HostSrc = codegen::emitHost(C, S);
          double EmitMs = msSince(T0);
          T0 = std::chrono::steady_clock::now();
          std::string CudaSrc = codegen::emitCuda(C, S);
          double CudaMs = msSince(T0);

          double CompileMs = -1, RunMs = -1, MPointsPerSec = -1;
          if (Compiler) {
            // One timed build; its entry point is timed below, then
            // verified.
            harness::JitUnit Unit;
            T0 = std::chrono::steady_clock::now();
            std::string Err = Unit.build(HostSrc);
            CompileMs = msSince(T0);
            if (!Err.empty()) {
              std::fprintf(stderr, "compile failed: %s\n", Err.c_str());
              ++Failures;
              continue;
            }
            using EntryFn = void (*)(float **);
            auto Entry = reinterpret_cast<EntryFn>(
                Unit.symbol(codegen::hostEntryName(P)));
            if (!Entry) {
              std::fprintf(stderr, "entry point missing for %s\n",
                           Cs.Name);
              ++Failures;
              continue;
            }
            // Time one bare execution over GridStorage buffers.
            exec::GridStorage Buffers(
                P, [](unsigned, std::span<const int64_t>) { return 0.25f; });
            std::vector<float *> Ptrs;
            for (unsigned F = 0; F < Buffers.numFields(); ++F)
              Ptrs.push_back(Buffers.field(F).data());
            T0 = std::chrono::steady_clock::now();
            Entry(Ptrs.data());
            RunMs = msSince(T0);
            if (RunMs > 0)
              MPointsPerSec =
                  static_cast<double>(Instances) / (RunMs / 1000.0) / 1e6;
            if (!Parallel)
              SerialM = MPointsPerSec;
            else {
              AnyParallelRow = true;
              if (SerialM > 0 && MPointsPerSec > SerialM)
                AnyParallelWin = true;
            }
            // Untimed: differential verification of the entry just timed
            // (the parallel unit replays through its worker pool at the
            // baked-in team size).
            std::string Diff = harness::runEntryDifferential(
                P, Entry, exec::defaultInit,
                std::string("[emitted ") + codegen::emitScheduleName(S) +
                    "] program=" + Cs.Name + " " + Mode);
            if (!Diff.empty()) {
              Unit.keepArtifacts();
              std::fprintf(stderr,
                           "verification failed: %s (emitted sources kept "
                           "in %s)\n",
                           Diff.c_str(), Unit.workDir().c_str());
              ++Failures;
              continue;
            }
          }

          std::printf(
              "%-12s %-10s %-7c %-17s %9.2f %9.2f %9.2f %9.2f %10.2f\n",
              Cs.Name, codegen::emitScheduleName(S), Level, Mode, EmitMs,
              CudaMs, CompileMs, RunMs, MPointsPerSec);
          JsonRow Row;
          Row.str("program", Cs.Name)
              .str("flavor", codegen::emitScheduleName(S))
              .str("config", std::string(1, Level))
              .str("mode", Mode)
              .num("shim_threads", static_cast<int64_t>(Parallel ? ShimThreads : 0))
              .num("n", Cs.N)
              .num("steps", Cs.Steps)
              .num("instances", Instances)
              .num("host_bytes", static_cast<int64_t>(HostSrc.size()))
              .num("cuda_bytes", static_cast<int64_t>(CudaSrc.size()))
              .num("emit_ms", EmitMs)
              .num("cuda_emit_ms", CudaMs)
              .num("compile_ms", CompileMs)
              .num("run_ms", RunMs)
              .num("mpoints_s", MPointsPerSec)
              .num("cadence_steps", CadenceSteps)
              .num("redundant_instances", Redundant);
          Report.add(Row);
        }
      }
    }

    // The interpreted baseline, once per (program, flavor): the
    // devirtualized executor replaying the same schedule key the emitted
    // kernels render, serially over GridStorage. The memory-strategy
    // rung does not exist for the interpreter, so config is "-".
    for (codegen::EmitSchedule S :
         {codegen::EmitSchedule::Hex, codegen::EmitSchedule::Hybrid,
          codegen::EmitSchedule::Classical}) {
      harness::OracleTiling OT;
      OT.H = Cs.H;
      OT.W0 = Cs.W0;
      OT.InnerWidths = Cs.Inner;
      harness::OracleSchedule OS =
          harness::makeOracleSchedule(P, kindOf(S), OT);
      if (!OS.Key)
        continue;
      exec::ScheduleRunOptions RunOpts;
      std::unique_ptr<exec::FieldStorage> Storage =
          exec::makeStorage(P, RunOpts);
      auto T0 = std::chrono::steady_clock::now();
      exec::runSchedule(P, *Storage, Domain, OS.Key, RunOpts);
      double RunMs = msSince(T0);
      double MPointsPerSec =
          RunMs > 0
              ? static_cast<double>(Instances) / (RunMs / 1000.0) / 1e6
              : -1;
      std::printf(
          "%-12s %-10s %-7c %-17s %9.2f %9.2f %9.2f %9.2f %10.2f\n",
          Cs.Name, codegen::emitScheduleName(S), '-', "interpreted", -1.0,
          -1.0, -1.0, RunMs, MPointsPerSec);
      JsonRow Row;
      Row.str("program", Cs.Name)
          .str("flavor", codegen::emitScheduleName(S))
          .str("config", "-")
          .str("mode", "interpreted")
          .num("shim_threads", static_cast<int64_t>(0))
          .num("n", Cs.N)
          .num("steps", Cs.Steps)
          .num("instances", Instances)
          .num("host_bytes", static_cast<int64_t>(-1))
          .num("cuda_bytes", static_cast<int64_t>(-1))
          .num("emit_ms", -1.0)
          .num("cuda_emit_ms", -1.0)
          .num("compile_ms", -1.0)
          .num("run_ms", RunMs)
          .num("mpoints_s", MPointsPerSec)
          .num("cadence_steps", static_cast<int64_t>(0))
          .num("redundant_instances", static_cast<int64_t>(0));
      Report.add(Row);
    }
  }

  // The acceptance gate: on a full-size multi-core run, parallel dispatch
  // must pay for its barriers somewhere.
  if (!Smoke && Compiler && AnyParallelRow) {
    if (Cores < 2)
      std::printf("note: single hardware thread; the parallel>serial "
                  "gate is vacuous here\n");
    else if (!AnyParallelWin) {
      std::fprintf(stderr,
                   "FAIL: no emitted-parallel row beat its serial "
                   "counterpart on a %u-core machine\n",
                   Cores);
      ++Failures;
    }
  }

  if (!Report.writeTo(JsonPath))
    return 1;
  if (!Compiler)
    std::printf("note: no system compiler found; emit-only timings\n");
  return Failures != 0;
}
