//===- bench_codegen_emit.cpp - Emit + JIT + run smoke bench --------------===//
//
// The codegen pipeline's perf trajectory seed: for every gallery stencil
// and every emitted flavor (hex / hybrid / classical / overlapped),
// measures
//
//   emit_ms      HostEmitter rendering time (text construction),
//   cuda_emit_ms CudaEmitter rendering time,
//   compile_ms   system-compiler JIT build of the emitted unit,
//   run_ms       the fastest of 25 calls of the emitted entry point, each
//                on buffers refilled (untimed) with the same values,
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
// serial-vs-parallel-vs-interpreted trajectory per commit. Every unit of
// the run is built and loaded first; the entries are then timed in
// alternating rounds (one call of every unit per round), so a slow
// stretch of the machine lands on every row instead of on the rows that
// happened to run during it. Each emitted entry point is
// differential-verified against the reference executor after the rounds,
// so the bench doubles as an end-to-end smoke of the oracle's fourth
// mechanism at one JIT build per unit.
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

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

using namespace hextile;
using namespace hextile::bench;

namespace {

/// Timing rounds over every emitted unit of the run: one call of each
/// unit per round, and a unit's run_ms is its fastest call.
constexpr int RunRounds = 25;

using EntryFn = void (*)(float **);

struct EmitCase {
  const char *Name;
  int64_t N;
  int64_t Steps;
  int64_t H;
  int64_t W0;
  std::vector<int64_t> Inner;
};

/// One program of the run: the emitted entries' call buffers and the
/// values every call starts from.
struct ProgramRun {
  ir::StencilProgram P;
  int64_t Instances = 0;
  exec::GridStorage Initial;
  exec::GridStorage Buffers;
  std::vector<float *> Ptrs;

  explicit ProgramRun(const ir::StencilProgram &Prog)
      : P(Prog), Initial(P, [](unsigned, std::span<const int64_t>) {
          return 0.25f;
        }),
        Buffers(P, {}) {
    for (unsigned F = 0; F < Buffers.numFields(); ++F)
      Ptrs.push_back(Buffers.field(F).data());
  }

  /// Restores the call buffers to the initial values (untimed).
  void refill() { Buffers.copyRows(Initial, 0, P.spaceSizes()[0]); }
};

/// One emitted row: what was emitted, its build, and its fastest call.
struct EmittedRow {
  size_t Prog = 0;
  char Level = 'a';
  codegen::EmitSchedule S = codegen::EmitSchedule::Hybrid;
  bool Parallel = false;
  /// A staged parallel unit runs one team; the others size theirs from
  /// the machine, so the two kinds may ask the shim for different pools.
  bool SingleTeam = false;
  int64_t HostBytes = 0, CudaBytes = 0, CadenceSteps = 0, Redundant = 0;
  double EmitMs = 0, CudaMs = 0, CompileMs = -1, RunMs = -1;
  std::unique_ptr<harness::JitUnit> Unit;
  EntryFn Entry = nullptr;
  bool Built = false; ///< False when the compile or the entry lookup failed.
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
  std::vector<std::unique_ptr<ProgramRun>> Programs;
  std::vector<EmittedRow> Rows;

  // Emit and build every unit of the run before any is timed.
  for (const EmitCase &Cs : Cases) {
    ir::StencilProgram P = ir::makeByName(Cs.Name);
    P.setSpaceSizes(std::vector<int64_t>(P.spaceRank(), Cs.N));
    P.setTimeSteps(Cs.Steps);
    Programs.push_back(std::make_unique<ProgramRun>(P));
    Programs.back()->Instances =
        core::IterationDomain::forProgram(P).numPoints();
    codegen::TileSizeRequest R;
    R.H = Cs.H;
    R.W0 = Cs.W0;
    R.InnerWidths = Cs.Inner;

    for (char Level : Configs) {
      for (codegen::EmitSchedule S :
           {codegen::EmitSchedule::Hex, codegen::EmitSchedule::Hybrid,
            codegen::EmitSchedule::Classical,
            codegen::EmitSchedule::Overlapped}) {
        for (bool Parallel : {false, true}) {
          EmittedRow Row;
          Row.Prog = Programs.size() - 1;
          Row.Level = Level;
          Row.S = S;
          Row.Parallel = Parallel;
          codegen::OptimizationConfig Config =
              codegen::OptimizationConfig::level(Level);
          if (Parallel)
            Config.ShimThreads = ShimThreads;
          codegen::CompiledHybrid C =
              codegen::compileHybrid(P, R, Config);
          codegen::EmissionPlan Plan = codegen::EmissionPlan::build(C, S);
          cadenceColumns(Plan, P, Row.CadenceSteps, Row.Redundant);
          Row.SingleTeam = Parallel && Plan.Staging.Enabled &&
                           S != codegen::EmitSchedule::Overlapped;
          auto T0 = std::chrono::steady_clock::now();
          std::string HostSrc = codegen::emitHost(C, S);
          Row.EmitMs = msSince(T0);
          T0 = std::chrono::steady_clock::now();
          std::string CudaSrc = codegen::emitCuda(C, S);
          Row.CudaMs = msSince(T0);
          Row.HostBytes = static_cast<int64_t>(HostSrc.size());
          Row.CudaBytes = static_cast<int64_t>(CudaSrc.size());

          if (Compiler) {
            Row.Unit = std::make_unique<harness::JitUnit>();
            T0 = std::chrono::steady_clock::now();
            std::string Err = Row.Unit->build(HostSrc);
            Row.CompileMs = msSince(T0);
            if (!Err.empty()) {
              std::fprintf(stderr, "compile failed: %s\n", Err.c_str());
              ++Failures;
            } else if (!(Row.Entry = reinterpret_cast<EntryFn>(
                             Row.Unit->symbol(codegen::hostEntryName(P))))) {
              std::fprintf(stderr, "entry point missing for %s\n",
                           Cs.Name);
              ++Failures;
            } else {
              Row.Built = true;
            }
          }
          Rows.push_back(std::move(Row));
        }
      }
    }
  }

  // Alternating rounds: one call of every built unit per round, each on
  // freshly refilled buffers. A parallel unit that asks the shim for the
  // other kind of pool than the previous parallel call gets one untimed
  // call first, so no timed call pays for re-shaping the pool.
  int PoolKind = -1;
  for (int Round = 0; Round < RunRounds; ++Round)
    for (EmittedRow &Row : Rows) {
      if (!Row.Built)
        continue;
      ProgramRun &PR = *Programs[Row.Prog];
      if (Row.Parallel && PoolKind != Row.SingleTeam) {
        PoolKind = Row.SingleTeam;
        PR.refill();
        Row.Entry(PR.Ptrs.data());
      }
      PR.refill();
      auto T0 = std::chrono::steady_clock::now();
      Row.Entry(PR.Ptrs.data());
      double Ms = msSince(T0);
      Row.RunMs = Round == 0 ? Ms : std::min(Row.RunMs, Ms);
    }

  // The full-size gate: did any parallel row beat its serial counterpart?
  bool AnyParallelWin = false;
  bool AnyParallelRow = false;
  double SerialM = -1;
  size_t Next = 0;
  for (size_t Prog = 0; Prog < Programs.size(); ++Prog) {
    const EmitCase &Cs = Cases[Prog];
    const ir::StencilProgram &P = Programs[Prog]->P;
    int64_t Instances = Programs[Prog]->Instances;
    for (; Next < Rows.size() && Rows[Next].Prog == Prog; ++Next) {
      EmittedRow &Row = Rows[Next];
      const char *Mode = Row.Parallel ? "emitted-parallel" : "emitted-serial";
      if (!Row.Parallel)
        SerialM = -1;
      double MPointsPerSec = -1;
      if (Compiler) {
        if (!Row.Built)
          continue;
        if (Row.RunMs > 0)
          MPointsPerSec =
              static_cast<double>(Instances) / (Row.RunMs / 1000.0) / 1e6;
        if (!Row.Parallel)
          SerialM = MPointsPerSec;
        else {
          AnyParallelRow = true;
          if (SerialM > 0 && MPointsPerSec > SerialM)
            AnyParallelWin = true;
        }
        // Untimed: differential verification of the entry just timed,
        // on freshly filled buffers (the parallel unit replays through
        // the shim's worker pool at the baked-in team size).
        std::string Diff = harness::runEntryDifferential(
            P, Row.Entry, exec::defaultInit,
            std::string("[emitted ") + codegen::emitScheduleName(Row.S) +
                "] program=" + Cs.Name + " " + Mode);
        if (!Diff.empty()) {
          Row.Unit->keepArtifacts();
          std::fprintf(stderr,
                       "verification failed: %s (emitted sources kept "
                       "in %s)\n",
                       Diff.c_str(), Row.Unit->workDir().c_str());
          ++Failures;
          continue;
        }
      }

      std::printf(
          "%-12s %-10s %-7c %-17s %9.2f %9.2f %9.2f %9.2f %10.2f\n",
          Cs.Name, codegen::emitScheduleName(Row.S), Row.Level, Mode,
          Row.EmitMs, Row.CudaMs, Row.CompileMs, Row.RunMs, MPointsPerSec);
      JsonRow J;
      J.str("program", Cs.Name)
          .str("flavor", codegen::emitScheduleName(Row.S))
          .str("config", std::string(1, Row.Level))
          .str("mode", Mode)
          .num("shim_threads",
               static_cast<int64_t>(Row.Parallel ? ShimThreads : 0))
          .num("n", Cs.N)
          .num("steps", Cs.Steps)
          .num("instances", Instances)
          .num("host_bytes", Row.HostBytes)
          .num("cuda_bytes", Row.CudaBytes)
          .num("emit_ms", Row.EmitMs)
          .num("cuda_emit_ms", Row.CudaMs)
          .num("compile_ms", Row.CompileMs)
          .num("run_ms", Row.RunMs)
          .num("mpoints_s", MPointsPerSec)
          .num("cadence_steps", Row.CadenceSteps)
          .num("redundant_instances", Row.Redundant);
      Report.add(J);
    }

    // The interpreted baseline, once per (program, flavor): the
    // devirtualized executor replaying the same schedule key the emitted
    // kernels render, serially over GridStorage. The memory-strategy
    // rung does not exist for the interpreter, so config is "-".
    core::IterationDomain Domain = core::IterationDomain::forProgram(P);
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
