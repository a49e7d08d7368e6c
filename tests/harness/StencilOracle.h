//===- StencilOracle.h - Differential-testing oracle -----------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A differential-testing oracle for tiled schedules: any StencilProgram is
/// run through the naive row-major (time-major) reference executor and
/// through a schedule-driven replay of the same instances, and the final
/// fields must agree bit-exactly. The schedule keys are built directly from
/// the schedule constructions under test:
///
///   Hex        HexSchedule::locate on (t, s0); inner dimensions and the
///              hexagonal S0 run as parallel blocks/threads.
///   Hybrid     HybridSchedule::map, the paper's full Sec. 3.6 composition.
///   Classical  ClassicalTiling on *every* spatial dimension inside
///              time bands of height 2h+2 (the Sec. 3.4 scheme alone).
///   Diamond    DiamondTiling wavefronts on (t, s0) (Bandishti et al.),
///              legal only for cone slopes <= 1.
///   Overlapped core::OverlappedSchedule -- the fifth family. It *recomputes*
///              halo cells redundantly, so one statement instance executes in
///              several tiles and no lexicographic schedule key exists; the
///              oracle replays it through exec::runOverlapped (flat, pool,
///              or DeviceSim banded cadence) instead of runSchedule.
///
/// Each differential run randomizes the initial values (including the
/// never-updated boundary cells) from a caller-provided seed, serializes the
/// parallel block dimension in several pseudo-random orders, and shuffles
/// equal-key (thread-parallel) instances, so an illegal schedule cannot hide
/// behind one lucky interleaving. Runs replay through a pluggable
/// ExecutionBackend (OracleOptions::Backend): serial, or a thread pool that
/// turns the parallelism claim into real concurrency.
/// Diagnostics embed the seed and tiling so failures reproduce from the
/// test log alone.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_TESTS_HARNESS_STENCILORACLE_H
#define HEXTILE_TESTS_HARNESS_STENCILORACLE_H

#include "codegen/HybridCompiler.h"
#include "codegen/OptimizationConfig.h"
#include "exec/Executor.h"
#include "ir/StencilProgram.h"

#include <string>
#include <vector>

namespace hextile {
namespace harness {

/// The schedule families the oracle can replay.
enum class ScheduleKind { Hex, Hybrid, Classical, Diamond, Overlapped };

const char *scheduleKindName(ScheduleKind K);

/// All five kinds, in declaration order.
std::vector<ScheduleKind> allScheduleKinds();

/// Tile parameters for one differential run. Invalid hexagon widths are
/// legalized (W0 raised to the eq. (1) minimum) rather than rejected so
/// randomized sweeps can draw parameters freely.
struct OracleTiling {
  int64_t H = 1;    ///< Hexagon height; classical time bands use 2h+2.
  int64_t W0 = 2;   ///< Hexagon peak width (pre-legalization).
  /// Classical widths for s1..sn (hybrid/classical). Extended with the last
  /// entry (or 4) when shorter than rank-1; ignored entries are harmless.
  std::vector<int64_t> InnerWidths;
  int64_t DiamondPeriod = 4; ///< Diamond lattice period P.

  std::string str() const;
};

/// Options for one differential run.
struct OracleOptions {
  /// Master seed: drives the randomized initial values, the pseudo-random
  /// serialization of parallel blocks and the thread shuffles. Logged in
  /// every diagnostic.
  uint64_t Seed = 0x9e3779b97f4a7c15ull;
  /// Number of distinct block serializations / thread shuffles to replay.
  int NumShuffles = 2;
  /// Execution backend replaying the tiled schedule. Serial reproduces the
  /// seed behavior; ThreadPool runs each wavefront's parallel instances on
  /// real threads, so an illegal tiling surfaces as a genuine data race
  /// (nondeterministic mismatch, or a deterministic TSan report); DeviceSim
  /// partitions the grid over NumDevices simulated devices with explicit
  /// halo exchange, so a schedule whose communication claim is wrong reads
  /// stale halo data and diverges.
  exec::BackendKind Backend = exec::BackendKind::Serial;
  /// Thread count for BackendKind::ThreadPool (0 = hardware concurrency,
  /// negative rejected).
  int NumThreads = 0;
  /// Simulated device count for BackendKind::DeviceSim.
  unsigned NumDevices = 2;
  /// Batching floor forwarded to the parallel backends. The oracle default
  /// is 1 -- parallelize *every* wavefront -- because its grids are small
  /// and a production-sized floor would quietly turn the concurrency
  /// columns back into serial replays.
  size_t MinTaskInstances = 1;
  /// Fourth mechanism: additionally render the schedule with HostEmitter,
  /// JIT-compile the emitted C++ (tests/harness/HostKernelRunner), execute
  /// it and compare bit-exactly against the reference. Covers kinds
  /// Hex/Hybrid/Classical/Overlapped (Diamond has no emitter); machines
  /// without a system compiler skip it cleanly (see
  /// emittedMechanismAvailable).
  bool RunEmitted = false;
  /// Memory-strategy rung (Sec. 4.2 ladder) the RunEmitted mechanism
  /// compiles with: shared-memory staging, copy-out style and load
  /// alignment all change the emitted code shape, so sweeping this field
  /// differential-tests every rung of the ladder. The default is the full
  /// default configuration (staged + interleaved + aligned).
  codegen::OptimizationConfig EmitConfig;
  /// Shim-thread axis of the RunEmitted mechanism: -1 keeps whatever
  /// EmitConfig.ShimThreads says; >= 0 overrides it, so sweeps can cross
  /// the memory-strategy ladder with the execution model (0 = serial
  /// shim, N > 0 = parallel shim with N-thread teams; see
  /// OptimizationConfig::ShimThreads). Named in every diagnostic via the
  /// config string.
  int ShimThreads = -1;
};

/// True when the RunEmitted mechanism can actually run here (a system C++
/// compiler was found). Tests should skip -- not silently pass -- when
/// this is false.
bool emittedMechanismAvailable();

/// The oracle's deterministic seeded initializer: well-conditioned values
/// in [-1, 1), distinct per (seed, field, coords) -- boundary cells
/// included. Exposed so direct emitted-unit sweeps seed their buffers the
/// same way the oracle mechanisms do.
exec::Initializer seededInit(uint64_t Seed);

/// Compiles \p P for the oracle's tiling exactly as the RunEmitted
/// mechanism does -- same legalization, same inner-width extension -- so
/// tests that drive the emitted unit directly (e.g. the parallel
/// shim-thread sweep, which builds one unit per ladder rung and replays
/// it at several thread counts) replay the identical tiling the oracle
/// diagnostics would name.
codegen::CompiledHybrid
compileOracleHybrid(const ir::StencilProgram &P, const OracleTiling &T,
                    const codegen::OptimizationConfig &Config);

/// A schedule key plus the index of its first thread-parallel component.
struct OracleSchedule {
  exec::ScheduleKeyIntoFn Key;
  int ParallelFrom = -1;
  /// Non-empty when the kind cannot legally tile this program (e.g. diamond
  /// with cone slopes > 1); Key is null in that case.
  std::string Skipped;
};

/// Builds the schedule key of kind \p K for \p P with tiling \p T.
/// \p BlockPermSeed != 0 replaces the parallel block index by a seeded hash,
/// replaying the blocks in a pseudo-random serialization.
OracleSchedule makeOracleSchedule(const ir::StencilProgram &P, ScheduleKind K,
                                  const OracleTiling &T,
                                  uint64_t BlockPermSeed = 0);

/// Runs \p P through the naive row-major executor and through schedule kind
/// \p K, over randomized initial values, replaying OracleOptions::NumShuffles
/// block serializations. Returns an empty string on bit-exact agreement of
/// the final fields, else a diagnostic naming the kind, tiling, seed and
/// first mismatching cell. A kind that legally cannot tile \p P is reported
/// as agreement (the skip reason is available via makeOracleSchedule).
std::string runDifferential(const ir::StencilProgram &P, ScheduleKind K,
                            const OracleTiling &T,
                            const OracleOptions &Opts = {});

/// runDifferential over every schedule kind; concatenates diagnostics.
std::string runDifferentialAllKinds(const ir::StencilProgram &P,
                                    const OracleTiling &T,
                                    const OracleOptions &Opts = {});

} // namespace harness
} // namespace hextile

#endif // HEXTILE_TESTS_HARNESS_STENCILORACLE_H
