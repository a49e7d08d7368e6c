//===- Workload.h - One hextile_bench workload -----------------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface between the hextile_bench driver and its three workloads.
/// The driver times setup() (several times, fresh object each time),
/// runs measure() for the run length -- once untraced, and in a traced run
/// a second time with spans on -- calls verify() for the untimed bit-exact
/// checks, and turns the CaseSamples into the end-to-end metrics every
/// workload shares. layerMetrics() adds the per-layer numbers of the traced
/// pass.
///
/// A *case* is one (program, schedule family, setting) combination timed
/// repeatedly; the setting is one of the workload's parallel configurations
/// (ParallelWidth pool threads or simulated devices, shim threads, service
/// clients) or its serial one (the Serial backend, the serial shim, 1
/// client).
///
/// Serial cases are timed in CPU time, parallel cases in wall time, and
/// the end-to-end metrics come from serial cases only. On a shared host
/// two things slow an operation down. Its thread waits for a CPU -- for
/// another task, or for the hypervisor running the virtual CPU (steal
/// time) -- which CPU time leaves out. And the core itself runs up to 1.8x
/// slower while other tenants load the machine, in phases of milliseconds
/// to minutes; no clock leaves that out. So every serial operation is
/// preceded by a reference pass (referencePassMs), and a case's time is
/// reported relative to the reference pass's time in the same run.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_HEXBENCH_WORKLOAD_H
#define HEXTILE_HEXBENCH_WORKLOAD_H

#include "BenchStats.h"
#include "BenchTrace.h"

#include "ir/StencilProgram.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace hextile {
namespace bench {

/// Settings of one run, from the command line.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Smoke = false;
  /// Directory the run may create scratch state in (service stores).
  std::string WorkDir;
};

/// The five schedule families, in the order every per-family metric uses.
/// The first NumKeyedFamilies replay through a schedule key; overlapped
/// has none.
inline const std::vector<std::string> &familyNames() {
  static const std::vector<std::string> Names = {
      "hex", "hybrid", "classical", "diamond", "overlapped"};
  return Names;
}
constexpr size_t NumKeyedFamilies = 4;

/// Threads, devices or clients of a parallel setting. Half of a 4-core
/// machine: on the 4-vCPU host the baseline was taken on, 4-way runs
/// swung 15-20 % from run to run as other tenants took cores, 2-way runs
/// a few percent.
constexpr int ParallelWidth = 2;

/// Timed samples of one case: CPU ms for a serial case (or for the
/// reference pass), wall ms for a parallel one.
struct CaseSamples {
  std::string Label;  ///< "jacobi2d hex pool2" -- diagnostics only.
  std::string Family; ///< One of familyNames().
  bool Parallel = true;
  /// Every sample, or a uniform sample of MaxSamples of them once more
  /// arrived (reservoir sampling): a warm service phase times millions of
  /// requests, and memory must not grow with the request rate.
  std::vector<double> Ms;
  size_t Seen = 0;
  /// The fastest sample of all Seen.
  double FastestMs = 0;

  static constexpr size_t MaxSamples = 20000;

  /// The case's time: the fastest of a parallel case, since interference
  /// only ever adds wall time; the 5th percentile of a serial case, which
  /// is as fast as the core's quick phases allow but not the odd sample
  /// that the kernel's steal-time bookkeeping shortens (a few in a million
  /// microsecond samples read 0 on the baseline host).
  double typicalMs() const {
    return Parallel ? FastestMs : percentile(Ms, 5);
  }

  void add(double V) {
    if (Seen == 0 || V < FastestMs)
      FastestMs = V;
    if (Ms.size() < MaxSamples) {
      Ms.push_back(V);
    } else {
      size_t J = static_cast<size_t>(SeededRng(Seen).next() % (Seen + 1));
      if (J < MaxSamples)
        Ms[J] = V;
    }
    ++Seen;
  }
};

/// Everything one timed phase measured.
struct Measurements {
  std::vector<CaseSamples> Cases;
  /// The reference passes run between serial operations.
  CaseSamples Reference{"reference", "", false, {}};
  /// Every parallel-setting operation, across cases (bench.p90_ms), and
  /// the wall time they took (bench.ops_s is Parallel.Seen over
  /// ParallelWallMs).
  CaseSamples Parallel;
  double ParallelWallMs = 0;
  /// Operations attempted during the phase, and one message per failed
  /// one (an error result).
  size_t Attempted = 0;
  std::vector<std::string> Failures;
};

/// Metric values by catalog name.
using MetricValues = std::map<std::string, double>;


class Workload {
public:
  virtual ~Workload() = default;

  /// Everything before the first timed operation. Throws
  /// std::runtime_error on a configuration error (an unparsable program, a
  /// skipped schedule, a failed compile).
  virtual void setup() = 0;

  /// Closed-loop timed phase: whole rounds over every case, in a seeded
  /// order, until \p Seconds have elapsed.
  virtual Measurements measure(double Seconds) = 0;

  /// Untimed bit-exact checks against exec::runReference; appends one
  /// message per mismatch and returns the number of checks made.
  virtual size_t verify(std::vector<std::string> &Failures) = 0;

  /// Per-layer metrics of the traced phase \p M. Runs extra probes (also
  /// traced) where a metric needs one.
  virtual void layerMetrics(const Measurements &M, MetricValues &Out) = 0;
};

std::unique_ptr<Workload> makeReplayWorkload(const RunOptions &Opts);
std::unique_ptr<Workload> makeEmittedWorkload(const RunOptions &Opts);
std::unique_ptr<Workload> makeServiceWarmWorkload(const RunOptions &Opts);

/// Parses the printed form of gallery program \p Name at the given sizes,
/// so every workload's programs go through the frontend. Throws on a
/// parse error.
ir::StencilProgram parseGalleryProgram(const std::string &Name, int64_t Size,
                                       int64_t Steps);

/// Milliseconds elapsed since \p T0.
inline double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// CPU time, in ms, of the calling thread: the clock of an operation that
/// runs wholly on it.
double threadCpuMs();

/// Runs the reference pass -- a fixed mix of the benchmark's own code,
/// stencil sweeps over a float grid and binary searches over a sorted
/// table, which no change to hextile alters -- and returns its CPU time in
/// ms.
double referencePassMs();

/// The reference pass's 5th-percentile CPU time on the baseline host
/// (baseline/machine.txt): the end-to-end metrics are a case's time over
/// the reference pass's in the same run, in units of this.
constexpr double ReferencePassBaselineMs = 0.25;

} // namespace bench
} // namespace hextile

#endif // HEXTILE_HEXBENCH_WORKLOAD_H
