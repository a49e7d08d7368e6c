//===- ExecutionBackend.h - Pluggable wavefront execution ------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-backend contract: a backend retires one Wavefront of
/// mutually independent statement instances at a time. The replay driver
/// guarantees wavefronts arrive in schedule order and never overlaps two
/// calls, so runWavefront is itself the inter-wavefront barrier -- when it
/// returns, every instance's writes must be visible to the caller (and
/// therefore to the next wavefront, on whatever thread it runs).
///
///  * SerialBackend replays instances in the order given -- the seed
///    executor's behavior, still the reference for differential runs.
///  * ThreadPoolBackend spreads each wavefront across a thread pool,
///    exercising the schedule's parallelism claim with real threads: an
///    illegal tiling that serialized replay might survive becomes a genuine
///    data race (a bit-exact mismatch, or a ThreadSanitizer report).
///  * DeviceSimBackend (DeviceSimBackend.h) partitions each wavefront over
///    a simulated device chain and exchanges halos explicitly at the
///    barrier, measuring the inter-device traffic the paper's block-level
///    parallelism claim implies.
///
/// Backends execute against the abstract FieldStorage seam, so the same
/// contract covers one flat address space and partitioned per-device slabs.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_EXEC_EXECUTIONBACKEND_H
#define HEXTILE_EXEC_EXECUTIONBACKEND_H

#include "exec/FieldStorage.h"
#include "exec/ThreadPool.h"
#include "exec/Wavefront.h"

#include "gpu/DeviceTopology.h"
#include "ir/StencilProgram.h"

#include <memory>

namespace hextile {
namespace exec {

/// Retires wavefronts of independent instances; see file comment for the
/// ordering and memory-visibility contract.
class ExecutionBackend {
public:
  virtual ~ExecutionBackend() = default;

  virtual const char *name() const = 0;

  /// Worker threads / simulated devices this backend spreads a wavefront
  /// over (1 for serial backends).
  virtual unsigned concurrency() const = 0;

  /// Executes every instance of \p W against \p Storage. Instances within
  /// \p W may run in any order or concurrently; the call returns only after
  /// all of them completed, with their writes visible to the caller.
  virtual void runWavefront(const ir::StencilProgram &P,
                            FieldStorage &Storage, const Wavefront &W) = 0;

  /// Replay bracket, called by runSchedule around one full replay: reset
  /// any per-replay accounting, and publish it into \p Stats (may be null).
  /// Backends without replay-scoped state ignore both.
  virtual void beginReplay() {}
  virtual void finishReplay(ReplayStats *Stats) { (void)Stats; }

  /// Non-null when this backend executes against storage partitioned over
  /// a device topology; makeStorage builds a matching
  /// PartitionedGridStorage. Single-address-space backends return null
  /// (flat GridStorage).
  virtual const gpu::DeviceTopology *partitionTopology() const {
    return nullptr;
  }
};

/// The default DeviceSim topology for a bare device count: a uniform
/// chain of GTX 470s (shared by makeBackend and makeStorage so backend
/// and storage can never disagree about the default).
gpu::DeviceTopology defaultSimTopology(unsigned NumDevices);

/// In-order, single-threaded replay (the seed executor's semantics).
class SerialBackend final : public ExecutionBackend {
public:
  const char *name() const override { return "serial"; }
  unsigned concurrency() const override { return 1; }
  void runWavefront(const ir::StencilProgram &P, FieldStorage &Storage,
                    const Wavefront &W) override;
};

/// Dispatches each wavefront across a persistent thread pool (chunks
/// claimed from one shared cursor); the pool's parallelFor barrier provides
/// the wavefront barrier.
class ThreadPoolBackend final : public ExecutionBackend {
public:
  /// \p NumThreads = 0 picks hardware concurrency; negative counts are
  /// rejected with std::invalid_argument (resolveNumThreads).
  /// \p MinTaskInstances is the batching floor: wavefronts with at most
  /// that many instances run inline on the caller (no pool handoff, zero
  /// dispatched tasks), and no dispatched chunk is smaller than it --
  /// replays dominated by tiny band-edge wavefronts would otherwise pay a
  /// barrier per wavefront and run slower than serial.
  explicit ThreadPoolBackend(int NumThreads = 0,
                             size_t MinTaskInstances = 128);

  const char *name() const override { return "threadpool"; }
  unsigned concurrency() const override { return Pool.numThreads(); }
  void beginReplay() override;
  void finishReplay(ReplayStats *Stats) override;
  void runWavefront(const ir::StencilProgram &P, FieldStorage &Storage,
                    const Wavefront &W) override;

  ThreadPool &pool() { return Pool; }
  void setMinTaskInstances(size_t N) { MinTaskInstances = N; }
  size_t minTaskInstances() const { return MinTaskInstances; }

private:
  ThreadPool Pool;
  size_t MinTaskInstances;
  uint64_t PoolTasksAtBegin = 0;
};

/// Selects an ExecutionBackend in options/CLI surfaces.
enum class BackendKind { Serial, ThreadPool, DeviceSim };

const char *backendKindName(BackendKind K);

/// Instantiates \p K. \p NumThreads only affects ThreadPool (0 = hardware
/// concurrency); \p NumDevices / \p Topology only affect DeviceSim (an
/// explicit topology wins, else a uniform chain of NumDevices GTX 470s).
/// \p MinTaskInstances is the inline batching floor of the parallel
/// backends (ThreadPool and DeviceSim).
std::unique_ptr<ExecutionBackend>
makeBackend(BackendKind K, int NumThreads = 0, unsigned NumDevices = 2,
            const gpu::DeviceTopology *Topology = nullptr,
            size_t MinTaskInstances = 128);

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_EXECUTIONBACKEND_H
