//===- ThreadPool.h - Shared-cursor thread pool -----------------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one worker pool of hextile. Wavefront replay (ThreadPoolBackend),
/// DeviceSim's per-device phases, the compile service's batches and the
/// parallel host shim's worker teams (service/ShimRuntime) all run on it.
/// The unit of work is a parallelFor over [0, N) whose iterations are
/// mutually independent, and the call is a full barrier -- it returns only
/// once every iteration has finished, with all worker writes visible to
/// the caller (release decrements on completion, acquire load at the
/// barrier).
///
/// Each parallelFor publishes one task: the iteration space cut into equal
/// contiguous chunks (the last may be shorter) and one claim cursor. The
/// caller runs chunk 0 and then, like every other participant, claims the
/// next chunk with a single fetch_add until the cursor passes the last
/// chunk -- the discipline of one GPU launch whose thread blocks take block
/// indices from a shared counter. Chunks are therefore claimed in index
/// order, and a pool of size 1 degenerates to inline execution with no
/// handoff.
///
/// gang() is the one entry whose iterations may wait on each other: it
/// runs one rank per participant, all at the same time, so the shim can
/// play a grid of CUDA thread teams whose ranks meet at __syncthreads.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_EXEC_THREADPOOL_H
#define HEXTILE_EXEC_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hextile {
namespace exec {

/// Validates and resolves a requested thread count: 0 means
/// std::thread::hardware_concurrency() (at least 1), positive counts pass
/// through, and negative counts throw std::invalid_argument naming the
/// offending value. The single source of this policy -- ThreadPool's
/// constructor and every options surface resolve through it.
unsigned resolveNumThreads(int Requested);

/// Pool of persistent threads claiming chunks from one shared cursor. One
/// parallelFor runs at a time (concurrent submissions are serialized);
/// nesting parallelFor inside a worker body is not supported.
class ThreadPool {
public:
  /// \p NumThreads counts every participating thread including the caller of
  /// parallelFor; 0 picks std::thread::hardware_concurrency(). The pool thus
  /// spawns NumThreads - 1 workers.
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Total participating threads (spawned workers + the calling thread).
  unsigned numThreads() const {
    return static_cast<unsigned>(Workers.size()) + 1;
  }

  /// Runs \p Fn(I) for every I in [0, N), distributed over the pool. Acts as
  /// a barrier: returns only when all N iterations completed, and every
  /// side effect of \p Fn happens-before the return (memory-ordering
  /// guarantee of the wavefront contract). If any iteration throws, the
  /// first exception is captured, the remaining iterations are abandoned
  /// (each chunk checks an abort flag before running), and the exception is
  /// rethrown here after the barrier.
  ///
  /// \p MinPerChunk is the batching floor: no dispatched chunk is smaller
  /// than it, and a trip count of at most MinPerChunk runs inline on the
  /// caller with no pool handoff at all (no wakeup, no fences, zero
  /// dispatched tasks). This is what makes replays dominated by tiny
  /// wavefronts cost what a serial replay costs instead of paying a
  /// barrier per wavefront.
  void parallelFor(size_t N, const std::function<void(size_t)> &Fn,
                   size_t MinPerChunk = 1);

  /// Runs \p Fn(Rank) once for each Rank in [0, numThreads()), the caller
  /// as rank 0: a parallelFor of one iteration per participant with no
  /// batching floor, so a gang of two or more never runs inline. Unlike
  /// parallelFor's iterations, ranks may wait on each other (the shim's
  /// team barrier): a participant that holds a rank is busy until that
  /// rank returns, and there are as many participants as ranks, so while
  /// a rank is unclaimed some participant is free to claim it. \p Fn must
  /// not throw: the abort flag would skip the unclaimed ranks and leave
  /// their teammates waiting forever.
  void gang(const std::function<void(size_t)> &Fn) {
    parallelFor(numThreads(), Fn, /*MinPerChunk=*/0);
  }

  /// Chunks published by parallelFor over this pool's lifetime; inline
  /// executions (small N, or a pool of one) publish none. Monotonic --
  /// callers measure a region by differencing. Only stable once the
  /// publishing parallelFor returned.
  uint64_t tasksDispatched() const {
    return TasksDispatched.load(std::memory_order_relaxed);
  }

private:
  /// One parallelFor's work, shared by every participant that claims from
  /// it (defined in ThreadPool.cpp).
  struct Task;

  void workerMain();

  std::mutex TaskMutex; ///< Guards Current and Shutdown.
  std::condition_variable TaskCv;
  /// The latest published task. Workers hold their own reference while they
  /// claim from it, so a worker that wakes late finds only a used-up cursor.
  std::shared_ptr<Task> Current;
  bool Shutdown = false;

  std::mutex SubmitMutex; ///< Serializes concurrent parallelFor callers.
  std::atomic<uint64_t> TasksDispatched{0}; ///< Lifetime published chunks.

  std::vector<std::thread> Workers; ///< Last: they use every member above.
};

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_THREADPOOL_H
