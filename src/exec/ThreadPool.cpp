//===- ThreadPool.cpp - Shared-cursor thread pool -------------------------===//

#include "exec/ThreadPool.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

using namespace hextile;
using namespace hextile::exec;

unsigned exec::resolveNumThreads(int Requested) {
  if (Requested < 0)
    throw std::invalid_argument(
        "NumThreads must be >= 0 (0 = hardware concurrency), got " +
        std::to_string(Requested));
  if (Requested == 0)
    return std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(Requested);
}

struct ThreadPool::Task {
  Task(const std::function<void(size_t)> &Body, size_t N, size_t ChunkSize)
      : Body(Body), N(N), ChunkSize(ChunkSize),
        NumChunks((N + ChunkSize - 1) / ChunkSize), Remaining(NumChunks) {}

  /// Claims and runs chunks until the cursor passes the last one. Body is
  /// only touched after a successful claim, and the caller cannot pass the
  /// barrier before every claimed chunk completed, so a late worker never
  /// calls a body whose parallelFor has returned.
  void work() {
    size_t C;
    while ((C = Next.fetch_add(1, std::memory_order_relaxed)) < NumChunks)
      run(C);
  }

  /// Runs claimed chunk \p C (unless an earlier chunk threw) and retires it.
  void run(size_t C) {
    if (!Abort.load(std::memory_order_relaxed)) {
      try {
        size_t End = std::min(N, (C + 1) * ChunkSize);
        for (size_t I = C * ChunkSize; I < End; ++I)
          Body(I);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ErrorMutex);
        if (!Error)
          Error = std::current_exception();
        Abort.store(true, std::memory_order_relaxed);
      }
    }
    // Release: pairs with the acquire load at the barrier, making every
    // write of this chunk visible to the caller once it reads zero.
    Remaining.fetch_sub(1, std::memory_order_release);
  }

  const std::function<void(size_t)> &Body;
  const size_t N, ChunkSize, NumChunks;
  std::atomic<size_t> Next{1};     ///< Claim cursor; chunk 0 is the caller's.
  std::atomic<size_t> Remaining;   ///< Chunks not yet completed.
  std::atomic<bool> Abort{false};  ///< Set after the first exception.
  std::mutex ErrorMutex;
  std::exception_ptr Error;
};

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = resolveNumThreads(0);
  // Participant 0 is the parallelFor caller; 1..NumThreads-1 are spawned.
  Workers.reserve(NumThreads - 1);
  for (unsigned I = 1; I < NumThreads; ++I)
    Workers.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(TaskMutex);
    Shutdown = true;
  }
  TaskCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerMain() {
  // Holding the last task keeps its address from being reused, so a new
  // address in Current always means a new parallelFor.
  std::shared_ptr<Task> Mine;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(TaskMutex);
      TaskCv.wait(Lock, [&] { return Shutdown || Current != Mine; });
      if (Shutdown)
        return;
      Mine = Current;
    }
    Mine->work();
  }
}

void ThreadPool::parallelFor(size_t N, const std::function<void(size_t)> &Fn,
                             size_t MinPerChunk) {
  if (N == 0)
    return;
  // Pool of one, or a trip count the batching floor says is not worth a
  // handoff: execute inline, no fences, no dispatched tasks.
  if (Workers.empty() || N <= std::max<size_t>(MinPerChunk, 1)) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }

  std::lock_guard<std::mutex> Submit(SubmitMutex);
  size_t ChunkSize =
      std::max({static_cast<size_t>(1), MinPerChunk,
                N / (static_cast<size_t>(numThreads()) * 8)});
  auto T = std::make_shared<Task>(Fn, N, ChunkSize);
  TasksDispatched.fetch_add(T->NumChunks, std::memory_order_relaxed);

  // The mutex makes the task's construction happen-before any worker's
  // first claim.
  {
    std::lock_guard<std::mutex> Lock(TaskMutex);
    Current = T;
  }
  TaskCv.notify_all();

  // The caller runs chunk 0, then claims too. Once the cursor is used up,
  // other participants may still be running their last chunks (which may
  // yet throw), so wait for Remaining == 0 (acquire): every iteration's
  // writes are then visible here, and so is the error any chunk recorded.
  T->run(0);
  T->work();
  while (T->Remaining.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  if (T->Error)
    std::rethrow_exception(T->Error);
}
