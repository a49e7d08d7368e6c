//===- ShimRuntime.cpp - Worker teams of the parallel host shim -----------===//

#include "service/ShimRuntime.h"

#include "codegen/HostEmitter.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <dlfcn.h>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace hextile;
using namespace hextile::service;

using ht_int = long long;

// The function table of the shim's parallel half, as cuda_shim.h declares
// it (codegen::hostShimSource); codegen::HostShimAbi versions its layout.
extern "C" {
typedef void (*ht_shim_block_fn)(const void *Ctx, ht_int Block,
                                 ht_int Rank, ht_int Size);
struct ht_shim_runtime {
  ht_int abi;
  void (*launch)(ht_shim_block_fn Fn, const void *Ctx, ht_int NBlocks,
                 ht_int Threads, ht_int SingleTeam);
  void (*barrier)(void);
};
}

namespace {

/// One worker team: plays one CUDA block at a time with Size threads.
struct Team {
  ht_int Size = 1;
  std::atomic<ht_int> Arrived{0};
  std::atomic<ht_int> Phase{0};
  /// Next block index to play; written by rank 0, published to the other
  /// ranks by the barrier below.
  ht_int CurBlock = 0;

  /// Phase-counting rendezvous: the last arrival resets the count *before*
  /// bumping the phase, so stragglers of barrier N can never be counted
  /// into barrier N+1.
  void barrier() {
    ht_int P = Phase.load(std::memory_order_relaxed);
    if (Arrived.fetch_add(1, std::memory_order_acq_rel) == Size - 1) {
      Arrived.store(0, std::memory_order_relaxed);
      Phase.store(P + 1, std::memory_order_release);
    } else {
      while (Phase.load(std::memory_order_acquire) == P)
        std::this_thread::yield();
    }
  }
};

thread_local Team *CurTeam = nullptr;

/// Environment override (HT_SHIM_THREADS / HT_SHIM_TEAMS), clamped to
/// [1, 256]; \p Fallback when unset or unparsable.
ht_int envOr(const char *Name, ht_int Fallback) {
  const char *V = getenv(Name);
  ht_int N = (V && *V) ? atoll(V) : Fallback;
  if (N < 1)
    N = Fallback;
  return N > 256 ? 256 : N;
}

/// The worker pool: TeamCount teams of TeamSize threads, created on first
/// launch and re-shaped whenever a launch asks for a different geometry.
struct Pool {
  ht_int TeamSize = 0;
  ht_int TeamCount = 0;
  std::vector<Team *> Teams;
  std::vector<std::thread> Workers;

  std::mutex M;
  std::condition_variable WorkCv, DoneCv;
  bool Shutdown = false;
  unsigned long long Epoch = 0;
  ht_int DoneThreads = 0;
  ht_shim_block_fn JobFn = nullptr;
  const void *JobCtx = nullptr;
  ht_int JobBlocks = 0;
  std::atomic<ht_int> NextBlock{0};

  ~Pool() { stop(); }

  void stop() {
    if (!Workers.empty()) {
      {
        std::lock_guard<std::mutex> L(M);
        Shutdown = true;
      }
      WorkCv.notify_all();
      for (std::thread &W : Workers)
        W.join();
      Workers.clear();
      Shutdown = false;
    }
    for (Team *T : Teams)
      delete T;
    Teams.clear();
  }

  /// (Re)builds the pool to match the geometry the environment and the
  /// launching unit ask for: \p Threads is the unit's baked-in team size,
  /// and \p SingleTeam pins one team (a staged unit's blocks stay serial).
  /// Only called between launches, under the launch mutex.
  void ensure(ht_int Threads, bool SingleTeam) {
    ht_int WantSize = envOr("HT_SHIM_THREADS", Threads);
    ht_int WantCount = 1;
    if (!SingleTeam) {
      ht_int HW = (ht_int)std::thread::hardware_concurrency();
      if (HW < 1)
        HW = 1;
      ht_int DefaultCount = HW / WantSize;
      if (DefaultCount < 1)
        DefaultCount = 1;
      WantCount = envOr("HT_SHIM_TEAMS", DefaultCount);
    }
    if (WantSize == TeamSize && WantCount == TeamCount)
      return;
    stop();
    TeamSize = WantSize;
    TeamCount = WantCount;
    for (ht_int T = 0; T < TeamCount; ++T) {
      Teams.push_back(new Team());
      Teams.back()->Size = TeamSize;
    }
    // Workers capture the current epoch at spawn (not at first wakeup):
    // a pool re-shaped after earlier launches must not hand the stale job
    // to -- or hide the next job from -- a freshly spawned thread.
    for (ht_int T = 0; T < TeamCount; ++T)
      for (ht_int R = 0; R < TeamSize; ++R)
        Workers.emplace_back(&Pool::work, this, T, R, Epoch);
  }

  void work(ht_int TeamIdx, ht_int Rank, unsigned long long Seen) {
    Team &T = *Teams[TeamIdx];
    CurTeam = &T;
    for (;;) {
      ht_shim_block_fn Fn;
      const void *Ctx;
      ht_int NBlocks;
      {
        std::unique_lock<std::mutex> L(M);
        WorkCv.wait(L, [&] { return Shutdown || Epoch != Seen; });
        if (Shutdown)
          return;
        Seen = Epoch;
        Fn = JobFn;
        Ctx = JobCtx;
        NBlocks = JobBlocks;
      }
      for (;;) {
        if (Rank == 0)
          T.CurBlock = NextBlock.fetch_add(1, std::memory_order_relaxed);
        T.barrier();
        ht_int B = T.CurBlock;
        if (B >= NBlocks)
          break;
        Fn(Ctx, B, Rank, T.Size);
        T.barrier();
      }
      {
        std::lock_guard<std::mutex> L(M);
        if (++DoneThreads == TeamCount * TeamSize)
          DoneCv.notify_one();
      }
    }
  }

  /// Runs one synchronous launch: every worker retires blocks until the
  /// shared counter runs dry, and the launcher returns only after all
  /// threads checked in (so every kernel write happens-before the return).
  void run(ht_shim_block_fn Fn, const void *Ctx, ht_int NBlocks,
           ht_int Threads, bool SingleTeam) {
    ensure(Threads, SingleTeam);
    std::unique_lock<std::mutex> L(M);
    JobFn = Fn;
    JobCtx = Ctx;
    JobBlocks = NBlocks;
    NextBlock.store(0, std::memory_order_relaxed);
    DoneThreads = 0;
    ++Epoch;
    WorkCv.notify_all();
    DoneCv.wait(L, [&] { return DoneThreads == TeamCount * TeamSize; });
  }
};

/// The process's pool and launch mutex, tagged with the pid they belong to.
/// Never destroyed: the workers stay parked until the process exits.
struct Runtime {
  explicit Runtime(pid_t Pid) : Pid(Pid) {}
  const pid_t Pid;
  std::mutex LaunchMutex;
  Pool Workers;
};

std::atomic<Runtime *> Current{nullptr};

/// This process's runtime, created by its first launch. A child forked
/// after its parent launched finds the parent's runtime: those workers do
/// not exist in the child, and the parent's mutexes and condition
/// variables may still count threads that do not exist either. The child
/// abandons (leaks) it and starts a fresh one.
Runtime &runtime() {
  pid_t Me = getpid();
  Runtime *R = Current.load(std::memory_order_acquire);
  while (!R || R->Pid != Me) {
    auto Fresh = std::make_unique<Runtime>(Me);
    if (Current.compare_exchange_strong(R, Fresh.get(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire))
      return *Fresh.release();
    // Another thread of this process won: R is its runtime.
  }
  return *R;
}

void launch(ht_shim_block_fn Fn, const void *Ctx, ht_int NBlocks,
            ht_int Threads, ht_int SingleTeam) {
  if (NBlocks <= 0)
    return;
  Runtime &R = runtime();
  std::lock_guard<std::mutex> L(R.LaunchMutex);
  R.Workers.run(Fn, Ctx, NBlocks, Threads, SingleTeam != 0);
}

void barrier() { CurTeam->barrier(); }

const ht_shim_runtime Table = {codegen::HostShimAbi, &launch, &barrier};

} // namespace

std::string service::bindShimRuntime(void *Handle) {
  auto Bind = reinterpret_cast<int (*)(const ht_shim_runtime *)>(
      dlsym(Handle, "ht_shim_bind"));
  if (!Bind)
    return "";
  if (Bind(&Table) != 0)
    return "unit rejected the shim runtime (ht_shim_bind refused ABI " +
           std::to_string(codegen::HostShimAbi) + ")";
  return "";
}
