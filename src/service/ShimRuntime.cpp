//===- ShimRuntime.cpp - Worker teams of the parallel host shim -----------===//

#include "service/ShimRuntime.h"

#include "codegen/HostEmitter.h"
#include "exec/ThreadPool.h"

#include <algorithm>
#include <atomic>
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

/// Most threads one process's shim pool holds, the launcher included.
constexpr ht_int MaxPoolThreads = 256;

/// Environment override (HT_SHIM_THREADS / HT_SHIM_TEAMS), clamped to
/// [1, MaxPoolThreads]; \p Fallback when unset or unparsable.
ht_int envOr(const char *Name, ht_int Fallback) {
  const char *V = getenv(Name);
  ht_int N = (V && *V) ? atoll(V) : Fallback;
  if (N < 1)
    N = Fallback;
  return std::min(N, MaxPoolThreads);
}

/// The process's runtime, tagged with the pid it belongs to: Teams.size()
/// teams of TeamSize threads, played by one exec::ThreadPool with one
/// participant per team thread. Never destroyed: the workers stay parked
/// until the process exits.
struct Runtime {
  explicit Runtime(pid_t Pid) : Pid(Pid) {}
  const pid_t Pid;
  /// Read once: glibc reads /sys on every hardware_concurrency() call.
  const ht_int HardwareThreads = exec::resolveNumThreads(0);
  std::mutex LaunchMutex;
  ht_int TeamSize = 0;
  std::vector<Team> Teams;
  std::unique_ptr<exec::ThreadPool> Pool;
  std::atomic<ht_int> NextBlock{0};

  /// (Re)builds the pool to match the geometry the environment and the
  /// launching unit ask for: \p Threads is the unit's baked-in team size,
  /// and \p SingleTeam pins one team (a staged unit's blocks stay serial).
  /// Teams are dropped until the pool fits in MaxPoolThreads.
  void ensure(ht_int Threads, bool SingleTeam) {
    ht_int Size = envOr("HT_SHIM_THREADS", Threads);
    ht_int Count =
        SingleTeam ? 1
                   : envOr("HT_SHIM_TEAMS",
                           std::max<ht_int>(HardwareThreads / Size, 1));
    Count = std::min(Count, MaxPoolThreads / Size);
    if (Size == TeamSize && Count == (ht_int)Teams.size())
      return;
    Pool.reset(); // Joins the old workers before the new ones start.
    Pool = std::make_unique<exec::ThreadPool>(Count * Size);
    Teams = std::vector<Team>(Count);
    for (Team &T : Teams)
      T.Size = Size;
    TeamSize = Size;
  }

  /// Plays pool rank \p Rank as rank Rank % TeamSize of team Rank /
  /// TeamSize: the team retires blocks off the shared counter until it
  /// runs dry.
  void play(size_t Rank, ht_shim_block_fn Fn, const void *Ctx,
            ht_int NBlocks) {
    Team &T = Teams[Rank / TeamSize];
    ht_int TeamRank = (ht_int)Rank % TeamSize;
    CurTeam = &T;
    for (;;) {
      if (TeamRank == 0)
        T.CurBlock = NextBlock.fetch_add(1, std::memory_order_relaxed);
      T.barrier();
      ht_int B = T.CurBlock;
      if (B >= NBlocks)
        break;
      Fn(Ctx, B, TeamRank, T.Size);
      T.barrier();
    }
  }
};

std::atomic<Runtime *> Current{nullptr};

/// This process's runtime, created by its first launch. A child forked
/// after its parent launched finds the parent's runtime: its pool's
/// workers do not exist in the child, and the parent's mutexes may be held
/// by threads that do not exist either. The child abandons (leaks) it,
/// never destroying it -- the pool's destructor would join the missing
/// workers -- and starts a fresh one.
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

/// One synchronous launch: the launcher plays pool rank 0, and gang()
/// returns only after every rank did, so every kernel write happens-before
/// the return.
void launch(ht_shim_block_fn Fn, const void *Ctx, ht_int NBlocks,
            ht_int Threads, ht_int SingleTeam) {
  if (NBlocks <= 0)
    return;
  Runtime &R = runtime();
  std::lock_guard<std::mutex> L(R.LaunchMutex);
  R.ensure(Threads, SingleTeam != 0);
  R.NextBlock.store(0, std::memory_order_relaxed);
  R.Pool->gang([&](size_t Rank) { R.play(Rank, Fn, Ctx, NBlocks); });
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
