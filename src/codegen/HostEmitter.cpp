//===- HostEmitter.cpp - Portable host (CPU) kernel emission --------------===//

#include "codegen/HostEmitter.h"

using namespace hextile;
using namespace hextile::codegen;

std::string codegen::hostShimSource() {
  // Composed from one prefix/suffix literal pair around the EmissionCore
  // runtime helpers (shared with the CUDA prelude, so the bit-exactness
  // semantics have a single definition); tests/harness/HostKernelRunner
  // materializes the result as cuda_shim.h next to each emitted unit.
  std::string Prefix =
      R"shim(//===- cuda_shim.h - CUDA execution model on the host ---------------------===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
// Maps the CUDA surface the emitted kernels use onto host execution, in one
// of two modes selected per unit by HT_SHIM_THREADS (defined -- or not --
// by the emitted kernel.cpp before including this header):
//
// Serial mode (HT_SHIM_THREADS absent or <= 0):
//
//  * __global__ kernels become plain functions taking the block index as
//    their first parameter;
//  * HT_LAUNCH_1D is the blockIdx loop: blocks run one after another, in
//    ascending order -- a legal serialization of CUDA's concurrent blocks;
//  * HT_FOR_THREADS is the threadIdx loop: each barrier-delimited region
//    of the kernel runs to completion for every thread before the next
//    region starts, so
//  * __syncthreads() is a no-op (the serial thread loop *is* the
//    block-serial barrier).
//
// Parallel mode (HT_SHIM_THREADS > 0):
//
//  * HT_LAUNCH_1D dispatches blocks across a persistent pool of worker
//    *teams* (one team plays one CUDA block at a time, claiming block
//    indices from a shared atomic counter), HT_SHIM_THREADS threads per
//    team -- so the emitted kernels' concurrency claims are actually
//    raced, not serialized away;
//  * HT_FOR_THREADS strides the logical thread ids across the team's
//    physical threads (tid = rank, rank + T, ...);
//  * __syncthreads() is a real barrier (phase-counting, acquire/release)
//    across the team's threads;
//  * HT_THREADS is the physical team size, HT_SHIM_TEAMS / HT_SHIM_THREADS
//    environment variables re-shape the pool at run time (the macro value
//    is only the baked-in default);
//  * staged units additionally define HT_SHIM_SINGLE_TEAM: their
//    cooperative loads read a rectangular over-approximation of the tile's
//    live-in window, so concurrent *blocks* could race on halo cells the
//    compute phase never consumes -- one team keeps blocks serial while
//    the intra-block threads still rendezvous at every emitted barrier;
//  * the whole launch is synchronous (returns when every block retired),
//    and concurrent launches from different host threads serialize on one
//    mutex -- same observable behavior as the serial shim.
//
// Both modes:
//
//  * HT_SHARED is the __shared__ arena: at most one block is in flight
//    per staged unit (serial mode, or HT_SHIM_SINGLE_TEAM), so one static
//    per-kernel buffer per declaration gives exactly the __shared__
//    lifetime -- contents are undefined at tile start and must be
//    (re)loaded by the staging load phase every tile;
//  * every buffer element access -- global rotating buffers *and* the
//    staging windows -- goes through HT_AT, which traps (with a
//    diagnostic naming the buffer) on any out-of-bounds index instead of
//    reading garbage;
//  * the staging copies (the cooperative load and the overlapped ocopy)
//    move one innermost window row at a time through HT_COPY_RUN, which
//    checks the whole run against both buffers first and traps with
//    HT_AT's diagnostic, naming the run's first out-of-range index.
//
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CUDA_SHIM_H
#define HEXTILE_CUDA_SHIM_H

#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef long long ht_int;

#define __global__ static

/// Compile-time constant tables (hexagon rows, skews).
#define HT_TABLE static const ht_int

/// Tile-local staging storage (the __shared__ arena); see header comment.
#define HT_SHARED(name, count) static float name[count]

#if !defined(HT_SHIM_THREADS) || HT_SHIM_THREADS <= 0

static inline void __syncthreads(void) {}

#define HT_LAUNCH_1D(kernel, nblocks, ...)                                   \
  do {                                                                       \
    for (ht_int ht_block = 0; ht_block < (nblocks); ++ht_block)              \
      kernel(ht_block, __VA_ARGS__);                                         \
  } while (0)

#define HT_FOR_THREADS(tid, count) for (ht_int tid = 0; tid < (count); ++tid)

/// Physical threads per block: the serial shim plays every logical thread
/// itself.
#define HT_THREADS ((ht_int)1)

#else // HT_SHIM_THREADS > 0: the parallel runtime.

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace ht_shim {

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

static thread_local Team *CurTeam = nullptr;
static thread_local ht_int CurRank = 0;
static thread_local ht_int CurSize = 1;

/// Environment override (HT_SHIM_THREADS / HT_SHIM_TEAMS), clamped to
/// [1, 256]; \p Fallback when unset or unparsable.
static ht_int envOr(const char *Name, ht_int Fallback) {
  const char *V = getenv(Name);
  ht_int N = (V && *V) ? atoll(V) : Fallback;
  if (N < 1)
    N = Fallback;
  return N > 256 ? 256 : N;
}

/// The per-unit worker pool: TeamCount teams of TeamSize threads, created
/// on first launch and re-shaped whenever the environment asks for a
/// different geometry; joined when the unit is dlclosed.
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
  void (*JobFn)(const void *, ht_int) = nullptr;
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

  /// (Re)builds the pool to match the requested geometry. Only called
  /// between launches, under the launch mutex.
  void ensure() {
    ht_int WantSize = envOr("HT_SHIM_THREADS", HT_SHIM_THREADS);
#if defined(HT_SHIM_SINGLE_TEAM)
    ht_int WantCount = 1; // Staged unit: blocks stay serial (see header).
#else
    ht_int HW = (ht_int)std::thread::hardware_concurrency();
    if (HW < 1)
      HW = 1;
    ht_int DefaultCount = HW / WantSize;
    if (DefaultCount < 1)
      DefaultCount = 1;
    ht_int WantCount = envOr("HT_SHIM_TEAMS", DefaultCount);
#endif
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
    CurRank = Rank;
    CurSize = T.Size;
    for (;;) {
      void (*Fn)(const void *, ht_int);
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
        Fn(Ctx, B);
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
  void run(void (*Fn)(const void *, ht_int), const void *Ctx,
           ht_int NBlocks) {
    ensure();
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

static std::mutex LaunchMutex;

static Pool &pool() {
  static Pool P; // First launch spawns it; dlclose joins it.
  return P;
}

template <class Body>
static void trampoline(const void *Ctx, ht_int Block) {
  (*static_cast<const Body *>(Ctx))(Block);
}

template <class Body>
static void launch(ht_int NBlocks, const Body &B) {
  if (NBlocks <= 0)
    return;
  std::lock_guard<std::mutex> L(LaunchMutex);
  pool().run(&trampoline<Body>, &B, NBlocks);
}

} // namespace ht_shim

static inline void __syncthreads(void) { ht_shim::CurTeam->barrier(); }

#define HT_LAUNCH_1D(kernel, nblocks, ...)                                   \
  ht_shim::launch((nblocks), [&](ht_int ht_block) {                          \
    kernel(ht_block, __VA_ARGS__);                                           \
  })

#define HT_FOR_THREADS(tid, count)                                           \
  for (ht_int tid = ht_shim::CurRank; tid < (count); tid += ht_shim::CurSize)

/// Physical threads per block (the runtime team size; kernels use it to
/// observe the pool geometry, e.g. in the shim-semantics tests).
#define HT_THREADS (ht_shim::CurSize)

#endif // HT_SHIM_THREADS

)shim";
  std::string Suffix = R"shim(
/// Bounds-checked element pointer: traps with a diagnostic instead of
/// touching memory outside [0, Total).
static inline float *ht_at(float *Base, ht_int Idx, ht_int Total,
                           const char *What) {
  if (Idx < 0 || Idx >= Total) {
    fprintf(stderr,
            "cuda_shim: out-of-bounds access to %s: index %lld not in "
            "[0, %lld)\n",
            What, (long long)Idx, (long long)Total);
    fflush(stderr);
    abort();
  }
  return Base + Idx;
}

#define HT_AT(arr, idx, total) (*ht_at((arr), (idx), (total), #arr))

/// Traps through ht_at unless the run [Idx, Idx + N) lies inside
/// [0, Total); the index reported is the run's first out-of-range one.
static inline void ht_check_run(float *Base, ht_int Idx, ht_int N,
                                ht_int Total, const char *What) {
  if (Idx < 0 || Idx + N > Total)
    ht_at(Base, Idx < 0 || Idx >= Total ? Idx : Total, Total, What);
}

/// Range-checked run copy: N consecutive floats from Src[SrcIdx] to
/// Dst[DstIdx], after checking the whole run in both buffers (source
/// first, as an element assignment evaluates it). N <= 0 copies nothing.
static inline void ht_copy_run(float *Dst, ht_int DstIdx, ht_int DstTotal,
                               const char *DstName, float *Src,
                               ht_int SrcIdx, ht_int SrcTotal,
                               const char *SrcName, ht_int N) {
  if (N <= 0)
    return;
  ht_check_run(Src, SrcIdx, N, SrcTotal, SrcName);
  ht_check_run(Dst, DstIdx, N, DstTotal, DstName);
  memcpy(Dst + DstIdx, Src + SrcIdx, (size_t)N * sizeof(float));
}

#define HT_COPY_RUN(dst, dstIdx, dstTotal, src, srcIdx, srcTotal, n)         \
  ht_copy_run((dst), (dstIdx), (dstTotal), #dst, (src), (srcIdx),            \
              (srcTotal), #src, (n))

#endif // HEXTILE_CUDA_SHIM_H
)shim";
  return Prefix + portableHelperFunctions("static inline") + Suffix;
}

std::string codegen::hostEntryName(const ir::StencilProgram &P) {
  return P.name() + "_run";
}

namespace {

EmitTargetHooks hostHooks() {
  EmitTargetHooks H;
  H.openKernel = [](Source &Out, const std::string &Name,
                    const std::string &Params) {
    Out.open("__global__ void " + Name + "(ht_int ht_block, " + Params +
             ")");
  };
  H.BlockIndex = "ht_block";
  H.SingleBlockLine =
      "(void)ht_block; // Classical bands launch a single block.";
  H.ScratchQualifier = "static";
  H.DriverQualifier = "static void";
  H.launch = [](const std::string &Name, const std::string &NumBlocks,
                const std::string &Args) {
    return "HT_LAUNCH_1D(" + Name + ", " + NumBlocks + ", " + Args + ");";
  };
  H.openThreadLoop = [](Source &Out, const std::string &Tid,
                        const std::string &Count) {
    Out.open("HT_FOR_THREADS(" + Tid + ", " + Count + ")");
  };
  H.closeThreadLoop = [](Source &Out) { Out.close(); };
  H.barrier = [](Source &Out) { Out.line("__syncthreads();"); };
  H.access = [](const EmissionPlan &Plan, unsigned F,
                const std::string &Idx) {
    return "HT_AT(" + Plan.fieldArg(F) + ", " + Idx + ", " +
           std::to_string(Plan.fieldTotalElems(F)) + ")";
  };
  H.declareShared = [](Source &Out, const std::string &Name,
                       int64_t Count) {
    Out.line("HT_SHARED(" + Name + ", " + std::to_string(Count) + ");");
  };
  H.stageAccess = [](const std::string &Name, const std::string &Idx,
                     int64_t Total) {
    return "HT_AT(" + Name + ", " + Idx + ", " + std::to_string(Total) +
           ")";
  };
  // One thread per rotating slot x outer row: the row's innermost run is
  // contiguous in both buffers, so it moves through one range-checked
  // HT_COPY_RUN instead of a decoded, guarded, checked access per cell.
  H.copyWindow = [H](Source &Out, const EmissionPlan &Plan,
                     const WindowCopy &Copy) {
    for (const std::string &L : Copy.RunSetup)
      Out.line(L);
    int64_t Rows = 1;
    for (size_t Dim = 0; Dim + 1 < Copy.Count.size(); ++Dim)
      Rows *= Copy.Count[Dim];
    for (unsigned F : Copy.Fields) {
      auto Run = [&](const std::string &StageIdx,
                     const std::string &GlobalIdx, const std::string &Len) {
        std::string Staged = Plan.stageArg(F) + ", " + StageIdx + ", " +
                             std::to_string(Plan.stageTotalElems(F));
        std::string Global = Plan.fieldArg(F) + ", " + GlobalIdx + ", " +
                             std::to_string(Plan.fieldTotalElems(F));
        Out.line("HT_COPY_RUN(" +
                 (Copy.ToStaging ? Staged + ", " + Global
                                 : Global + ", " + Staged) +
                 ", " + Len + ");");
      };
      H.openThreadLoop(
          Out, Copy.Tid,
          std::to_string(static_cast<int64_t>(Plan.Depth[F]) * Rows));
      Out.line("ht_int ht_r = " + Copy.Tid + ";");
      for (size_t Dim = Copy.Bind.size() - 1; Dim-- > 0;)
        for (const std::string &L : Copy.Bind[Dim])
          Out.line(L);
      if (!Copy.OuterGuard.empty())
        Out.open("if (" + Copy.OuterGuard + ")");
      if (Copy.RunWrapIdx.empty()) {
        Run(Copy.RunStageIdx, Copy.RunGlobalIdx, "ht_run_hi - ht_run_lo");
      } else {
        Run(Copy.RunStageIdx, Copy.RunGlobalIdx, "ht_run_cut");
        Run(Copy.RunWrapIdx, Copy.RunGlobalIdx + " + ht_run_cut",
            "ht_run_hi - ht_run_lo - ht_run_cut");
      }
      if (!Copy.OuterGuard.empty())
        Out.close();
      H.closeThreadLoop(Out);
    }
  };
  return H;
}

} // namespace

std::string codegen::emitHost(const CompiledHybrid &C, EmitSchedule S) {
  EmissionPlan Plan = EmissionPlan::build(C, S);
  const ir::StencilProgram &P = *Plan.Program;

  Source Out;
  Out.line("// " + P.name() + ": " + std::string(emitScheduleName(S)) +
           " tiling, host (CPU shim) rendering");
  Out.line("// tile: " + C.schedule().params().str());
  Out.line("// memory strategy (Sec. 4.2 ladder): " + Plan.Config.str());
  if (S == EmitSchedule::Overlapped)
    Out.line("// (overlapped: per-band oband/ocopy kernel pair over "
             "tile-private windows)");
  else if (Plan.Staging.Enabled)
    Out.line("// (staged: cooperative load into a per-tile window, " +
             std::string(Plan.Staging.Interleaved ? "interleaved"
                                                  : "separate") +
             " copy-out)");
  else
    Out.line("// (global-direct: kernels address the rotating buffers "
             "directly)");
  if (Plan.Config.ShimThreads > 0) {
    Out.line("// parallel shim: teams of " +
             std::to_string(Plan.Config.ShimThreads) +
             " threads play the blocks; HT_SHIM_THREADS / HT_SHIM_TEAMS");
    Out.line("// env vars re-shape the pool at run time.");
    Out.line("#define HT_SHIM_THREADS " +
             std::to_string(Plan.Config.ShimThreads));
    if (Plan.Staging.Enabled && S != EmitSchedule::Overlapped) {
      Out.line("// Staged unit: the cooperative load sweeps a rectangular");
      Out.line("// over-approximation of the live-in window, so blocks must");
      Out.line("// not race -- one team, serial blocks, parallel threads");
      Out.line("// within each block.");
      Out.line("#define HT_SHIM_SINGLE_TEAM 1");
    }
    // Overlapped units stay multi-team: tiles stage into disjoint
    // file-scope windows and never write global memory concurrently, so
    // blocks may genuinely race.
  }
  Out.line("#include \"cuda_shim.h\"");
  Out.blank();
  emitUnit(Out, Plan, hostHooks());
  Out.blank();

  // The ABI the JIT runner binds: one rotating buffer per field, in
  // declaration order, GridStorage layout ([depth][grid] row-major).
  Out.open("extern \"C\" void " + hostEntryName(P) +
           "(float **ht_fields)");
  std::string Args;
  for (unsigned F = 0; F < P.fields().size(); ++F) {
    if (F)
      Args += ", ";
    Args += "ht_fields[" + std::to_string(F) + "]";
  }
  Out.line(P.name() + "_host(" + Args + ");");
  Out.close();
  return Out.take();
}
