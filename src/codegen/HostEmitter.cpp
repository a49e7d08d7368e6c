//===- HostEmitter.cpp - Portable host (CPU) kernel emission --------------===//

#include "codegen/HostEmitter.h"

using namespace hextile;
using namespace hextile::codegen;

#define HEXTILE_STR2(X) #X
#define HEXTILE_STR(X) HEXTILE_STR2(X)

std::string codegen::hostShimSource() {
  // Composed from one prefix/suffix literal pair (the prefix spells
  // HostShimAbi) around the EmissionCore runtime helpers (shared with the
  // CUDA prelude, so the bit-exactness semantics have a single
  // definition); service/JitUnit materializes the result as cuda_shim.h
  // next to each emitted unit.
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
//  * HT_FOR_THREADS is the threadIdx loop over a region's logical threads
//    (one per outer row of a compute sweep or of a staging copy): each
//    barrier-delimited region of the kernel runs to completion for every
//    thread before the next region starts, so
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
//  * the pool, the launch and the barrier live in the loading process
//    (hextile's service/ShimRuntime), not in this unit: the loader hands
//    the runtime's function table to the exported ht_shim_bind right after
//    loading the unit, and a launch on an unbound unit traps;
//  * HT_FOR_THREADS strides the logical thread ids across the team's
//    physical threads (tid = rank, rank + T, ...);
//  * __syncthreads() is a real barrier (phase-counting, acquire/release)
//    across the team's threads;
//  * HT_THREADS is the physical team size, HT_SHIM_TEAMS / HT_SHIM_THREADS
//    environment variables re-shape the pool at every launch (the macro
//    value is only this unit's baked-in default);
//  * staged units additionally define HT_SHIM_SINGLE_TEAM: their
//    cooperative loads read a rectangular over-approximation of the tile's
//    live-in window, so concurrent *blocks* could race on halo cells the
//    compute phase never consumes -- one team keeps blocks serial while
//    the intra-block threads still rendezvous at every emitted barrier;
//  * the whole launch is synchronous (returns when every block retired),
//    and concurrent launches from different host threads serialize on one
//    process-wide mutex -- same observable behavior as the serial shim.
//
// The bind contract (parallel mode). The unit exports
//
//   extern "C" int ht_shim_bind(const ht_shim_runtime *Rt);
//
// which stores Rt and returns 0 when Rt->abi equals HT_SHIM_ABI, and
// returns nonzero, leaving the unit unbound, otherwise. The table holds
// the ABI number, launch (one synchronous launch: the block body, its
// context, the block count, the baked-in team size and the single-team
// flag) and barrier (the calling worker's team rendezvous). Runs on the
// runtime call the unit's trampoline once per block with the worker's
// rank and team size, which HT_FOR_THREADS and HT_THREADS read. hextile
// binds every unit it loads, right after dlopen, and treats a nonzero
// return as a load failure; to run a kept parallel unit by other means,
// call ht_shim_bind with a compatible table before the first launch.
// The runtime keeps one pool per process: a child forked after its
// parent launched starts a fresh one instead of waiting on the parent's
// workers.
//
// Both modes:
//
//  * HT_SHARED is the __shared__ arena: at most one block is in flight
//    per staged unit (serial mode, or HT_SHIM_SINGLE_TEAM), so one static
//    per-kernel buffer per declaration gives exactly the __shared__
//    lifetime -- contents are undefined at tile start and must be
//    (re)loaded by the staging load phase every tile;
//  * a compute sweep's row checks each group of its accesses that share
//    a buffer and a rotating slot once, with ht_check_run over the span
//    [lowest displacement, highest displacement + n) of its n-cell run,
//    and then indexes the run with plain subscripts. The buffer is one
//    contiguous [0, Total), so the span escapes it exactly when one
//    access's run does: a row that would touch memory outside a global
//    rotating buffer *or* a staging window traps first, with a diagnostic
//    naming the buffer and the first out-of-range index (HT_AT is the
//    same trap for one element);
//  * the staging copies (the cooperative load and the overlapped ocopy)
//    move one innermost window row at a time through HT_COPY_RUN, which
//    checks the whole run against both buffers first and traps the same
//    way;
//  * no system header is included: the few C library entry points the
//    units call are declared below, and the copy is __builtin_memcpy.
//
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CUDA_SHIM_H
#define HEXTILE_CUDA_SHIM_H

extern "C" {
float sqrtf(float);
float fabsf(float);
int dprintf(int, const char *, ...);
}

/// The ht_shim_runtime version this unit accepts (parallel mode).
#define HT_SHIM_ABI )shim" HEXTILE_STR(HEXTILE_HOST_SHIM_ABI) R"shim(

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

#else // HT_SHIM_THREADS > 0: blocks run on the runtime bound at load.

/// Plays block Block of the launch Ctx describes, as rank Rank of a team
/// of Size threads.
typedef void (*ht_shim_block_fn)(const void *Ctx, ht_int Block,
                                 ht_int Rank, ht_int Size);

/// The worker-team runtime the loader binds into this unit. abi comes
/// first, so a table of any other layout is rejected before it is used.
typedef struct ht_shim_runtime {
  ht_int abi;
  /// One synchronous launch of NBlocks blocks: teams of Threads threads
  /// (the baked-in default the environment may override), one team when
  /// SingleTeam is nonzero.
  void (*launch)(ht_shim_block_fn Fn, const void *Ctx, ht_int NBlocks,
                 ht_int Threads, ht_int SingleTeam);
  /// __syncthreads(): the calling worker's team rendezvous.
  void (*barrier)(void);
} ht_shim_runtime;

static const ht_shim_runtime *ht_shim_rt = 0;
static thread_local ht_int ht_shim_rank = 0;
static thread_local ht_int ht_shim_size = 1;

/// Called by the loader right after it loads the unit. Returns nonzero,
/// and leaves the unit unbound, for a runtime of another ABI.
extern "C" int ht_shim_bind(const ht_shim_runtime *Rt) {
  if (!Rt || Rt->abi != HT_SHIM_ABI)
    return 1;
  ht_shim_rt = Rt;
  return 0;
}

template <class Body>
static void ht_shim_block(const void *Ctx, ht_int Block, ht_int Rank,
                          ht_int Size) {
  ht_shim_rank = Rank;
  ht_shim_size = Size;
  (*static_cast<const Body *>(Ctx))(Block);
}

template <class Body>
static void ht_shim_launch(ht_int NBlocks, const Body &B) {
  if (!ht_shim_rt) {
    dprintf(2, "cuda_shim: launch on an unbound parallel unit (the loader "
               "never called ht_shim_bind)\n");
    __builtin_abort();
  }
#if defined(HT_SHIM_SINGLE_TEAM)
  const ht_int SingleTeam = 1; // Staged unit: blocks stay serial.
#else
  const ht_int SingleTeam = 0;
#endif
  ht_shim_rt->launch(&ht_shim_block<Body>, &B, NBlocks, HT_SHIM_THREADS,
                     SingleTeam);
}

static inline void __syncthreads(void) { ht_shim_rt->barrier(); }

#define HT_LAUNCH_1D(kernel, nblocks, ...)                                   \
  ht_shim_launch((nblocks), [&](ht_int ht_block) {                           \
    kernel(ht_block, __VA_ARGS__);                                           \
  })

#define HT_FOR_THREADS(tid, count)                                           \
  for (ht_int tid = ht_shim_rank; tid < (count); tid += ht_shim_size)

/// Physical threads per block (the runtime team size; kernels use it to
/// observe the pool geometry, e.g. in the shim-semantics tests).
#define HT_THREADS (ht_shim_size)

#endif // HT_SHIM_THREADS

)shim";
  std::string Suffix = R"shim(
/// Bounds-checked element pointer: traps with a diagnostic instead of
/// touching memory outside [0, Total).
static inline float *ht_at(float *Base, ht_int Idx, ht_int Total,
                           const char *What) {
  if (Idx < 0 || Idx >= Total) {
    dprintf(2,
            "cuda_shim: out-of-bounds access to %s: index %lld not in "
            "[0, %lld)\n",
            What, (long long)Idx, (long long)Total);
    __builtin_abort();
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
  __builtin_memcpy(Dst + DstIdx, Src + SrcIdx,
                   (__SIZE_TYPE__)N * sizeof(float));
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

/// Opens the shim's forall-threads loop binding \p Tid over [0, \p Count).
void openThreadLoop(Source &Out, const std::string &Tid,
                    const std::string &Count) {
  Out.open("HT_FOR_THREADS(" + Tid + ", " + Count + ")");
}

/// "<Base> + (<Off>)", or \p Base when \p Off is 0.
std::string plus(const std::string &Base, int64_t Off) {
  return Off == 0 ? Base : Base + " + (" + std::to_string(Off) + ")";
}

/// One row's update of \p St: each access group's base and one check of
/// its span, then a plain loop of unchecked subscripts over the run's ht_n
/// cells in ascending order. The separate copy-out takes the same form: a
/// row's run is a few cells, which a plain loop moves faster than a
/// memcpy call.
void emitRowUpdate(Source &Out, const EmissionPlan &Plan,
                   const SweptStmt &St) {
  for (size_t G = 0; G < St.Groups.size(); ++G) {
    const AccessGroup &Grp = St.Groups[G];
    std::string B = "ht_b" + std::to_string(G);
    // [B + Lo, B + Hi + ht_n), or the whole window row [B, B + Wrap).
    std::string Span =
        Grp.Wrap ? B + ", " + std::to_string(Grp.Wrap)
                 : plus(B, Grp.Lo) + ", " +
                       (Grp.Hi > Grp.Lo ? std::to_string(Grp.Hi - Grp.Lo) +
                                              " + "
                                        : "") +
                       "ht_n";
    Out.line("const ht_int " + B + " = " + Grp.Base + ";");
    Out.line("ht_check_run(" + Grp.Buffer + ", " + Span + ", " +
             std::to_string(Grp.Total) + ", \"" + Grp.Buffer + "\");");
  }
  Out.open("for (ht_int ht_i = 0; ht_i < ht_n; ++ht_i)");
  emitSweptUpdate(Out, Plan, St, [&](const SweptAccess &A) {
    const AccessGroup &Grp = St.Groups[A.Group];
    std::string B = "ht_b" + std::to_string(A.Group);
    std::string Idx = Grp.Wrap ? B + " + ht_emod(" + A.WrapCoord +
                                     " + ht_i, " + std::to_string(Grp.Wrap) +
                                     ")"
                               : plus(B, A.Disp) + " + ht_i";
    return Grp.Buffer + "[" + Idx + "]";
  });
  Out.close();
}

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
  H.barrier = [](Source &Out) { Out.line("__syncthreads();"); };
  H.declareShared = [](Source &Out, const std::string &Name,
                       int64_t Count) {
    Out.line("HT_SHARED(" + Name + ", " + std::to_string(Count) + ");");
  };
  // One thread per rotating slot x outer row: the row's innermost run is
  // contiguous in both buffers, so it moves through one range-checked
  // HT_COPY_RUN instead of a decoded, guarded, checked access per cell.
  H.copyWindow = [](Source &Out, const EmissionPlan &Plan,
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
      openThreadLoop(
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
      Out.close();
    }
  };
  // One thread per outer row: the row's innermost run is clipped to the
  // domain once per region, each access group is checked once per row, and
  // the run's cells take no decode, guard or per-access check.
  H.sweep = [](Source &Out, const EmissionPlan &Plan,
               const ComputeSweep &Sweep) {
    for (const std::string &L : Sweep.RunSetup)
      Out.line(L);
    Out.open("if (ht_n > 0)");
    openThreadLoop(Out, "ht_row", Sweep.RowCount);
    for (const std::string &L : Sweep.RowBind)
      Out.line(L);
    if (!Sweep.OuterGuard.empty())
      Out.open("if (" + Sweep.OuterGuard + ")");
    emitSweepDispatch(Out, Plan, Sweep, [&](const SweptStmt &St) {
      emitRowUpdate(Out, Plan, St);
    });
    if (!Sweep.OuterGuard.empty())
      Out.close();
    Out.close();
    Out.close();
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
