//===- CudaEmitter.cpp - CUDA source emission ------------------------------===//

#include "codegen/CudaEmitter.h"

using namespace hextile;
using namespace hextile::codegen;

namespace {

/// Opens a blockDim-stride loop binding \p Tid over [0, \p Count): threads
/// of the block cover any count at any launch width.
void openThreadLoop(Source &Out, const std::string &Tid,
                    const std::string &Count) {
  Out.open("for (ht_int " + Tid + " = (ht_int)threadIdx.x; " + Tid + " < " +
           Count + "; " + Tid + " += (ht_int)blockDim.x)");
}

/// The CUDA syntax; \p Threads is the launch width of every kernel.
EmitTargetHooks cudaHooks(int64_t Threads) {
  EmitTargetHooks H;
  H.openKernel = [](Source &Out, const std::string &Name,
                    const std::string &Params) {
    Out.open("__global__ void " + Name + "(" + Params + ")");
  };
  H.BlockIndex = "(ht_int)blockIdx.x";
  H.SingleBlockLine = "// Classical bands carry inter-tile dependences: "
                      "launched as a single block.";
  H.ScratchQualifier = "static __device__";
  H.DriverQualifier = "void";
  H.launch = [Threads](const std::string &Name, const std::string &NumBlocks,
                       const std::string &Args) {
    return Name + "<<<(unsigned)(" + NumBlocks + "), " +
           std::to_string(Threads) + ">>>(" + Args + ");";
  };
  H.barrier = [](Source &Out) { Out.line("__syncthreads();"); };
  H.declareShared = [](Source &Out, const std::string &Name,
                       int64_t Count) {
    Out.line("__shared__ float " + Name + "[" + std::to_string(Count) +
             "];");
  };
  // One thread per element: consecutive threads touch consecutive
  // addresses of a window row, so each warp's accesses coalesce.
  H.copyWindow = [](Source &Out, const EmissionPlan &Plan,
                    const WindowCopy &Copy) {
    int64_t Positions = 1;
    for (int64_t N : Copy.Count)
      Positions *= N;
    for (unsigned F : Copy.Fields) {
      openThreadLoop(
          Out, Copy.Tid,
          std::to_string(static_cast<int64_t>(Plan.Depth[F]) * Positions));
      Out.line("ht_int ht_r = " + Copy.Tid + ";");
      for (size_t Dim = Copy.Bind.size(); Dim-- > 0;)
        for (const std::string &L : Copy.Bind[Dim])
          Out.line(L);
      Out.open("if (" + Copy.Guard + ")");
      std::string Staged = Plan.stageArg(F) + "[" + Copy.StageIdx + "]";
      std::string Global = Plan.fieldArg(F) + "[" + Copy.GlobalIdx + "]";
      Out.line(Copy.ToStaging ? Staged + " = " + Global + ";"
                              : Global + " = " + Staged + ";");
      Out.close();
      Out.close();
    }
  };
  // One thread per point, the paper's mapping; the barrier after every
  // region keeps cross-row dependences inside the tile ordered.
  H.sweep = [](Source &Out, const EmissionPlan &Plan,
               const ComputeSweep &Sweep) {
    openThreadLoop(Out, "ht_tid", Sweep.PointCount);
    for (const std::string &L : Sweep.PointBind)
      Out.line(L);
    Out.open("if (" + Sweep.Guard + ")");
    emitSweepDispatch(Out, Plan, Sweep, [&](const SweptStmt &St) {
      emitSweptUpdate(Out, Plan, St, [&](const SweptAccess &A) {
        return St.Groups[A.Group].Buffer + "[" + A.PointIdx + "]";
      });
    });
    Out.close();
    Out.close();
  };
  return H;
}

/// The self-contained prelude: the shared runtime helpers (rendered
/// host+device callable) and the constant-table storage qualifier.
void emitCudaPrelude(Source &Out) {
  Out.line("typedef long long ht_int;");
  Out.line("#define HT_TABLE static __constant__ ht_int");
  Out.line("#define HT_FN static __host__ __device__ __forceinline__");
  Out.raw(portableHelperFunctions("HT_FN"));
}

} // namespace

std::string codegen::emitCuda(const CompiledHybrid &C, EmitSchedule S) {
  EmissionPlan Plan = EmissionPlan::build(C, S);
  const ir::StencilProgram &P = *Plan.Program;

  Source Out;
  Out.line("// " + P.name() + ": " + std::string(emitScheduleName(S)) +
           " tiling (CUDA rendering)");
  Out.line("// tile: " + C.schedule().params().str());
  Out.line("// memory strategy (Sec. 4.2 ladder): " + Plan.Config.str());
  // The default per-block __shared__ budget (sm_50+ guarantee; larger
  // opt-ins exist but need cudaFuncSetAttribute). Oversized windows --
  // typically the hex flavor, whose degenerate inner tiles span the whole
  // inner extent -- would fail nvcc with an opaque "too much shared data";
  // flag them loudly here instead of leaving the failure latent.
  // The overlapped flavor's windows live in ordinary __device__ memory
  // (they span the oband -> ocopy launch boundary), so the __shared__
  // budget does not apply to it.
  constexpr int64_t SharedBudgetBytes = 48 * 1024;
  if (S != EmitSchedule::Overlapped &&
      Plan.stagedBytesPerBlock() > SharedBudgetBytes)
    Out.line("// WARNING: staging windows need " +
             std::to_string(Plan.stagedBytesPerBlock()) +
             " bytes of __shared__ per block, over the " +
             std::to_string(SharedBudgetBytes) +
             "-byte budget; this unit will not build with nvcc -- use "
             "the hybrid flavor or smaller tiles.");
  if (S == EmitSchedule::Hybrid) {
    Out.line("// schedule:");
    std::string Text = C.schedule().str();
    std::string Line;
    for (char Ch : Text) {
      if (Ch == '\n') {
        Out.line("//   " + Line);
        Line.clear();
      } else {
        Line += Ch;
      }
    }
  }
  Out.blank();
  emitCudaPrelude(Out);
  Out.blank();
  // Every kernel launches (1, w1, ..., wn) threads, as in Sec. 6.2.
  emitUnit(Out, Plan, cudaHooks(std::max<int64_t>(C.threadsPerBlock(), 1)));
  return Out.take();
}
