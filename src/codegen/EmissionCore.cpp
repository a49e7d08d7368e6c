//===- EmissionCore.cpp - Target-neutral kernel emission ------------------===//

#include "codegen/EmissionCore.h"

#include "core/IterationDomain.h"
#include "core/OverlappedSchedule.h"

#include <algorithm>

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace hextile;
using namespace hextile::codegen;

const char *codegen::emitScheduleName(EmitSchedule S) {
  switch (S) {
  case EmitSchedule::Hex:
    return "hex";
  case EmitSchedule::Hybrid:
    return "hybrid";
  case EmitSchedule::Classical:
    return "classical";
  case EmitSchedule::Overlapped:
    return "overlapped";
  }
  return "?";
}

std::string codegen::formatFloatExact(float V) {
  if (!std::isfinite(V)) {
    uint32_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "ht_f32bits(0x%08xu)", Bits);
    return Buf;
  }
  char Buf[64];
  // Hex-float literals round-trip every finite float exactly; the literal
  // is a double constant whose value is float-representable, so the 'f'
  // suffix narrows without rounding.
  std::snprintf(Buf, sizeof(Buf), "%af", static_cast<double>(V));
  return Buf;
}

std::string codegen::renderExprExact(const ir::StencilExpr &E,
                                     std::span<const std::string> ReadNames) {
  using ir::ExprKind;
  auto Sub = [&](const ir::StencilExpr *S) {
    return renderExprExact(*S, ReadNames);
  };
  switch (E.kind()) {
  case ExprKind::ReadRef:
    assert(E.readIndex() < ReadNames.size() && "read index out of range");
    return ReadNames[E.readIndex()];
  case ExprKind::ConstF32:
    return formatFloatExact(E.constantValue());
  case ExprKind::Add:
    return "(" + Sub(E.lhs()) + " + " + Sub(E.rhs()) + ")";
  case ExprKind::Sub:
    return "(" + Sub(E.lhs()) + " - " + Sub(E.rhs()) + ")";
  case ExprKind::Mul:
    return "(" + Sub(E.lhs()) + " * " + Sub(E.rhs()) + ")";
  case ExprKind::Div:
    return "(" + Sub(E.lhs()) + " / " + Sub(E.rhs()) + ")";
  case ExprKind::Neg:
    return "(-" + Sub(E.lhs()) + ")";
  case ExprKind::Sqrt:
    return "sqrtf(" + Sub(E.lhs()) + ")";
  case ExprKind::Abs:
    return "fabsf(" + Sub(E.lhs()) + ")";
  case ExprKind::Min:
    return "ht_minf(" + Sub(E.lhs()) + ", " + Sub(E.rhs()) + ")";
  case ExprKind::Max:
    return "ht_maxf(" + Sub(E.lhs()) + ", " + Sub(E.rhs()) + ")";
  }
  assert(false && "unknown expression kind");
  return "?";
}

std::string codegen::portableHelperFunctions(const std::string &Qualifier) {
  std::string Q = Qualifier + " ";
  std::string S;
  S += "/// Floor division (rounds toward negative infinity, unlike C's /).\n";
  S += Q + "ht_int ht_fdiv(ht_int N, ht_int D) {\n";
  S += "  ht_int Q = N / D;\n";
  S += "  if ((N % D) != 0 && ((N % D < 0) != (D < 0)))\n";
  S += "    --Q;\n";
  S += "  return Q;\n";
  S += "}\n";
  S += "/// Euclidean remainder: always in [0, |D|).\n";
  S += Q + "ht_int ht_emod(ht_int N, ht_int D) {\n";
  S += "  ht_int R = N % D;\n";
  S += "  if (R < 0)\n";
  S += "    R += (D < 0 ? -D : D);\n";
  S += "  return R;\n";
  S += "}\n";
  S += "/// Exactly std::min / std::max over floats (the executor's "
       "semantics).\n";
  S += Q + "float ht_minf(float A, float B) { return (B < A) ? B : A; }\n";
  S += Q + "float ht_maxf(float A, float B) { return (A < B) ? B : A; }\n";
  S += "/// Float from raw bits (non-finite constants are emitted through "
       "this).\n";
  S += Q + "float ht_f32bits(unsigned int Bits) {\n";
  S += "  union { unsigned int U; float F; } Pun;\n";
  S += "  Pun.U = Bits;\n";
  S += "  return Pun.F;\n";
  S += "}\n";
  return S;
}

std::string EmissionPlan::fieldArg(unsigned F) const {
  return "g_" + Program->fields()[F].Name;
}

std::string EmissionPlan::fieldParams() const {
  std::string S;
  for (unsigned F = 0; F < Program->fields().size(); ++F) {
    if (F)
      S += ", ";
    S += "float *" + fieldArg(F);
  }
  return S;
}

std::string EmissionPlan::fieldArgs() const {
  std::string S;
  for (unsigned F = 0; F < Program->fields().size(); ++F) {
    if (F)
      S += ", ";
    S += fieldArg(F);
  }
  return S;
}

int64_t EmissionPlan::fieldTotalElems(unsigned F) const {
  return static_cast<int64_t>(Depth[F]) * PointsPerCopy;
}

std::string EmissionPlan::stageArg(unsigned F) const {
  return "ht_s_" + Program->fields()[F].Name;
}

int64_t EmissionPlan::stageTotalElems(unsigned F) const {
  return static_cast<int64_t>(Depth[F]) * Staging.WindowPoints;
}

int64_t EmissionPlan::stagedBytesPerBlock() const {
  if (!Staging.Enabled)
    return 0;
  int64_t Bytes = 0;
  for (unsigned F = 0; F < Program->fields().size(); ++F)
    Bytes += stageTotalElems(F) * static_cast<int64_t>(sizeof(float));
  return Bytes;
}

namespace {

/// Evaluates the Sec. 4.2 staging window of \p Plan from the compile's
/// OptimizationConfig. Per dimension, the window covers the tile's spatial
/// footprint (the hexagon's b bounding box for the hexagonal dimension,
/// the tile width elsewhere), padded *below* by the skew travel (local
/// coordinates shift down by up to skew(2h+1) over a period) plus the
/// stencil's low halo, and *above* by the high halo -- so every staged
/// read of every guarded point lands inside the window. Aligned loads
/// (Sec. 4.2.3) translate the innermost base down to a 128-byte boundary
/// and pad the extent to compensate.
void buildStagingPlan(EmissionPlan &Plan, const OptimizationConfig &Cfg) {
  StagingPlan &St = Plan.Staging;
  // The fifth family *requires* staging -- the band computes entirely
  // against the tile-private window -- and only supports the direct
  // window placement: the separate ocopy kernel re-derives window
  // offsets, so the static mod-mapping and the alignment translation
  // would have to be replicated there for no benefit.
  bool Overlapped = Plan.Schedule == EmitSchedule::Overlapped;
  St.Enabled = Overlapped || Cfg.useSharedMemory();
  if (!St.Enabled)
    return;
  if (!Overlapped) {
    St.Interleaved = Cfg.interleaveCopyOut();
    St.StaticPlacement = Cfg.reuse() == ReuseKind::Static;
    St.AlignQuantum = Cfg.alignLoads() ? 32 : 1;
  }
  const ir::StencilProgram &P = *Plan.Program;
  unsigned Base = Plan.innerBaseDim();
  for (unsigned Dim = 0; Dim < Plan.Rank; ++Dim) {
    int64_t Foot, LoPad = P.loHalo(Dim), HiPad = P.hiHalo(Dim);
    if (Overlapped && Dim == 0) {
      // Core tile padded by the band-entry footprint: every margin cell
      // and every pre-band read of the band lands inside it.
      Foot = Plan.Over.TileW;
      LoPad = Plan.Over.FootLo;
      HiPad = Plan.Over.FootHi;
    } else if (Plan.TwoPhase && Dim == 0) {
      Foot = Plan.MaxB - Plan.MinB + 1;
    } else {
      const InnerTilePlan &I = Plan.Inner[Dim - Base];
      Foot = I.Width;
      int64_t SkewMax = 0;
      for (int64_t V : I.SkewByU)
        SkewMax = std::max(SkewMax, V);
      LoPad += SkewMax;
    }
    int64_t Ext = Foot + LoPad + HiPad;
    if (Dim == Plan.Rank - 1 && St.AlignQuantum > 1)
      Ext += St.AlignQuantum - 1;
    St.LoPad.push_back(LoPad);
    St.Ext.push_back(Ext);
    St.WindowPoints *= Ext;
  }
}

} // namespace

EmissionPlan EmissionPlan::build(const CompiledHybrid &C, EmitSchedule S) {
  const ir::StencilProgram &P = C.program();
  const core::HybridSchedule &Sched = C.schedule();
  const core::HexTileParams &Par = Sched.params();
  core::IterationDomain D = core::IterationDomain::forProgram(P);

  EmissionPlan Plan;
  Plan.Program = &P;
  Plan.Schedule = S;
  Plan.Config = C.config();
  Plan.Rank = P.spaceRank();
  Plan.NumStmts = D.NumStmts;
  Plan.TimeExtent = D.TimeExtent;
  Plan.Sizes = P.spaceSizes();
  Plan.Lo = D.SpaceLo;
  Plan.Hi = D.SpaceHi;
  Plan.PointsPerCopy = 1;
  for (int64_t Sz : Plan.Sizes)
    Plan.PointsPerCopy *= Sz;
  Plan.Depth.resize(P.fields().size());
  for (unsigned F = 0; F < P.fields().size(); ++F)
    Plan.Depth[F] = P.bufferDepth(F);
  Plan.Period = Par.timePeriod();

  // One classically tiled dimension (eqs. (14)/(17)): its skew table over
  // a full period, and the tile-index range covering [Lo, Hi) for all u:
  // s + skew(u) spans [Lo + 0, Hi - 1 + skew(2h+1)] since skew is monotone
  // with skew(0) = 0.
  auto Tiled = [&](const core::ClassicalTiling &T, unsigned Dim) {
    InnerTilePlan I;
    I.Width = T.width();
    I.SkewNum = T.delta1().num();
    I.SkewDen = T.delta1().den();
    for (int64_t U = 0; U < Plan.Period; ++U)
      I.SkewByU.push_back(T.skew(U));
    I.TileLo = floorDiv(Plan.Lo[Dim], I.Width);
    I.TileHi = floorDiv(Plan.Hi[Dim] - 1 + I.SkewByU[Plan.Period - 1],
                        I.Width);
    if (I.TileHi < I.TileLo)
      I.TileHi = I.TileLo; // Empty update domain: keep a well-formed loop.
    return I;
  };
  // An untiled dimension: one degenerate unskewed tile covering the whole
  // extent, so the in-kernel loops sweep [0, size) with the usual domain
  // guards.
  auto Untiled = [&](unsigned Dim) {
    InnerTilePlan I;
    I.Width = std::max<int64_t>(Plan.Hi[Dim], 1);
    I.SkewByU.assign(Plan.Period, 0);
    return I;
  };

  if (S == EmitSchedule::Classical) {
    Plan.BandHi = Plan.TimeExtent > 0
                      ? floorDiv(Plan.TimeExtent - 1, Plan.Period)
                      : -1;
    // Every spatial dimension is classically tiled: dim 0 with the hex
    // parameters' width and lower cone slope, inner dims as in the hybrid
    // schedule (the Sec. 3.4 scheme the oracle's Classical kind replays).
    Plan.Inner.push_back(
        Tiled(core::ClassicalTiling(Par.W0, Par.Delta1, Plan.Period), 0));
  } else if (S == EmitSchedule::Overlapped) {
    // Band height: the hexagonal time period expressed in full steps,
    // clamped to a small range -- the redundancy (and the footprint) grow
    // linearly with the band, so deep bands only pay off when launches
    // are expensive.
    int64_t Steps = std::clamp<int64_t>(
        Plan.Period / std::max<int64_t>(Plan.NumStmts, 1), 1, 4);
    core::OverlappedSchedule Ov(P, Steps, std::max<int64_t>(Par.W0, 1));
    Plan.Over.TileW = Ov.tileWidth();
    Plan.Over.BandSteps = Ov.bandSteps();
    Plan.Over.NumTiles = Ov.numTiles();
    Plan.Over.NumBands = Ov.numBands(P.timeSteps());
    Plan.Over.Ticks = Ov.ticksPerBand();
    Plan.Over.FootLo = Ov.footLo();
    Plan.Over.FootHi = Ov.footHi();
    for (int64_t V = 0; V < Ov.ticksPerBand(); ++V) {
      Plan.Over.MLo.push_back(Ov.marginLo(V));
      Plan.Over.MHi.push_back(Ov.marginHi(V));
    }
  } else {
    Plan.TwoPhase = true;
    Plan.SpacePeriod = Par.spacePeriod();
    Plan.Drift = Par.drift();
    for (int Phase = 0; Phase < 2; ++Phase) {
      Sched.hex().tileOrigin(0, Phase, 0, Plan.OrigT[Phase],
                             Plan.OrigS[Phase]);
      // Time tiles whose window [TT*P + OrigT, TT*P + OrigT + P) meets the
      // canonical time range [0, TimeExtent).
      Plan.TTLo[Phase] = ceilDiv(1 - Plan.Period - Plan.OrigT[Phase],
                                 Plan.Period);
      Plan.TTHi[Phase] = Plan.TimeExtent > 0
                             ? floorDiv(Plan.TimeExtent - 1 -
                                            Plan.OrigT[Phase],
                                        Plan.Period)
                             : Plan.TTLo[Phase] - 1;
    }
    const core::HexagonGeometry &Hex = Sched.hex().hexagon();
    Plan.MinB = Hex.minB();
    Plan.MaxB = Hex.maxB();
    Plan.RowLo.resize(Plan.Period);
    Plan.RowHi.resize(Plan.Period);
    for (int64_t A = 0; A < Plan.Period; ++A)
      Hex.rowRange(A, Plan.RowLo[A], Plan.RowHi[A]);
  }

  // Dims 1..Rank-1 are tiled as in the hybrid schedule by Hybrid and
  // Classical; Hex and Overlapped leave them untiled.
  bool TileInner =
      S == EmitSchedule::Hybrid || S == EmitSchedule::Classical;
  for (unsigned Dim = 1; Dim < Plan.Rank; ++Dim)
    Plan.Inner.push_back(TileInner ? Tiled(Sched.inner()[Dim - 1], Dim)
                                   : Untiled(Dim));
  buildStagingPlan(Plan, C.config());
  return Plan;
}

namespace {

std::string i64(int64_t V) { return std::to_string(V); }

/// "s<Dim>" -- the canonical coordinate variable naming of the emitted code.
std::string coordVar(unsigned Dim) { return "s" + std::to_string(Dim); }

/// Skew table name for spatial dimension \p Dim.
std::string skewTable(unsigned Dim) {
  return "ht_skew" + std::to_string(Dim);
}

/// Row-major index of \p Coords over the extents \p Strides (a Horner
/// chain; Strides[0] is unused).
std::string hornerIndex(const std::vector<std::string> &Coords,
                        std::span<const int64_t> Strides) {
  std::string L = Coords[0];
  for (size_t Dim = 1; Dim < Coords.size(); ++Dim)
    L = "(" + L + ") * " + i64(Strides[Dim]) + " + " + Coords[Dim];
  return L;
}

/// "s<Dim> + (<Off>)", or "s<Dim>" when \p Off is 0.
std::string offsetCoord(unsigned Dim, int64_t Off) {
  return Off == 0 ? coordVar(Dim) : coordVar(Dim) + " + (" + i64(Off) + ")";
}

/// \p Linear placed in the rotating slot of field \p F at time step
/// expression \p StepExpr, whose copies hold \p CopyElems elements each.
std::string inSlot(const EmissionPlan &Plan, unsigned F,
                   const std::string &StepExpr, int64_t CopyElems,
                   const std::string &Linear) {
  if (Plan.Depth[F] == 1)
    return Linear;
  std::string Slot =
      "ht_emod(" + StepExpr + ", " + i64(Plan.Depth[F]) + ")";
  return Slot + " * " + i64(CopyElems) + " + " + Linear;
}

/// Flat element index of field \p F at time step expression \p StepExpr
/// and (s0 + off0, s1 + off1, ...): rotating slot times copy size plus the
/// row-major offset, a Horner chain over the (compile-time) grid extents.
std::string elementIndexExpr(const EmissionPlan &Plan, unsigned F,
                             const std::string &StepExpr,
                             std::span<const int64_t> Offsets) {
  std::vector<std::string> Coords;
  for (unsigned Dim = 0; Dim < Plan.Rank; ++Dim) {
    int64_t Off = Dim < Offsets.size() ? Offsets[Dim] : 0;
    Coords.push_back(Off == 0 ? coordVar(Dim)
                              : "(" + offsetCoord(Dim, Off) + ")");
  }
  return inSlot(Plan, F, StepExpr, Plan.PointsPerCopy,
                hornerIndex(Coords, Plan.Sizes));
}

/// The in-window coordinates of (s0 + off0, ...): window placement
/// subtracts the per-tile base ht_wb<d>; static placement (Sec. 4.2.2)
/// maps through the fixed s mod Ext[d] scheme instead.
std::vector<std::string> stagedCoords(const EmissionPlan &Plan,
                                      std::span<const int64_t> Offsets) {
  const StagingPlan &St = Plan.Staging;
  std::vector<std::string> Coords;
  for (unsigned Dim = 0; Dim < Plan.Rank; ++Dim) {
    std::string G =
        offsetCoord(Dim, Dim < Offsets.size() ? Offsets[Dim] : 0);
    Coords.push_back(St.StaticPlacement
                         ? "ht_emod(" + G + ", " + i64(St.Ext[Dim]) + ")"
                         : "(" + G + " - ht_wb" + std::to_string(Dim) + ")");
  }
  return Coords;
}

/// Flat *staging-buffer* element index of field \p F at (s0 + off0, ...):
/// rotating slot times window size plus the in-window offset.
std::string stagedIndexExpr(const EmissionPlan &Plan, unsigned F,
                            const std::string &StepExpr,
                            std::span<const int64_t> Offsets) {
  return inSlot(Plan, F, StepExpr, Plan.Staging.WindowPoints,
                hornerIndex(stagedCoords(Plan, Offsets), Plan.Staging.Ext));
}

} // namespace

std::vector<SweptStmt> codegen::sweptStmts(const EmissionPlan &Plan,
                                           bool CopyOut) {
  const StagingPlan &Staging = Plan.Staging;
  unsigned In = Plan.Rank - 1;
  std::vector<SweptStmt> Stmts;
  for (const ir::StencilStmt &St : Plan.Program->stmts()) {
    SweptStmt S;
    S.Name = St.Name;
    // Per group: its rotating slot and its first access's offsets, from
    // which the other accesses' displacements are taken.
    std::vector<int64_t> Slots;
    std::vector<std::vector<int64_t>> First;
    auto Add = [&](unsigned F, bool Staged, int64_t TimeOffset,
                   std::span<const int64_t> Offsets) {
      std::vector<int64_t> Off(Offsets.begin(), Offsets.end());
      Off.resize(Plan.Rank, 0);
      std::string Step = TimeOffset == 0
                             ? "ht_step"
                             : "ht_step + (" + i64(TimeOffset) + ")";
      SweptAccess A;
      A.PointIdx = Staged ? stagedIndexExpr(Plan, F, Step, Off)
                          : elementIndexExpr(Plan, F, Step, Off);
      AccessGroup G{Staged ? Plan.stageArg(F) : Plan.fieldArg(F),
                    Staged ? Plan.stageTotalElems(F)
                           : Plan.fieldTotalElems(F),
                    A.PointIdx};
      int64_t Slot = euclidMod(TimeOffset, Plan.Depth[F]);
      // Cells wrap mod Ext within the window row: no fixed displacement,
      // so the accesses sharing a row (its slot and outer offsets) check
      // the whole row once.
      bool Wraps = Staged && Staging.StaticPlacement;
      if (Wraps) {
        std::vector<std::string> Coords = stagedCoords(Plan, Off);
        Coords[In] = "0";
        G.Base = inSlot(Plan, F, Step, Staging.WindowPoints,
                        hornerIndex(Coords, Staging.Ext));
        G.Wrap = Staging.Ext[In];
        A.WrapCoord = offsetCoord(In, Off[In]);
      }
      for (A.Group = 0; A.Group < S.Groups.size(); ++A.Group)
        if (S.Groups[A.Group].Buffer == G.Buffer && Slots[A.Group] == Slot &&
            (!Wraps || std::equal(Off.begin(), Off.begin() + In,
                                  First[A.Group].begin())))
          break;
      if (A.Group == S.Groups.size()) {
        S.Groups.push_back(G);
        Slots.push_back(Slot);
        First.push_back(Off);
        return A;
      }
      if (Wraps)
        return A;
      const std::vector<int64_t> &Ext = Staged ? Staging.Ext : Plan.Sizes;
      for (unsigned Dim = 0; Dim < Plan.Rank; ++Dim)
        A.Disp = A.Disp * Ext[Dim] + Off[Dim] - First[A.Group][Dim];
      AccessGroup &Grp = S.Groups[A.Group];
      Grp.Lo = std::min(Grp.Lo, A.Disp);
      Grp.Hi = std::max(Grp.Hi, A.Disp);
      return A;
    };
    std::vector<int64_t> NoOffsets(Plan.Rank, 0);
    if (CopyOut) {
      S.Reads.push_back(Add(St.WriteField, true, 0, NoOffsets));
      S.Writes.push_back(Add(St.WriteField, false, 0, NoOffsets));
      Stmts.push_back(std::move(S));
      continue;
    }
    std::vector<std::string> ReadNames;
    for (unsigned R = 0; R < St.Reads.size(); ++R) {
      const ir::ReadAccess &Rd = St.Reads[R];
      S.Reads.push_back(
          Add(Rd.Field, Staging.Enabled, Rd.TimeOffset, Rd.Offsets));
      ReadNames.push_back("ht_v" + std::to_string(R));
    }
    S.RHS = renderExprExact(St.RHS, ReadNames);
    if (Staging.Enabled)
      S.Writes.push_back(Add(St.WriteField, true, 0, NoOffsets));
    if (!Staging.Enabled || Staging.Interleaved)
      S.Writes.push_back(Add(St.WriteField, false, 0, NoOffsets));
    Stmts.push_back(std::move(S));
  }
  return Stmts;
}

void codegen::emitSweepDispatch(
    Source &Out, const EmissionPlan &Plan, const ComputeSweep &Sweep,
    const std::function<void(const SweptStmt &)> &Update) {
  if (Plan.NumStmts == 1) {
    Out.line("const ht_int ht_step = t;");
    Out.line("// " + Sweep.Stmts[0].Name);
    Update(Sweep.Stmts[0]);
    return;
  }
  Out.line("const ht_int ht_step = t / " + i64(Plan.NumStmts) + ";");
  Out.open("switch ((int)(t % " + i64(Plan.NumStmts) + "))");
  for (unsigned I = 0; I < Plan.NumStmts; ++I) {
    Out.open("case " + std::to_string(I) + ": { // " + Sweep.Stmts[I].Name);
    Update(Sweep.Stmts[I]);
    Out.close(" break;");
  }
  Out.close();
}

/// Compute: the reads, the exact RHS and the write. Without staging both
/// sides address the global rotating buffers; with staging the reads and
/// the write go to the tile-local window, plus a same-expression global
/// store when the copy-out is interleaved (Sec. 4.2.1). Copy-out: the move
/// global[write cell] = staged[write cell].
void codegen::emitSweptUpdate(
    Source &Out, const EmissionPlan &Plan, const SweptStmt &St,
    const std::function<std::string(const SweptAccess &)> &Cell) {
  if (St.RHS.empty()) {
    Out.line(Cell(St.Writes[0]) + " = " + Cell(St.Reads[0]) + ";");
    return;
  }
  for (size_t R = 0; R < St.Reads.size(); ++R)
    Out.line("const float ht_v" + std::to_string(R) + " = " +
             Cell(St.Reads[R]) + ";");
  if (!Plan.Staging.Enabled) {
    Out.line(Cell(St.Writes[0]) + " = " + St.RHS + ";");
    return;
  }
  Out.line("const float ht_out = " + St.RHS + ";");
  for (const SweptAccess &W : St.Writes)
    Out.line(Cell(W) + " = ht_out;");
}

namespace {

/// The domain test of s0..s(NumDims-1).
std::string domainGuard(const EmissionPlan &Plan, unsigned NumDims) {
  std::string Guard;
  for (unsigned Dim = 0; Dim < NumDims; ++Dim) {
    if (Dim)
      Guard += " && ";
    Guard += coordVar(Dim) + " >= " + i64(Plan.Lo[Dim]) + " && " +
             coordVar(Dim) + " < " + i64(Plan.Hi[Dim]);
  }
  return Guard;
}

/// Emits the per-tile staging-window base variables ht_wb<d>: the lowest
/// grid coordinate the window covers in each dimension. Aligned loads
/// translate the innermost base down to the 128-byte quantum.
void emitStageBases(Source &Out, const EmissionPlan &Plan) {
  const StagingPlan &St = Plan.Staging;
  for (unsigned Dim = 0; Dim < Plan.Rank; ++Dim) {
    std::string Base;
    if (Plan.TwoPhase && Dim == 0)
      Base = "s0_0 + (" + i64(Plan.MinB - St.LoPad[0]) + ")";
    else if (Plan.Schedule == EmitSchedule::Overlapped && Dim == 0)
      Base = "S0 * " + i64(Plan.Over.TileW) + " + (" + i64(-St.LoPad[0]) +
             ")";
    else
      Base = "S" + std::to_string(Dim) + " * " +
             i64(Plan.Inner[Dim - Plan.innerBaseDim()].Width) + " + (" +
             i64(-St.LoPad[Dim]) + ")";
    if (Dim == Plan.Rank - 1 && St.AlignQuantum > 1)
      Base = "ht_fdiv(" + Base + ", " + i64(St.AlignQuantum) + ") * " +
             i64(St.AlignQuantum);
    Out.line("const ht_int ht_wb" + std::to_string(Dim) + " = " + Base +
             ";");
  }
}

/// One dimension of a WindowCopy under construction: the positions it
/// spans, the lines binding a position, the bound position's global and
/// staging coordinates and its grid test ("" when always inside).
struct CopyAxis {
  int64_t Count;
  std::vector<std::string> Bind;
  std::string Global, Staged, Guard;
};

/// Completes \p Copy from its dimensions \p Axes and the global bounds
/// [RunLo, RunHi) of the innermost dimension's run, already clipped to the
/// grid: the guards, the element indices of a bound position, and the
/// run's per-tile declarations and first-cell indices. Under static
/// placement the run's staging slots start at ht_emod(ht_run_lo, Ext) and
/// wrap at most once, since the run spans at most Ext cells.
void finishWindowCopy(const EmissionPlan &Plan, WindowCopy &Copy,
                      const std::vector<CopyAxis> &Axes,
                      const std::string &RunLo, const std::string &RunHi) {
  const StagingPlan &St = Plan.Staging;
  unsigned In = Plan.Rank - 1;
  std::vector<std::string> Global, Staged;
  for (unsigned Dim = 0; Dim < Plan.Rank; ++Dim) {
    const CopyAxis &A = Axes[Dim];
    Copy.Count.push_back(A.Count);
    Copy.Bind.push_back(A.Bind);
    Global.push_back(A.Global);
    Staged.push_back(A.Staged);
    if (A.Guard.empty())
      continue;
    Copy.Guard += (Copy.Guard.empty() ? "" : " && ") + A.Guard;
    if (Dim < In)
      Copy.OuterGuard = Copy.Guard;
  }
  std::string StageSlot = "ht_r * " + i64(St.WindowPoints) + " + ";
  std::string GlobalSlot = "ht_r * " + i64(Plan.PointsPerCopy) + " + ";
  Copy.StageIdx = StageSlot + hornerIndex(Staged, St.Ext);
  Copy.GlobalIdx = GlobalSlot + hornerIndex(Global, Plan.Sizes);

  Copy.RunSetup = {"const ht_int ht_run_lo = " + RunLo + ";",
                   "const ht_int ht_run_hi = " + RunHi + ";"};
  Global[In] = "ht_run_lo";
  Copy.RunGlobalIdx = GlobalSlot + hornerIndex(Global, Plan.Sizes);
  if (!St.StaticPlacement) {
    Staged[In] = "(ht_run_lo - ht_wb" + std::to_string(In) + ")";
    Copy.RunStageIdx = StageSlot + hornerIndex(Staged, St.Ext);
    return;
  }
  std::string Ext = i64(St.Ext[In]);
  Copy.RunSetup.push_back("const ht_int ht_run_slot = ht_emod(ht_run_lo, " +
                          Ext + ");");
  Copy.RunSetup.push_back(
      "const ht_int ht_run_cut = ht_run_hi - ht_run_lo < " + Ext +
      " - ht_run_slot ? ht_run_hi - ht_run_lo : " + Ext + " - ht_run_slot;");
  Staged[In] = "ht_run_slot";
  Copy.RunStageIdx = StageSlot + hornerIndex(Staged, St.Ext);
  Staged[In] = "0";
  Copy.RunWrapIdx = StageSlot + hornerIndex(Staged, St.Ext);
}

/// The cooperative load of every field: the whole (depth x window) box,
/// guarded to the grid (window cells outside the grid are never read by
/// the guarded compute, so they stay unloaded). Window placement stores
/// at the window position, static placement at s mod Ext per dimension.
WindowCopy stageLoadCopy(const EmissionPlan &Plan) {
  const StagingPlan &St = Plan.Staging;
  WindowCopy Copy;
  Copy.Tid = "ht_ld";
  for (unsigned F = 0; F < Plan.Program->fields().size(); ++F)
    Copy.Fields.push_back(F);
  std::vector<CopyAxis> Axes;
  for (unsigned Dim = 0; Dim < Plan.Rank; ++Dim) {
    std::string D = std::to_string(Dim), W = "ht_w" + D, G = "ht_g" + D;
    std::string Ext = i64(St.Ext[Dim]), Size = i64(Plan.Sizes[Dim]);
    Axes.push_back(
        {St.Ext[Dim],
         {"const ht_int " + W + " = ht_r % " + Ext + "; ht_r /= " + Ext + ";",
          "const ht_int " + G + " = ht_wb" + D + " + " + W + ";"},
         G,
         St.StaticPlacement ? "ht_emod(" + G + ", " + Ext + ")" : W,
         G + " >= 0 && " + G + " < " + Size});
  }
  unsigned In = Plan.Rank - 1;
  std::string Wb = "ht_wb" + std::to_string(In);
  std::string End = Wb + " + " + i64(St.Ext[In]);
  std::string Size = i64(Plan.Sizes[In]);
  finishWindowCopy(Plan, Copy, Axes, Wb + " > 0 ? " + Wb + " : 0",
                   End + " < " + Size + " ? " + End + " : " + Size);
  return Copy;
}

/// Emits the cooperative load phase (stageLoadCopy), then one barrier
/// before any staged value is consumed.
void emitStageLoads(Source &Out, const EmissionPlan &Plan,
                    const EmitTargetHooks &Hooks) {
  Out.line("// Cooperative load phase: global -> staging window.");
  Hooks.copyWindow(Out, Plan, stageLoadCopy(Plan));
  Hooks.barrier(Out);
}

/// The skew of inner dimension \p Dim at local time \p UVar: "" or
/// " - ht_skew<Dim>[UVar]".
std::string skewTerm(const EmissionPlan &Plan, unsigned Dim,
                     const std::string &UVar) {
  if (Plan.Inner[Dim - Plan.innerBaseDim()].SkewNum == 0)
    return "";
  return " - " + skewTable(Dim) + "[" + UVar + "]";
}

/// Dimension 0 of a barrier region: position X of its Count positions sits
/// at s0 = Origin + X + Skew (Skew is "" or a skewTerm). An empty Count is
/// the constant Width.
struct RegionDim0 {
  std::string Origin, Skew, Count;
  int64_t Width = 0;

  /// The position count times \p Factor, folded when constant.
  std::string times(int64_t Factor) const {
    if (Count.empty())
      return i64(Width * Factor);
    return Factor == 1 ? Count : Count + " * " + i64(Factor);
  }
};

/// The lines binding s1..s(EndDim-1) and s0 from the linear id \p Tid:
/// the local coordinates of the classically tiled dimensions, innermost
/// fastest, then s0 from the leftover quotient, a position along \p D0.
std::vector<std::string> bindCoords(const EmissionPlan &Plan, unsigned EndDim,
                                    const std::string &Tid,
                                    const RegionDim0 &D0,
                                    const std::string &UVar) {
  unsigned Base = Plan.innerBaseDim();
  std::vector<std::string> Lines;
  std::string Q = Tid;
  if (EndDim > 1) {
    Lines.push_back("ht_int ht_r = " + Tid + ";");
    for (unsigned Dim = EndDim; Dim-- > 1;) {
      std::string D = std::to_string(Dim);
      std::string W = i64(Plan.Inner[Dim - Base].Width);
      Lines.push_back("const ht_int ht_l" + D + " = ht_r % " + W +
                      "; ht_r /= " + W + ";");
      Lines.push_back("const ht_int " + coordVar(Dim) + " = S" + D + " * " +
                      W + " + ht_l" + D + skewTerm(Plan, Dim, UVar) + ";");
    }
    Q = "ht_r";
  }
  Lines.push_back("const ht_int s0 = " + D0.Origin + " + " + Q + D0.Skew +
                  ";");
  return Lines;
}

/// Emits the sequential tile loops over the classically tiled dimensions
/// (a `const` binding when only one tile intersects the domain). Returns
/// how many scopes were opened.
unsigned emitTileLoops(Source &Out, const EmissionPlan &Plan) {
  unsigned Base = Plan.innerBaseDim();
  unsigned Opened = 0;
  for (unsigned Dim = Base; Dim < Plan.Rank; ++Dim) {
    const InnerTilePlan &I = Plan.Inner[Dim - Base];
    std::string SV = "S" + std::to_string(Dim);
    if (I.singleTile()) {
      Out.line("const ht_int " + SV + " = " + i64(I.TileLo) + ";");
      continue;
    }
    Out.open("for (ht_int " + SV + " = " + i64(I.TileLo) + "; " + SV +
             " <= " + i64(I.TileHi) + "; ++" + SV + ")");
    ++Opened;
  }
  return Opened;
}

/// Product of the inner tile widths of dimensions [1, EndDim): the points
/// (EndDim = Rank) or outer rows (EndDim = Rank - 1) one dim-0 position of
/// a region holds.
int64_t innerWidthProduct(const EmissionPlan &Plan, unsigned EndDim) {
  unsigned Base = Plan.innerBaseDim();
  int64_t N = 1;
  for (unsigned Dim = 1; Dim < EndDim; ++Dim)
    N *= Plan.Inner[Dim - Base].Width;
  return N;
}

/// The statements of a unit's sweeps, evaluated once per unit: the compute
/// pass and the separate copy-out's replay of it (empty when the plan has
/// none).
struct UnitStmts {
  std::vector<SweptStmt> Compute, CopyOut;
};

/// The sweep over \p Stmts (the compute pass or the separate copy-out) of
/// one barrier region whose dimension 0 is \p D0, the inner skews indexed
/// by the local time \p UVar. The row form's innermost run is one inner
/// tile's width (dimension 0's span at rank 1), clipped to the domain.
ComputeSweep regionSweep(const EmissionPlan &Plan, const RegionDim0 &D0,
                         const std::string &UVar,
                         const std::vector<SweptStmt> &Stmts) {
  unsigned In = Plan.Rank - 1;
  ComputeSweep S;
  S.PointCount = D0.times(innerWidthProduct(Plan, Plan.Rank));
  S.PointBind = bindCoords(Plan, Plan.Rank, "ht_tid", D0, UVar);
  S.Guard = domainGuard(Plan, Plan.Rank);

  std::string Start = D0.Origin + D0.Skew, Len = D0.times(1);
  if (In > 0) {
    int64_t W = Plan.Inner[In - Plan.innerBaseDim()].Width;
    Start = "S" + std::to_string(In) + " * " + i64(W) +
            skewTerm(Plan, In, UVar);
    Len = i64(W);
  }
  std::string Run = coordVar(In), Lo = i64(Plan.Lo[In]),
              Hi = i64(Plan.Hi[In]), End = "ht_run + " + Len;
  S.RunSetup = {"const ht_int ht_run = " + Start + ";",
                "const ht_int " + Run + " = ht_run > " + Lo + " ? ht_run : " +
                    Lo + ";",
                "const ht_int ht_n = (" + End + " < " + Hi + " ? " + End +
                    " : " + Hi + ") - " + Run + ";"};
  S.RowCount = In == 0 ? "1" : D0.times(innerWidthProduct(Plan, In));
  if (In > 0)
    S.RowBind = bindCoords(Plan, In, "ht_row", D0, UVar);
  S.OuterGuard = domainGuard(Plan, In);
  S.Stmts = Stmts;
  return S;
}

/// The hexagonal local time loop over a: one pass either computes the
/// tile (the compute \p Stmts) or replays the same guarded enumeration
/// moving staged results back to global memory (the copy-out \p Stmts).
void emitHexTimeLoop(Source &Out, const EmissionPlan &Plan,
                     const EmitTargetHooks &Hooks,
                     const std::vector<SweptStmt> &Stmts) {
  Out.open("for (ht_int a = 0; a < " + i64(Plan.Period) + "; ++a)");
  Out.line("const ht_int t = t0 + a;");
  Out.line("const ht_int ht_nb = ht_row_hi[a] - ht_row_lo[a] + 1;");
  Out.open("if (t >= 0 && t < " + i64(Plan.TimeExtent) + " && ht_nb > 0)");
  Hooks.sweep(Out, Plan,
              regionSweep(Plan, {"s0_0 + ht_row_lo[a]", "", "ht_nb"}, "a",
                          Stmts));
  Out.close(); // Row guard.
  Hooks.barrier(Out);
  Out.close(); // a loop.
}

/// The staging orchestration shared by both bodies: per-tile bases and
/// cooperative loads, the compute pass, and -- when interleaving is off --
/// the separate copy-out replay. \p TimeLoop is the flavor's local time
/// loop (emitHexTimeLoop / emitClassicalTimeLoop).
void emitTilePasses(
    Source &Out, const EmissionPlan &Plan, const EmitTargetHooks &Hooks,
    const UnitStmts &Stmts,
    const std::function<void(Source &, const EmissionPlan &,
                             const EmitTargetHooks &,
                             const std::vector<SweptStmt> &)> &TimeLoop) {
  if (Plan.Staging.Enabled) {
    emitStageBases(Out, Plan);
    emitStageLoads(Out, Plan, Hooks);
  }
  TimeLoop(Out, Plan, Hooks, Stmts.Compute);
  if (Plan.Staging.Enabled && !Plan.Staging.Interleaved) {
    Out.line("// Separate copy-out: staged results -> global "
             "(interleaving off).");
    TimeLoop(Out, Plan, Hooks, Stmts.CopyOut);
  }
}

/// The classical local time loop over u; see emitHexTimeLoop.
void emitClassicalTimeLoop(Source &Out, const EmissionPlan &Plan,
                           const EmitTargetHooks &Hooks,
                           const std::vector<SweptStmt> &Stmts) {
  Out.open("for (ht_int u = 0; u < " + i64(Plan.Period) + "; ++u)");
  Out.line("const ht_int t = TB * " + i64(Plan.Period) + " + u;");
  Out.open("if (t < " + i64(Plan.TimeExtent) + ")");
  const InnerTilePlan &I0 = Plan.Inner[0];
  Hooks.sweep(Out, Plan,
              regionSweep(Plan,
                          {"S0 * " + i64(I0.Width), skewTerm(Plan, 0, "u"),
                           "", I0.Width},
                          "u", Stmts));
  Out.close(); // Time guard.
  Hooks.barrier(Out);
  Out.close(); // u loop.
}

/// Which fields some statement writes (the ocopy kernel only moves those;
/// read-only inputs are never modified, so copying them back would be a
/// wasted identity).
std::vector<bool> writtenFields(const EmissionPlan &Plan) {
  std::vector<bool> W(Plan.Program->fields().size(), false);
  for (const ir::StencilStmt &S : Plan.Program->stmts())
    W[S.WriteField] = true;
  return W;
}

/// Binds the per-tile slices of the file-scope overlapped scratch arrays
/// to the staging names the shared index machinery addresses. \p Phase
/// selects which fields the kernel touches (oband stages every field,
/// ocopy only the written ones).
void emitOverlappedStagePointers(Source &Out, const EmissionPlan &Plan,
                                 int Phase) {
  std::vector<bool> Written = writtenFields(Plan);
  for (unsigned F = 0; F < Plan.Program->fields().size(); ++F) {
    if (Phase != 0 && !Written[F])
      continue;
    Out.line("float *" + Plan.stageArg(F) + " = ht_sg_" +
             Plan.Program->fields()[F].Name + " + S0 * " +
             i64(Plan.stageTotalElems(F)) + ";");
  }
}

/// The oband kernel body: stage the tile's band-entry footprint, then run
/// the band's ticks against the private window with the per-tick redundant
/// margins. No global write happens here -- tiles are fully independent
/// until the ocopy launch.
void emitOverlappedBody(Source &Out, const EmissionPlan &Plan,
                        const EmitTargetHooks &Hooks,
                        const std::vector<SweptStmt> &Stmts) {
  const OverlappedPlan &Ov = Plan.Over;
  emitStageBases(Out, Plan);
  emitStageLoads(Out, Plan, Hooks);
  Out.line("// Band ticks with shrinking redundant margins (ht_mlo/ht_mhi);");
  Out.line("// every read resolves to the staged footprint or to an earlier");
  Out.line("// tick's wider trapezoid, so no inter-tile synchronization.");
  Out.open("for (ht_int ht_v = 0; ht_v < " + i64(Ov.Ticks) + "; ++ht_v)");
  Out.line("const ht_int t = TB * " + i64(Ov.Ticks) + " + ht_v;");
  Out.open("if (t < " + i64(Plan.TimeExtent) + ")");
  Out.line("const ht_int ht_lo0 = S0 * " + i64(Ov.TileW) +
           " - ht_mlo[ht_v];");
  Out.line("const ht_int ht_clo = ht_lo0 > " + i64(Plan.Lo[0]) +
           " ? ht_lo0 : " + i64(Plan.Lo[0]) + ";");
  Out.line("const ht_int ht_hi0 = (S0 + 1) * " + i64(Ov.TileW) +
           " + ht_mhi[ht_v];");
  Out.line("const ht_int ht_chi = ht_hi0 < " + i64(Plan.Hi[0]) +
           " ? ht_hi0 : " + i64(Plan.Hi[0]) + ";");
  Out.open("if (ht_chi > ht_clo)");
  Hooks.sweep(Out, Plan,
              regionSweep(Plan, {"ht_clo", "", "(ht_chi - ht_clo)"}, "ht_v",
                          Stmts));
  Out.close(); // Nonempty trapezoid guard.
  Out.close(); // Time guard.
  Hooks.barrier(Out);
  Out.close(); // Tick loop.
}

/// The ocopy kernel body: move every rotating slot of the tile's *core*
/// column (margins excluded -- the neighbor owning each cell wrote the
/// same bits) from the staged window back to global memory. Core columns
/// are disjoint, so concurrent tiles never write the same cell. Only the
/// written fields move: read-only inputs were never modified.
void emitOverlappedCopyBody(Source &Out, const EmissionPlan &Plan,
                            const EmitTargetHooks &Hooks) {
  const OverlappedPlan &Ov = Plan.Over;
  emitStageBases(Out, Plan);
  Out.line("const ht_int ht_core_lo = S0 * " + i64(Ov.TileW) + ";");
  Out.line("const ht_int ht_core_raw = ht_core_lo + " + i64(Ov.TileW) +
           ";");
  Out.line("const ht_int ht_core_hi = ht_core_raw < " +
           i64(Plan.Sizes[0]) + " ? ht_core_raw : " + i64(Plan.Sizes[0]) +
           ";");
  WindowCopy Copy;
  Copy.ToStaging = false;
  Copy.Tid = "ht_cp";
  std::vector<bool> Written = writtenFields(Plan);
  for (unsigned F = 0; F < Plan.Program->fields().size(); ++F)
    if (Written[F])
      Copy.Fields.push_back(F);
  // Dim 0 spans the core column, the untiled inner dimensions the grid.
  std::string TileW = i64(Ov.TileW);
  std::vector<CopyAxis> Axes = {
      {Ov.TileW,
       {"const ht_int ht_c0 = ht_core_lo + ht_r % " + TileW + "; ht_r /= " +
        TileW + ";"},
       "ht_c0",
       "(ht_c0 - ht_wb0)",
       "ht_c0 < ht_core_hi"}};
  for (unsigned Dim = 1; Dim < Plan.Rank; ++Dim) {
    std::string D = std::to_string(Dim), G = "ht_g" + D;
    std::string Size = i64(Plan.Sizes[Dim]);
    Axes.push_back(
        {Plan.Sizes[Dim],
         {"const ht_int " + G + " = ht_r % " + Size + "; ht_r /= " + Size +
          ";"},
         G,
         "(" + G + " - ht_wb" + D + ")",
         ""});
  }
  if (Plan.Rank == 1)
    finishWindowCopy(Plan, Copy, Axes, "ht_core_lo", "ht_core_hi");
  else
    finishWindowCopy(Plan, Copy, Axes, "0", i64(Plan.Sizes.back()));
  Hooks.copyWindow(Out, Plan, Copy);
}

/// Emits the body of one kernel: for Hex/Hybrid \p Phase selects the
/// hexagonal phase and the body expects `TT` (time tile) and `S0` (this
/// block's hexagonal tile index) in scope; for Classical \p Phase is
/// ignored and the body expects `TB` (time band); for Overlapped the body
/// expects `TB` and `S0` (this block's core tile index), and \p Phase
/// selects the band kernel (0, "oband") or the core copy-out kernel (1,
/// "ocopy").
void emitKernelBody(Source &Out, const EmissionPlan &Plan, int Phase,
                    const EmitTargetHooks &Hooks, const UnitStmts &Stmts) {
  bool Overlapped = Plan.Schedule == EmitSchedule::Overlapped;
  if (Overlapped) {
    // Overlapped windows are per-tile slices of the file-scope scratch
    // arrays (see emitUnit), not target-declared shared buffers:
    // they must survive the launch boundary between oband and ocopy.
    emitOverlappedStagePointers(Out, Plan, Phase);
  } else if (Plan.Staging.Enabled) {
    std::string Exts;
    for (size_t D = 0; D < Plan.Staging.Ext.size(); ++D)
      Exts += (D ? "x" : "") + i64(Plan.Staging.Ext[D]);
    Out.line("// Sec. 4.2 staging: per-tile " + Exts +
             " window per rotating copy" +
             (Plan.Staging.StaticPlacement ? ", static placement" : "") +
             (Plan.Staging.AlignQuantum > 1 ? ", 128B-aligned loads"
                                            : "") +
             ".");
    for (unsigned F = 0; F < Plan.Program->fields().size(); ++F)
      Hooks.declareShared(Out, Plan.stageArg(F), Plan.stageTotalElems(F));
  }
  if (Plan.TwoPhase) {
    // Tile origin: local (a, b) = (0, 0) sits at (t0, s0_0); see
    // HexSchedule::tileOrigin.
    Out.line("const ht_int t0 = TT * " + i64(Plan.Period) + " + (" +
             i64(Plan.OrigT[Phase]) + ");");
    Out.line("const ht_int s0_0 = S0 * " + i64(Plan.SpacePeriod) +
             " - TT * (" + i64(Plan.Drift) + ") + (" +
             i64(Plan.OrigS[Phase]) + ");");
  }
  unsigned TileScopes = emitTileLoops(Out, Plan);
  if (Overlapped && Phase == 0)
    emitOverlappedBody(Out, Plan, Hooks, Stmts.Compute);
  else if (Overlapped)
    emitOverlappedCopyBody(Out, Plan, Hooks);
  else
    emitTilePasses(Out, Plan, Hooks, Stmts,
                   Plan.TwoPhase ? emitHexTimeLoop : emitClassicalTimeLoop);
  for (unsigned I = 0; I < TileScopes; ++I)
    Out.close();
}

/// Emits the file-scope constant tables the kernel bodies reference (the
/// hexagon row ranges, the Overlapped margins and the per-dimension skew
/// tables).
void emitPlanTables(Source &Out, const EmissionPlan &Plan) {
  auto Table = [&](const std::string &Name,
                   const std::vector<int64_t> &Values) {
    std::string Init;
    for (size_t I = 0; I < Values.size(); ++I) {
      if (I)
        Init += ", ";
      Init += i64(Values[I]);
    }
    Out.line("HT_TABLE " + Name + "[" + std::to_string(Values.size()) +
             "] = {" + Init + "};");
  };
  if (Plan.TwoPhase) {
    Out.line("// Hexagon row b-ranges per local time a (empty rows have "
             "lo > hi).");
    Table("ht_row_lo", Plan.RowLo);
    Table("ht_row_hi", Plan.RowHi);
  }
  if (Plan.Schedule == EmitSchedule::Overlapped) {
    Out.line("// Redundant trapezoid margins per band-local tick (cells "
             "below/above the core).");
    Table("ht_mlo", Plan.Over.MLo);
    Table("ht_mhi", Plan.Over.MHi);
  }
  unsigned Base = Plan.innerBaseDim();
  for (unsigned I = 0; I < Plan.Inner.size(); ++I) {
    if (Plan.Inner[I].SkewNum == 0)
      continue;
    Out.line("// floor(" + i64(Plan.Inner[I].SkewNum) + "/" +
             i64(Plan.Inner[I].SkewDen) + " * u): the eq. (14)/(17) skew "
             "of dimension s" + std::to_string(Base + I) + ".");
    Table(skewTable(Base + I), Plan.Inner[I].SkewByU);
  }
}

/// One kernel of a flavor: its name and the phase its body renders.
struct KernelSpec {
  std::string Name;
  int Phase;
};

/// The kernels of \p Plan's flavor, in definition and launch order.
std::vector<KernelSpec> flavorKernels(const EmissionPlan &Plan) {
  std::string Prog = Plan.Program->name() + "_";
  if (Plan.TwoPhase)
    return {{Prog + "phase0", 0}, {Prog + "phase1", 1}};
  if (Plan.Schedule == EmitSchedule::Overlapped)
    return {{Prog + "oband", 0}, {Prog + "ocopy", 1}};
  return {{Prog + "band", 0}};
}

/// Emits kernel \p K: the flavor's tail parameters, its S0 binding and
/// the body.
void emitKernel(Source &Out, const EmissionPlan &Plan, const KernelSpec &K,
                const EmitTargetHooks &Hooks, const UnitStmts &Stmts) {
  std::string Tail = Plan.TwoPhase ? "ht_int TT, ht_int S0lo" : "ht_int TB";
  Hooks.openKernel(Out, K.Name, Plan.fieldParams() + ", " + Tail);
  if (Plan.TwoPhase)
    Out.line("const ht_int S0 = S0lo + " + Hooks.BlockIndex + ";");
  else if (Plan.Schedule == EmitSchedule::Overlapped)
    Out.line("const ht_int S0 = " + Hooks.BlockIndex +
             "; // This block's core tile.");
  else
    Out.line(Hooks.SingleBlockLine);
  emitKernelBody(Out, Plan, K.Phase, Hooks, Stmts);
  Out.close();
}

/// Emits the host driver loop: the sequential time-tile (or band) loop
/// with per-phase tile-range guards, per-launch S0 window computation and
/// one launch of each of \p Kernels.
void emitHostDriver(Source &Out, const EmissionPlan &Plan,
                    const std::vector<KernelSpec> &Kernels,
                    const EmitTargetHooks &Hooks) {
  auto Launch = [&](const KernelSpec &K, const std::string &NumBlocks,
                    const std::string &Tail) {
    Out.line(Hooks.launch(K.Name, NumBlocks, Plan.fieldArgs() + ", " + Tail));
  };
  if (Plan.Schedule == EmitSchedule::Overlapped) {
    if (Plan.Over.NumBands <= 0)
      return;
    Out.line("// One band = one oband launch (independent trapezoids) plus "
             "one ocopy");
    Out.line("// launch (disjoint core columns): the launch boundary is "
             "the barrier.");
    Out.open("for (ht_int TB = 0; TB < " + i64(Plan.Over.NumBands) +
             "; ++TB)");
    for (const KernelSpec &K : Kernels)
      Launch(K, i64(Plan.Over.NumTiles), "TB");
    Out.close();
    return;
  }
  if (!Plan.TwoPhase) {
    if (Plan.BandHi < 0)
      return;
    Out.open("for (ht_int TB = 0; TB <= " + i64(Plan.BandHi) + "; ++TB)");
    Launch(Kernels[0], "1", "TB");
    Out.close();
    return;
  }
  int64_t TTMin = std::min(Plan.TTLo[0], Plan.TTLo[1]);
  int64_t TTMax = std::max(Plan.TTHi[0], Plan.TTHi[1]);
  if (TTMax < TTMin)
    return;
  Out.open("for (ht_int TT = " + i64(TTMin) + "; TT <= " + i64(TTMax) +
           "; ++TT)");
  for (int Phase = 0; Phase < 2; ++Phase) {
    if (Plan.TTHi[Phase] < Plan.TTLo[Phase])
      continue;
    Out.open("if (TT >= " + i64(Plan.TTLo[Phase]) + " && TT <= " +
             i64(Plan.TTHi[Phase]) + ")");
    // Hexagonal tiles whose s0 footprint [s0_0 + minB, s0_0 + maxB]
    // meets the update range [Lo0, Hi0).
    int64_t CLo = Plan.Lo[0] - Plan.MaxB - Plan.OrigS[Phase] +
                  Plan.SpacePeriod - 1;
    int64_t CHi = Plan.Hi[0] - 1 - Plan.MinB - Plan.OrigS[Phase];
    Out.line("const ht_int ht_s0lo = ht_fdiv(" + i64(CLo) + " + TT * (" +
             i64(Plan.Drift) + "), " + i64(Plan.SpacePeriod) + ");");
    Out.line("const ht_int ht_s0hi = ht_fdiv(" + i64(CHi) + " + TT * (" +
             i64(Plan.Drift) + "), " + i64(Plan.SpacePeriod) + ");");
    Out.open("if (ht_s0hi >= ht_s0lo)");
    Launch(Kernels[Phase], "ht_s0hi - ht_s0lo + 1", "TT, ht_s0lo");
    Out.close();
    Out.close();
  }
  Out.close();
}

} // namespace

void codegen::emitUnit(Source &Out, const EmissionPlan &Plan,
                       const EmitTargetHooks &Hooks) {
  emitPlanTables(Out, Plan);
  if (Plan.Schedule == EmitSchedule::Overlapped) {
    Out.blank();
    Out.line("// Per-tile staging windows of the overlapped bands: every "
             "tile owns a");
    Out.line("// disjoint slice, so concurrent blocks never share scratch.");
    for (unsigned F = 0; F < Plan.Program->fields().size(); ++F)
      Out.line(Hooks.ScratchQualifier + " float ht_sg_" +
               Plan.Program->fields()[F].Name + "[" +
               i64(Plan.Over.NumTiles * Plan.stageTotalElems(F)) + "];");
  }
  Out.blank();
  UnitStmts Stmts{sweptStmts(Plan, /*CopyOut=*/false), {}};
  if (Plan.Schedule != EmitSchedule::Overlapped && Plan.Staging.Enabled &&
      !Plan.Staging.Interleaved)
    Stmts.CopyOut = sweptStmts(Plan, /*CopyOut=*/true);
  std::vector<KernelSpec> Kernels = flavorKernels(Plan);
  for (size_t K = 0; K < Kernels.size(); ++K) {
    if (K)
      Out.blank();
    emitKernel(Out, Plan, Kernels[K], Hooks, Stmts);
  }
  Out.blank();
  Out.open(Hooks.DriverQualifier + " " + Plan.Program->name() + "_host(" +
           Plan.fieldParams() + ")");
  emitHostDriver(Out, Plan, Kernels, Hooks);
  Out.close();
}
