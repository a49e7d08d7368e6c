//===- EmissionCore.h - Target-neutral kernel emission ---------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retargetable core of the code generators: everything about the
/// emitted kernels that is *not* surface syntax lives here, computed once
/// from a CompiledHybrid and consumed by every emission target
/// (CudaEmitter, HostEmitter).
///
/// The core has three parts:
///
///  * EmissionPlan -- the fully evaluated loop-nest constants of one
///    schedule flavor (EmitSchedule): time-tile / band ranges, per-phase
///    tile origins, the hexagon row tables, classical tile-index ranges,
///    skew tables, domain guards and rotating-buffer depths. All plan
///    numbers are exact integers derived from the schedule constructions
///    (HexSchedule / ClassicalTiling), so the emitted loops enumerate
///    exactly the statement instances the schedule-key replay enumerates.
///
///  * emitUnit -- renders everything below a target's prelude: the
///    constant tables, the overlapped per-tile scratch, every kernel of the
///    flavor and the `<prog>_host` driver. Targets parameterize it with
///    EmitTargetHooks, which choose surface syntax and loop shape only (how
///    a kernel opens, the block index, a barrier, a staging buffer, a
///    launch, the loop of a staging copy and of a region's compute sweep),
///    and the core emits identical *semantics* for every target: the same
///    kernel set, loops, guards, statement dispatch, point set and
///    arithmetic, bit-exact with exec::executeInstance. When the compile's
///    ladder rung stages through shared memory (Sec. 4.2, rungs b-f), the
///    body additionally renders the cooperative load phase, the barriers
///    and the separate or interleaved copy-out over a per-tile StagingPlan
///    window, with rung (d)'s aligned bases and rung (e)'s static
///    placement; rung (f) renders as (d).
///
///  * Rendering utilities -- the indented Source builder, exact float
///    literal formatting (hex-floats, so emitted constants round-trip
///    bit-for-bit) and the StencilExpr renderer both targets share.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CODEGEN_EMISSIONCORE_H
#define HEXTILE_CODEGEN_EMISSIONCORE_H

#include "codegen/HybridCompiler.h"

#include <functional>
#include <span>
#include <string>
#include <vector>

namespace hextile {
namespace codegen {

/// The schedule flavors the emission core can render as executable loops.
/// Hex and Hybrid emit the two-phase hexagonal host loop of Sec. 4.1
/// (Hex leaves the inner dimensions untiled); Classical emits the Sec. 3.4
/// skewed-band scheme on every spatial dimension; Overlapped emits the
/// fifth family (core::OverlappedSchedule): per time band, every tile
/// stages its footprint into a private window, runs the band's ticks with
/// shrinking redundant margins and no inter-tile synchronization, then a
/// second kernel copies the disjoint core columns back -- the launch
/// boundary is the only inter-tile barrier.
enum class EmitSchedule { Hex, Hybrid, Classical, Overlapped };

/// Lower-case flavor name ("hex", "hybrid", "classical", "overlapped")
/// for diagnostics.
const char *emitScheduleName(EmitSchedule S);

/// Incremental source builder with two-space indentation.
class Source {
public:
  /// Appends one indented line.
  void line(const std::string &S) {
    Text.append(Indent, ' ');
    Text += S;
    Text += '\n';
  }
  /// Appends an empty line.
  void blank() { Text += '\n'; }
  /// Appends pre-formatted text verbatim (file-scope helper blocks).
  void raw(const std::string &S) { Text += S; }
  /// Appends "S {" and indents.
  void open(const std::string &S) {
    line(S + " {");
    Indent += 2;
  }
  /// Dedents and appends "}Suffix".
  void close(const std::string &Suffix = "") {
    Indent -= 2;
    line("}" + Suffix);
  }
  /// Moves the accumulated text out.
  std::string take() { return std::move(Text); }

private:
  std::string Text;
  unsigned Indent = 0;
};

/// Renders \p V as a C++ float literal that parses back to exactly the same
/// bits: hex-float (e.g. "0x1.99999ap-3f") for finite values, an
/// ht_f32bits(...) call for NaN/Inf (both emission preludes define it).
std::string formatFloatExact(float V);

/// Renders \p E with \p ReadNames[i] substituted for read #i, using exact
/// float literals (formatFloatExact) and the shim's ht_minf/ht_maxf, whose
/// semantics match StencilExpr::evaluate (std::min/std::max) bit-for-bit.
std::string renderExprExact(const ir::StencilExpr &E,
                            std::span<const std::string> ReadNames);

/// The runtime helper functions every emitted unit needs (ht_fdiv floor
/// division, ht_emod Euclidean remainder, ht_minf/ht_maxf with exact
/// std::min/std::max semantics, ht_f32bits), rendered with \p Qualifier
/// in front of each definition ("static inline" for the host shim,
/// "HT_FN" -- host+device -- for the CUDA prelude). One body for every
/// target, so the bit-exactness semantics cannot silently diverge between
/// the execution-tested host rendering and the CUDA text.
std::string portableHelperFunctions(const std::string &Qualifier);

/// The executable rendering of the Sec. 4.2 shared-memory ladder: per
/// (inner-)tile, each field's input footprint is staged through a
/// tile-local buffer holding a rectangular *window* of the grid -- the
/// tile's spatial footprint padded by the skew travel and the stencil
/// halo, all rotating copies deep. The kernel body then becomes
///
///   cooperative load (global -> staging, grid-bounds guarded)
///   barrier
///   local time loop computing against staged values
///     [interleaved copy-out: each result also stored to global]
///   [separate copy-out: replay of the guarded loops, staging -> global]
///
/// Window extents are compile-time constants; only the window base is a
/// runtime value (per tile). Every mode is semantically the identity,
/// which the oracle's fourth mechanism proves by execution.
struct StagingPlan {
  bool Enabled = false;         ///< Rungs (b)-(f), and every Overlapped unit.
  bool Interleaved = false;     ///< Sec. 4.2.1 interleaved copy-out.
  /// Sec. 4.2.2 static placement (rung (e)):
  /// element s of a window dimension lives at staging slot
  /// s mod Ext[dim] -- a fixed global->shared mapping, bijective inside
  /// one window since Ext consecutive values are distinct mod Ext.
  bool StaticPlacement = false;
  /// Sec. 4.2.3 aligned loads: the innermost window base is translated
  /// down to a multiple of this many elements (32 floats = 128 bytes;
  /// 1 = natural placement) and the extent padded to compensate.
  int64_t AlignQuantum = 1;
  std::vector<int64_t> Ext;     ///< Window extent per spatial dimension.
  std::vector<int64_t> LoPad;   ///< Window pad below the tile base per dim.
  int64_t WindowPoints = 1;     ///< prod(Ext): elements of one window copy.
};

/// The evaluated constants of the Overlapped flavor (core::
/// OverlappedSchedule rendered as kernels): the dim-0 core tiling, the
/// band geometry and the per-tick redundant margins. One band runs as two
/// launches -- `oband` (stage the footprint, run the band's ticks against
/// the tile-private window) and `ocopy` (move the disjoint core columns
/// back) -- so the launch boundary is the only inter-tile barrier.
struct OverlappedPlan {
  int64_t TileW = 1;             ///< Core tile width along dim 0.
  int64_t NumTiles = 0;          ///< Disjoint core tiles covering [0, size0).
  int64_t BandSteps = 1;         ///< Full time steps per band.
  int64_t NumBands = 0;          ///< Bands covering the whole time range.
  int64_t Ticks = 1;             ///< Canonical ticks per band (V).
  int64_t FootLo = 0;            ///< Band-entry footprint below the core.
  int64_t FootHi = 0;            ///< Band-entry footprint above the core.
  std::vector<int64_t> MLo;      ///< Redundant low margin per band tick.
  std::vector<int64_t> MHi;      ///< Redundant high margin per band tick.
};

/// One classically tiled dimension of the plan (eqs. (14)/(17)): inner
/// dimensions s1..sn for Hex/Hybrid, every dimension for Classical.
struct InnerTilePlan {
  int64_t Width = 1;            ///< w_i.
  int64_t SkewNum = 0;          ///< delta1_i numerator (0 = no skew).
  int64_t SkewDen = 1;          ///< delta1_i denominator.
  std::vector<int64_t> SkewByU; ///< floor(delta1_i * u) for u in [0, 2h+2).
  int64_t TileLo = 0;           ///< First tile index intersecting the domain.
  int64_t TileHi = 0;           ///< Last tile index intersecting the domain.

  bool singleTile() const { return TileLo == TileHi; }
};

/// The fully evaluated loop-nest constants of one (program, schedule,
/// flavor) triple; see the file comment. Built once, consumed by every
/// target.
struct EmissionPlan {
  const ir::StencilProgram *Program = nullptr;
  EmitSchedule Schedule = EmitSchedule::Hybrid;
  OptimizationConfig Config;

  // --- Canonical domain (IterationDomain::forProgram) ---
  unsigned Rank = 0;             ///< Spatial rank.
  unsigned NumStmts = 1;         ///< k: statements per time step.
  int64_t TimeExtent = 0;        ///< Canonical time range [0, k*steps).
  std::vector<int64_t> Sizes;    ///< Grid extents per dimension.
  std::vector<int64_t> Lo, Hi;   ///< Update domain [Lo, Hi) per dimension.
  int64_t PointsPerCopy = 0;     ///< Elements of one rotating copy.
  std::vector<unsigned> Depth;   ///< Rotating-buffer depth per field.

  // --- Time banding (all flavors) ---
  int64_t Period = 0;            ///< 2h+2: kernel-local time extent.

  // --- Hexagonal part (Hex/Hybrid; TwoPhase == true) ---
  bool TwoPhase = false;
  int64_t SpacePeriod = 0;       ///< s0 lattice period.
  int64_t Drift = 0;             ///< Lattice drift per time tile.
  int64_t OrigT[2] = {0, 0};     ///< t of local (a,b) = (0,0), per phase.
  int64_t OrigS[2] = {0, 0};     ///< s0 of local (a,b) = (0,0), per phase.
  std::vector<int64_t> RowLo;    ///< Hexagon row b-range per a (inclusive).
  std::vector<int64_t> RowHi;
  int64_t MinB = 0, MaxB = 0;    ///< Hexagon b bounding box.
  int64_t TTLo[2] = {0, 0};      ///< Time tiles intersecting the domain,
  int64_t TTHi[2] = {-1, -1};    ///< per phase (inclusive).

  // --- Classically tiled dimensions ---
  /// Hex/Hybrid: dims 1..Rank-1 (Hex uses one degenerate full-extent tile
  /// per dimension). Classical: dims 0..Rank-1. Overlapped: dims 1..Rank-1,
  /// always degenerate full-extent tiles.
  std::vector<InnerTilePlan> Inner;
  int64_t BandHi = -1;           ///< Classical: last time band (bands from 0).

  // --- Overlapped (fifth family) part ---
  OverlappedPlan Over;

  // --- Sec. 4.2 shared-memory staging (all flavors) ---
  StagingPlan Staging;

  /// Evaluates the plan for \p C rendered as flavor \p S.
  static EmissionPlan build(const CompiledHybrid &C, EmitSchedule S);

  /// "g_<field name>": the buffer parameter naming every target uses.
  std::string fieldArg(unsigned F) const;
  /// Comma-separated "float *g_A, float *g_B, ..." parameter list.
  std::string fieldParams() const;
  /// Comma-separated "g_A, g_B, ..." argument list.
  std::string fieldArgs() const;
  /// Total floats of field \p F's buffer (depth * one copy).
  int64_t fieldTotalElems(unsigned F) const;
  /// "ht_s_<field name>": the staging-buffer naming every target uses.
  std::string stageArg(unsigned F) const;
  /// Total floats of field \p F's staging buffer (depth * window points).
  int64_t stageTotalElems(unsigned F) const;
  /// Total bytes of staging storage one block needs (all fields; 0 when
  /// staging is off). The CUDA target compares this against the device
  /// __shared__ budget and flags oversized windows in the emitted header
  /// (the hex flavor's degenerate full-extent inner tiles are the usual
  /// culprit); the host arena has no such limit.
  int64_t stagedBytesPerBlock() const;
  /// First spatial dimension handled by Inner: 1 for Hex/Hybrid/Overlapped
  /// (dim 0 is hexagonal or core-tiled), 0 for Classical.
  unsigned innerBaseDim() const {
    return Schedule == EmitSchedule::Classical ? 0 : 1;
  }
};

/// One cooperative copy between the global rotating buffers and the
/// staging windows: a kernel's load phase (global -> staging, every field)
/// or the Overlapped ocopy (staging -> global, each written field's core
/// column). The emission core evaluates its geometry once, as the C
/// fragments below; EmitTargetHooks::copyWindow renders the copy loop from
/// them.
struct WindowCopy {
  bool ToStaging = true;        ///< Load; false: copy staged cells out.
  std::string Tid;              ///< Thread-id variable of the copy loop.
  std::vector<unsigned> Fields; ///< Copied fields, every rotating slot each.
  /// Per spatial dimension, outermost first: the positions the copy spans
  /// and the lines binding a position's coordinates from the running
  /// quotient ht_r (`... = ht_r % Count; ht_r /= Count;`). A loop binds
  /// its dimensions innermost first; ht_r is then the rotating slot.
  std::vector<int64_t> Count;
  std::vector<std::vector<std::string>> Bind;
  /// The grid test of a bound position over every dimension, and over the
  /// outer dimensions only ("" when every outer position is inside).
  std::string Guard, OuterGuard;
  /// Staging and global element indices of a position with every
  /// dimension bound.
  std::string StageIdx, GlobalIdx;
  /// The innermost run of one outer row. RunSetup declares, once per
  /// tile, its global bounds [ht_run_lo, ht_run_hi) clipped to the grid
  /// and, under static placement, ht_run_cut: the run's cells before its
  /// staging slots wrap. RunStageIdx and RunGlobalIdx index the run's
  /// first cell with the outer dimensions bound; RunWrapIdx is the staging
  /// index the run resumes at after the wrap ("" when it cannot wrap).
  std::vector<std::string> RunSetup;
  std::string RunStageIdx, RunGlobalIdx, RunWrapIdx;
};

/// One buffer access of a swept statement, evaluated for both sweep forms:
/// at one point with every coordinate bound, and relative to its group's
/// base at the first cell of a row's innermost run.
struct SweptAccess {
  unsigned Group = 0;    ///< Its group in SweptStmt::Groups.
  int64_t Disp = 0;      ///< Displacement from the group's first cell.
  std::string PointIdx;  ///< Flat element index at the bound point.
  /// Static placement only: the innermost coordinate of the access at the
  /// run's first cell; cell i of the run sits at
  /// ht_emod(WrapCoord + i, Wrap) in the group's window row.
  std::string WrapCoord;
};

/// The accesses of one statement that share a buffer and a rotating slot
/// (and, under static placement, a window row). Each one's run of n cells
/// is its group's base plus a compile-time displacement, so together they
/// touch no cell outside the span [Base + Lo, Base + Hi + n). The buffer
/// is one contiguous [0, Total), so the span escapes it exactly when some
/// access's run does.
struct AccessGroup {
  std::string Buffer;    ///< "g_<field>" or "ht_s_<field>".
  int64_t Total = 0;     ///< Elements of the buffer.
  /// Flat index of the group's first access at the run's first cell; under
  /// static placement, the first cell of that access's window row.
  std::string Base;
  int64_t Lo = 0, Hi = 0; ///< Lowest and highest displacement.
  /// Static placement: the innermost window extent. The group then holds
  /// the staged accesses of one window row (one rotating slot, equal outer
  /// offsets), whose cells each wrap within [Base, Base + Wrap).
  int64_t Wrap = 0;
};

/// One statement as a compute sweep renders it.
struct SweptStmt {
  std::string Name;                 ///< For the emitted comment.
  std::vector<AccessGroup> Groups;  ///< In order of first access.
  std::vector<SweptAccess> Reads;   ///< Bound to ht_v0, ht_v1, ...
  /// The exact right-hand side over ht_v<i>. Empty in the separate
  /// copy-out, which moves Reads[0] (the staged result) to Writes[0].
  std::string RHS;
  /// The written cells. Compute: the staged one when the plan stages,
  /// then the global one when unstaged or interleaved. Copy-out: the
  /// global one.
  std::vector<SweptAccess> Writes;
};

/// Evaluates every statement of \p Plan for a sweep: the compute pass, or
/// with \p CopyOut the separate copy-out of the staged results.
std::vector<SweptStmt> sweptStmts(const EmissionPlan &Plan, bool CopyOut);

/// One barrier region's compute pass (or the separate copy-out's replay of
/// it): every domain point of the tile at one local time, with no
/// dependence between them. The emission core evaluates it once as the
/// fragments below; EmitTargetHooks::sweep renders the loop from them.
struct ComputeSweep {
  /// One logical thread per point: the point count, the lines binding
  /// s0..sn from the id ht_tid, and the domain test over every dimension.
  std::string PointCount;
  std::vector<std::string> PointBind;
  std::string Guard;
  /// One logical thread per outer row (every coordinate but the
  /// innermost). RunSetup binds, once per region, the innermost coordinate
  /// s<n> of the run's first cell and the run's length ht_n, both clipped
  /// to the domain. RowBind binds the outer coordinates from the id ht_row
  /// and OuterGuard tests them ("" at rank 1, whose one row is the run).
  std::vector<std::string> RunSetup;
  std::string RowCount;
  std::vector<std::string> RowBind;
  std::string OuterGuard;
  /// The unit's statements, evaluated once per unit (sweptStmts); indexed
  /// by t mod NumStmts.
  std::span<const SweptStmt> Stmts;
};

/// Emits the statement dispatch of \p Sweep on the canonical time t (the
/// ht_step binding, then a switch when there are several statements),
/// calling \p Update for each statement.
void emitSweepDispatch(Source &Out, const EmissionPlan &Plan,
                       const ComputeSweep &Sweep,
                       const std::function<void(const SweptStmt &)> &Update);

/// Emits the update of \p St at one cell, spelling each access through
/// \p Cell: the reads into ht_v<i>, then the RHS into the written cells
/// (through ht_out when staged), or the copy-out's move.
void emitSweptUpdate(
    Source &Out, const EmissionPlan &Plan, const SweptStmt &St,
    const std::function<std::string(const SweptAccess &)> &Cell);

/// Syntax and loop-shape hooks one emission target provides to emitUnit.
struct EmitTargetHooks {
  /// Opens the definition of kernel \p Name over the parameter list
  /// \p Params (field buffers, then the flavor's tail parameters), leaving
  /// Out indented inside the body; emitUnit closes it (host: a static
  /// function taking the block index first; CUDA: a __global__ kernel).
  std::function<void(Source &Out, const std::string &Name,
                     const std::string &Params)>
      openKernel;
  /// The expression a kernel reads its block index from (host: the
  /// `ht_block` parameter; CUDA: blockIdx.x).
  std::string BlockIndex;
  /// The line a single-block kernel (Classical bands) starts with in place
  /// of an S0 binding.
  std::string SingleBlockLine;
  /// Qualifier of the Overlapped flavor's file-scope per-tile scratch
  /// arrays ("static" on the host, "static __device__" for CUDA).
  std::string ScratchQualifier;
  /// Return type and qualifiers of the `<prog>_host` driver.
  std::string DriverQualifier;
  /// Renders one launch statement of kernel \p Name over \p NumBlocks
  /// blocks with the argument list \p Args.
  std::function<std::string(const std::string &Name,
                            const std::string &NumBlocks,
                            const std::string &Args)>
      launch;
  /// Emits the intra-kernel barrier separating consecutive local time
  /// steps (CUDA: __syncthreads(); host: a no-op, since the serial thread
  /// loop already retires a whole region before the next one starts).
  std::function<void(Source &Out)> barrier;
  /// Declares the tile-local staging buffer \p Name of \p Count floats
  /// (CUDA: __shared__; host: the shim's HT_SHARED per-block arena). Only
  /// invoked when the plan's StagingPlan is enabled.
  std::function<void(Source &Out, const std::string &Name, int64_t Count)>
      declareShared;
  /// Renders the loop of \p Copy (CUDA: one thread per element, so a
  /// warp's accesses coalesce; host: one thread per rotating slot x outer
  /// row, each copying its row's innermost run at once).
  std::function<void(Source &Out, const EmissionPlan &Plan,
                     const WindowCopy &Copy)>
      copyWindow;
  /// Renders the loop of \p Sweep (CUDA: one thread per point, the paper's
  /// mapping; host: one thread per outer row, each checking every access
  /// group's span once and then running the row's innermost run).
  std::function<void(Source &Out, const EmissionPlan &Plan,
                     const ComputeSweep &Sweep)>
      sweep;
};

/// Emits everything of one unit below the target's prelude into \p Out:
///
///  * the file-scope constant tables (hexagon row ranges, per-dimension
///    skew tables, the Overlapped margin tables) and, for Overlapped, the
///    per-tile scratch arrays `ht_sg_<field>[NumTiles * stageTotalElems]`
///    -- windows that live across the oband -> ocopy launch boundary, so
///    ordinary storage, never __shared__; each tile addresses its disjoint
///    slice, so concurrent blocks never share scratch;
///  * every kernel of the flavor -- "<prog>_phase0"/"<prog>_phase1"
///    (Hex/Hybrid: `TT`, `S0lo` tail, `S0 = S0lo + block`), "<prog>_band"
///    (Classical: `TB` tail, one block) or "<prog>_oband"/"<prog>_ocopy"
///    (Overlapped: `TB` tail, `S0 = block`, the core tile) -- with the
///    sequential classical tile loops, the local time loop with its
///    barrier and one compute sweep per region (point set, domain guards,
///    statement dispatch and the bit-exact update arithmetic);
///  * the `<prog>_host(<field buffers>)` driver: the sequential time-tile
///    (or band) loop with per-phase tile-range guards, per-launch S0
///    window computation and one launch per kernel.
void emitUnit(Source &Out, const EmissionPlan &Plan,
              const EmitTargetHooks &Hooks);

} // namespace codegen
} // namespace hextile

#endif // HEXTILE_CODEGEN_EMISSIONCORE_H
