//===- StencilProgram.h - Iterative stencil programs -----------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The canonical input class of the paper (Sec. 3.2): an outer time loop
/// containing k >= 1 perfect spatial loop nests ("statements"), none of whose
/// inner loops carry dependences. Each statement updates one field at the
/// current point from constant-offset reads of fields at the same or earlier
/// time steps. The canonical schedule L_i[t, s...] -> [k*t + i, s...] makes
/// the single outer dimension carry all dependences.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_IR_STENCILPROGRAM_H
#define HEXTILE_IR_STENCILPROGRAM_H

#include "ir/StencilExpr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hextile {
namespace ir {

/// A grid variable (e.g. the array A of Fig. 1). Rank counts only spatial
/// dimensions; storage versioning over time is an implementation concern of
/// the executor / code generator (double buffering), not of the IR.
struct FieldDecl {
  std::string Name;
  unsigned Rank = 0;
};

/// One constant-offset read: field \c Field at time t + TimeOffset and
/// spatial point s + Offsets. TimeOffset <= 0; TimeOffset == 0 reads the
/// value produced by an earlier statement of the *same* time step (legal
/// only if that statement precedes the reader in program order).
struct ReadAccess {
  unsigned Field = 0;
  int TimeOffset = 0;
  std::vector<int64_t> Offsets;

  std::string str(const std::vector<FieldDecl> &Fields) const;
};

/// One stencil statement: Fields[WriteField][t][s] = RHS(reads).
struct StencilStmt {
  std::string Name;
  unsigned WriteField = 0;
  std::vector<ReadAccess> Reads;
  StencilExpr RHS = StencilExpr::constant(0.0f);

  unsigned flops() const { return RHS.countFlops(); }
  unsigned numReads() const { return Reads.size(); }
};

/// A complete iterative stencil program over a rectangular grid. Every
/// member (and every member of its fields, statements and reads) enters
/// service::makeCompileKey, so a member added here must enter it too.
class StencilProgram {
public:
  StencilProgram() = default;
  StencilProgram(std::string Name, unsigned SpaceRank)
      : ProgName(std::move(Name)), Rank(SpaceRank) {}

  const std::string &name() const { return ProgName; }
  unsigned spaceRank() const { return Rank; }

  unsigned addField(std::string Name);
  const std::vector<FieldDecl> &fields() const { return Fields; }

  void addStmt(StencilStmt Stmt);
  const std::vector<StencilStmt> &stmts() const { return Stmts; }
  unsigned numStmts() const { return Stmts.size(); }

  void setSpaceSizes(std::vector<int64_t> Sizes);
  const std::vector<int64_t> &spaceSizes() const { return SizeS; }
  void setTimeSteps(int64_t Steps) { TimeSteps = Steps; }
  int64_t timeSteps() const { return TimeSteps; }

  /// Maximum halo the stencil needs below/above the updated point in
  /// dimension \p Dim, over all statements: the update domain in that
  /// dimension is [loHalo, size - hiHalo).
  int64_t loHalo(unsigned Dim) const;
  int64_t hiHalo(unsigned Dim) const;

  /// Rotating-buffer copies field \p Field needs: 1 + its deepest read
  /// (1 when never read). The single source of the depth rule every
  /// storage implementation, the shared-memory sizing and the CUDA
  /// emitter share.
  unsigned bufferDepth(unsigned Field) const;

  /// Reads per stencil point, summed over statements (Table 3 "Loads").
  unsigned totalReads() const;
  /// FLOPs per stencil point, summed over statements (Table 3 "FLOPs").
  unsigned totalFlops() const;

  /// Points updated per time step (product over dims of the update extents),
  /// i.e. the number of "stencils" a step computes, used by GStencils/s.
  int64_t pointsPerTimeStep() const;

  /// Total bytes of all field arrays at single precision (two time copies
  /// are an executor concern and not counted here).
  int64_t dataBytes() const;

  /// Validates structural invariants: read indices in range, fields of
  /// matching rank, non-positive time offsets, and same-step reads only of
  /// fields written by earlier statements. Returns an empty string when
  /// valid, else a diagnostic.
  std::string verify() const;

  /// Index of the statement writing \p Field, or -1 when none does.
  int writerOf(unsigned Field) const;

  /// Renders the program as the C-like source form of Fig. 1.
  std::string str() const;

private:
  std::string ProgName;
  unsigned Rank = 0;
  std::vector<FieldDecl> Fields;
  std::vector<StencilStmt> Stmts;
  std::vector<int64_t> SizeS;
  int64_t TimeSteps = 0;
};

} // namespace ir
} // namespace hextile

#endif // HEXTILE_IR_STENCILPROGRAM_H
