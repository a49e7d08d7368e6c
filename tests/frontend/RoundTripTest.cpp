//===- RoundTripTest.cpp - Printer/parser round-trip tests --------------------===//
//
// StencilProgram::str() renders the source dialect frontend::Parser
// accepts; feeding the rendering back through the parser must reproduce
// the program. This pins the two ends of the frontend together: any drift
// -- a construct the printer emits but the parser rejects (missing grid
// declarations, unbraced multi-statement time loops), or a semantic skew
// (the IR-vs-source time-index convention) -- fails here with the first
// diverging construct named.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <sstream>

using namespace hextile;

namespace {

/// str() output with the "// ..." comments removed: statement-name
/// comments are presentation, not program, and the parser does not keep
/// them.
std::string canonicalSource(const ir::StencilProgram &P) {
  std::istringstream In(P.str());
  std::string Out, Line;
  while (std::getline(In, Line)) {
    size_t C = Line.find("//");
    if (C != std::string::npos)
      Line.erase(C);
    while (!Line.empty() && Line.back() == ' ')
      Line.pop_back();
    if (!Line.empty())
      Out += Line + "\n";
  }
  return Out;
}

/// The first constant of \p A whose re-parsed twin in \p B differs in any
/// bit (or a node whose kind differs), walking both RHS trees in step;
/// empty when every constant reads back exactly.
std::string firstConstantMismatch(const ir::StencilExpr &A,
                                  const ir::StencilExpr &B) {
  if (A.kind() != B.kind())
    return A.str() + " re-parsed as " + B.str();
  if (A.kind() == ir::ExprKind::ConstF32 &&
      std::bit_cast<uint32_t>(A.constantValue()) !=
          std::bit_cast<uint32_t>(B.constantValue())) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%a re-parsed as %a", A.constantValue(),
                  B.constantValue());
    return A.str() + ": " + Buf;
  }
  for (auto [CA, CB] :
       {std::pair{A.lhs(), B.lhs()}, std::pair{A.rhs(), B.rhs()}})
    if (CA)
      if (std::string M = firstConstantMismatch(*CA, *CB); !M.empty())
        return M;
  return "";
}

void expectConstantsExact(const ir::StencilProgram &P,
                          const ir::StencilProgram &Q) {
  ASSERT_EQ(Q.numStmts(), P.numStmts()) << P.name();
  for (unsigned S = 0; S < P.numStmts(); ++S)
    EXPECT_EQ(firstConstantMismatch(P.stmts()[S].RHS, Q.stmts()[S].RHS), "")
        << P.name() << " statement " << S;
}

/// Structural equivalence of the semantic content the parser must
/// preserve. Reads are compared through the canonical rendering (their
/// order in the read list may legally differ; their names, offsets and
/// expression structure may not).
void expectRoundTrips(const ir::StencilProgram &P) {
  frontend::ParseResult R = frontend::parseStencilProgram(P.str(), P.name());
  ASSERT_TRUE(R.ok()) << P.name() << ": " << R.Error << "\nsource:\n"
                      << P.str();
  const ir::StencilProgram &Q = R.Program;

  EXPECT_EQ(Q.spaceRank(), P.spaceRank());
  EXPECT_EQ(Q.spaceSizes(), P.spaceSizes());
  EXPECT_EQ(Q.timeSteps(), P.timeSteps());
  EXPECT_EQ(Q.numStmts(), P.numStmts());
  ASSERT_EQ(Q.fields().size(), P.fields().size());
  for (size_t F = 0; F < P.fields().size(); ++F) {
    EXPECT_EQ(Q.fields()[F].Name, P.fields()[F].Name);
    EXPECT_EQ(Q.fields()[F].Rank, P.fields()[F].Rank);
  }
  for (unsigned S = 0; S < P.numStmts(); ++S) {
    EXPECT_EQ(Q.stmts()[S].WriteField, P.stmts()[S].WriteField) << S;
    EXPECT_EQ(Q.stmts()[S].numReads(), P.stmts()[S].numReads()) << S;
    EXPECT_EQ(Q.stmts()[S].flops(), P.stmts()[S].flops()) << S;
  }
  for (unsigned D = 0; D < P.spaceRank(); ++D) {
    EXPECT_EQ(Q.loHalo(D), P.loHalo(D)) << D;
    EXPECT_EQ(Q.hiHalo(D), P.hiHalo(D)) << D;
  }
  EXPECT_EQ(Q.verify(), "");
  expectConstantsExact(P, Q);

  // Printer fixed point: re-rendering the re-parsed program reproduces the
  // rendering (modulo statement-name comments).
  EXPECT_EQ(canonicalSource(Q), canonicalSource(P)) << P.name();
}

/// makeJacobi1D with \p Coeff in place of its 1/3 coefficient.
ir::StencilProgram jacobi1DScaledBy(const ir::StencilExpr &Coeff) {
  ir::StencilProgram P("jacobi1d", 1);
  unsigned A = P.addField("A");
  std::vector<ir::ReadAccess> Reads = {
      {A, -1, {-1}}, {A, -1, {0}}, {A, -1, {1}}};
  ir::StencilExpr RHS =
      Coeff * ((ir::StencilExpr::read(0) + ir::StencilExpr::read(1)) +
               ir::StencilExpr::read(2));
  P.addStmt({"jacobi", A, std::move(Reads), RHS});
  P.setSpaceSizes({32});
  P.setTimeSteps(4);
  return P;
}

} // namespace

// A negative constant prints with a leading minus; it must read back as
// one constant, not as a negation that adds a FLOP.
TEST(RoundTripTest, NegativeConstant) {
  expectRoundTrips(jacobi1DScaledBy(ir::StencilExpr::constant(-0.5f)));
}

// ...while a negated literal stays a negation.
TEST(RoundTripTest, NegatedLiteral) {
  expectRoundTrips(jacobi1DScaledBy(
      ir::StencilExpr::neg(ir::StencilExpr::constant(0.5f))));
}

// The sign bit alone: -0.0f must not come back as a negated +0.0f.
TEST(RoundTripTest, NegativeZeroConstant) {
  expectRoundTrips(jacobi1DScaledBy(ir::StencilExpr::constant(-0.0f)));
}

TEST(RoundTripTest, Jacobi2D) { expectRoundTrips(ir::makeJacobi2D(16, 4)); }

TEST(RoundTripTest, Heat2D) { expectRoundTrips(ir::makeHeat2D(12, 3)); }

TEST(RoundTripTest, Gradient2D) {
  expectRoundTrips(ir::makeGradient2D(10, 2));
}

TEST(RoundTripTest, MultiStatementFdtd2D) {
  // Three statements with same-step reads (ex[t+1], ey[t+1] inside hz):
  // the braced time loop and the source time-index convention both matter.
  expectRoundTrips(ir::makeFdtd2D(12, 3));
}

TEST(RoundTripTest, Laplacian3D) {
  expectRoundTrips(ir::makeLaplacian3D(8, 2));
}

TEST(RoundTripTest, SkewedDepth2Reads) {
  // Reads two steps back (A[t-1] in source form): the deepest rotation in
  // the gallery.
  expectRoundTrips(ir::makeSkewedExample1D(32, 4));
}

TEST(RoundTripTest, Wave2DTwoTimeDepths) {
  // Second order in time: u[t] and u[t-1] source reads of one field in a
  // single statement.
  expectRoundTrips(ir::makeWave2D(12, 3));
}

TEST(RoundTripTest, VarHeat2DReadOnlyCoefficientField) {
  // K is declared and read but never written: the printer must still
  // declare the grid and the parser must accept a writer-less field.
  expectRoundTrips(ir::makeVarHeat2D(12, 3));
}

TEST(RoundTripTest, WholeGalleryParses) {
  // Weaker sweep over everything makeByName knows: rendering must at least
  // re-parse with every constant bit for bit, so new gallery entries cannot
  // drift silently.
  for (const char *Name :
       {"jacobi1d", "jacobi2d", "laplacian2d", "heat2d", "gradient2d",
        "fdtd2d", "laplacian3d", "heat3d", "gradient3d", "skewed1d",
        "wave2d", "varheat2d", "heat2d4"}) {
    ir::StencilProgram P = ir::makeByName(Name);
    frontend::ParseResult R =
        frontend::parseStencilProgram(P.str(), P.name());
    EXPECT_TRUE(R.ok()) << Name << ": " << R.Error;
    if (R.ok())
      expectConstantsExact(P, R.Program);
  }
}
