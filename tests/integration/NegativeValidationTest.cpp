//===- NegativeValidationTest.cpp - The validators catch bad schedules --------===//
//
// Deliberately constructs *illegal* hybrid schedules -- hexagonal tilings
// whose cone slopes understate the real dependence cone -- and checks that
// every layer of the validation stack rejects them: the symbolic legality
// checker, and the bit-exact executor under adversarial block orders.
// This guards against the validators silently passing everything.
//
//===----------------------------------------------------------------------===//

#include "core/Validation.h"
#include "exec/Executor.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::core;

namespace {

/// A hybrid schedule for jacobi2d whose hexagonal slopes are forced to
/// (D0, D1) instead of the correct (1, 1).
HybridSchedule forcedSchedule(Rational D0, Rational D1) {
  HexTileParams Params(2, 3, D0, D1);
  return HybridSchedule(Params, {8}, {Rational(1)});
}

} // namespace

TEST(NegativeValidationTest, LegalityCheckerRejectsUndersizedCone) {
  // delta0 = 0 ignores the backward s0 dependences of Jacobi: points in
  // neighbor tiles of the same phase then depend on each other.
  ir::StencilProgram P = ir::makeJacobi2D(24, 8);
  deps::DependenceInfo Deps = deps::analyzeDependences(P);
  IterationDomain Domain = IterationDomain::forProgram(P);
  HybridSchedule Bad = forcedSchedule(Rational(0), Rational(1));
  EXPECT_NE(checkLegality(Bad, Deps, Domain), "");
  HybridSchedule Bad2 = forcedSchedule(Rational(1), Rational(0));
  EXPECT_NE(checkLegality(Bad2, Deps, Domain), "");
  // The correct cone passes.
  HybridSchedule Good = forcedSchedule(Rational(1), Rational(1));
  EXPECT_EQ(checkLegality(Good, Deps, Domain), "");
}

TEST(NegativeValidationTest, ExecutorCatchesUndersizedCone) {
  // The same broken schedule must produce wrong values for some block
  // serialization (reversed blocks make the violation deterministic).
  ir::StencilProgram P = ir::makeJacobi2D(24, 8);
  HybridSchedule Bad = forcedSchedule(Rational(0), Rational(1));
  exec::ScheduleKeyIntoFn Key = [&](std::span<const int64_t> Pt,
                                    std::vector<int64_t> &Out) {
    HybridVector V = Bad.map(Pt);
    // Reverse the block order: with the undersized cone some consumer
    // tile now runs before its producer.
    Out.insert(Out.end(), {V.T, V.Phase, -V.S[0], V.S[1], V.LocalT});
  };
  EXPECT_NE(exec::checkScheduleEquivalence(P, Key), "");
}

TEST(NegativeValidationTest, UndersizedInnerSkewIsCaught) {
  // Classical tiling with a zero skew breaks the backward s1 dependences.
  ir::StencilProgram P = ir::makeJacobi2D(24, 8);
  deps::DependenceInfo Deps = deps::analyzeDependences(P);
  IterationDomain Domain = IterationDomain::forProgram(P);
  HexTileParams Params(2, 3, Rational(1), Rational(1));
  HybridSchedule Bad(Params, {8}, {Rational(0)});
  EXPECT_NE(checkLegality(Bad, Deps, Domain), "");
}

TEST(NegativeValidationTest, OneSidedStencilZeroSlopeFlowVsMemoryDeps) {
  // For a one-sided stencil (reads only i-1 and i), delta1 = 0 is legal
  // for the value-based (flow) dependences -- but the rotating-buffer
  // implementation adds the *reflected* anti dependence (1, -1), which a
  // zero slope violates. The checker must distinguish the two: no false
  // positive on flow-only, and a true positive once memory dependences
  // are included (this is why the compiler includes them by default).
  ir::StencilProgram P("oneside", 1);
  unsigned A = P.addField("A");
  ir::StencilStmt S;
  S.WriteField = A;
  S.Reads.push_back({A, -1, {-1}});
  S.Reads.push_back({A, -1, {0}});
  S.RHS = ir::StencilExpr::constant(0.5f) *
          (ir::StencilExpr::read(0) + ir::StencilExpr::read(1));
  P.addStmt(std::move(S));
  P.setSpaceSizes({48});
  P.setTimeSteps(8);

  IterationDomain Domain = IterationDomain::forProgram(P);
  HexTileParams Params(2, 3, Rational(1), Rational(0));
  ASSERT_TRUE(Params.isValid());
  HybridSchedule Sched(Params, {}, {});

  deps::DependenceOptions FlowOnly;
  FlowOnly.IncludeMemoryDeps = false;
  EXPECT_EQ(checkLegality(Sched, deps::analyzeDependences(P, FlowOnly),
                          Domain),
            "");
  std::string WithMemory =
      checkLegality(Sched, deps::analyzeDependences(P), Domain);
  EXPECT_NE(WithMemory, "");
  EXPECT_NE(WithMemory.find("[anti]"), std::string::npos);
}
