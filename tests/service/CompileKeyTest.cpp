//===- CompileKeyTest.cpp - Content-hash key sensitivity ------------------===//
//
// The cache-correctness contract of the compile key: every input that
// changes the compiled artifact (program semantics, grid sizes, tiling,
// ladder rung, flavor, target) must change the key, and inputs that do
// not (source-text whitespace -- the key hashes the *parsed* program)
// must not. A key collision here would serve one user another user's
// kernel; a spurious difference would fragment the cache.
//
//===----------------------------------------------------------------------===//

#include "service/CompileKey.h"

#include "frontend/Parser.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace hextile;
using namespace hextile::service;

namespace {

CompileRequest baseRequest() {
  CompileRequest R;
  R.Program = ir::makeJacobi2D(24, 6);
  R.Tiling.H = 2;
  R.Tiling.W0 = 3;
  R.Tiling.InnerWidths = {6};
  R.Config = codegen::OptimizationConfig::level('d');
  R.Flavor = codegen::EmitSchedule::Hybrid;
  R.Target = TargetKind::Host;
  return R;
}

const char *JacobiSrc = "grid A[64];\n"
                        "for (t = 0; t < 8; t++) {\n"
                        "  for (s0 = 1; s0 < 64 - 1; s0++)\n"
                        "    A[t+1][s0] = 0.25f * (A[t][s0-1] + A[t][s0] "
                        "+ A[t][s0+1]);\n"
                        "}\n";

// Same program, re-formatted only: extra blanks, newlines, indentation.
const char *JacobiSrcReformatted =
    "grid   A[64];\n\n"
    "for (t = 0; t < 8;  t++)  {\n"
    "  for (s0 = 1;\n"
    "       s0 < 64 - 1; s0++)\n"
    "      A[t+1][s0]   =   0.25f * (A[t][s0-1]+A[t][s0]+A[t][s0+1]);\n"
    "}\n";

} // namespace

TEST(CompileKeyTest, DeterministicAndStable) {
  CompileRequest R = baseRequest();
  CompileKey K1 = makeCompileKey(R);
  CompileKey K2 = makeCompileKey(R);
  EXPECT_EQ(K1, K2);
  EXPECT_FALSE(K1 == CompileKey{});
}

TEST(CompileKeyTest, WhitespaceOnlySourceChangesHashIdentically) {
  frontend::ParseResult A = frontend::parseStencilProgram(JacobiSrc, "p");
  frontend::ParseResult B =
      frontend::parseStencilProgram(JacobiSrcReformatted, "p");
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;
  CompileRequest RA = baseRequest();
  RA.Program = A.Program;
  RA.Tiling.InnerWidths = {};
  CompileRequest RB = RA;
  RB.Program = B.Program;
  EXPECT_EQ(makeCompileKey(RA), makeCompileKey(RB))
      << "whitespace-only reformat changed the key";
}

TEST(CompileKeyTest, ProgramTextChangeChangesKey) {
  // JacobiSrc with its constant replaced by \p Constant.
  auto KeyWithConstant = [](const char *Constant) {
    std::string Src = JacobiSrc;
    Src.replace(Src.find("0.25f"), 5, Constant);
    frontend::ParseResult P = frontend::parseStencilProgram(Src, "p");
    EXPECT_TRUE(P.ok()) << P.Error;
    CompileRequest R = baseRequest();
    R.Program = P.Program;
    R.Tiling.InnerWidths = {};
    return makeCompileKey(R);
  };
  // The last two pairs print alike at six decimals but are different
  // floats, and the emitted units spell them differently (0x1p-2 vs
  // 0x1.000006p-2): the key reads each constant's exact bits.
  for (auto [A, B] : {std::pair{"0.25f", "0.50f"},
                      std::pair{"0.25f", "0.2500001f"},
                      std::pair{"0.0f", "0.0000001f"}})
    EXPECT_NE(KeyWithConstant(A), KeyWithConstant(B)) << A << " vs " << B;
}

TEST(CompileKeyTest, UnreferencedReadChangesKey) {
  // jacobi1d plus a read two steps back that the RHS never references: the
  // program verifies and prints identically, yet the read deepens the
  // rotating buffer, so the emitted unit differs.
  ir::StencilProgram P = ir::makeByName("jacobi1d");
  ir::StencilProgram Q(P.name(), P.spaceRank());
  for (const ir::FieldDecl &F : P.fields())
    Q.addField(F.Name);
  ir::StencilStmt S = P.stmts()[0];
  S.Reads.push_back({0, -2, {0}});
  Q.addStmt(S);
  Q.setSpaceSizes(P.spaceSizes());
  Q.setTimeSteps(P.timeSteps());
  ASSERT_EQ(Q.verify(), "");
  ASSERT_EQ(Q.str(), P.str());
  ASSERT_NE(Q.bufferDepth(0), P.bufferDepth(0));

  CompileRequest RP;
  RP.Program = P;
  CompileRequest RQ = RP;
  RQ.Program = Q;
  EXPECT_NE(makeCompileKey(RP), makeCompileKey(RQ));
}

TEST(CompileKeyTest, GridSizeAndStepsChangeKey) {
  CompileRequest R = baseRequest();
  CompileKey Base = makeCompileKey(R);

  CompileRequest Sized = R;
  Sized.Program = ir::makeJacobi2D(32, 6);
  EXPECT_NE(makeCompileKey(Sized), Base);

  CompileRequest Stepped = R;
  Stepped.Program = ir::makeJacobi2D(24, 8);
  EXPECT_NE(makeCompileKey(Stepped), Base);
}

TEST(CompileKeyTest, TilingChangesKey) {
  CompileRequest R = baseRequest();
  CompileKey Base = makeCompileKey(R);

  CompileRequest H = R;
  H.Tiling.H = 3;
  EXPECT_NE(makeCompileKey(H), Base);

  CompileRequest W = R;
  W.Tiling.W0 = 5;
  EXPECT_NE(makeCompileKey(W), Base);

  CompileRequest Inner = R;
  Inner.Tiling.InnerWidths = {8};
  EXPECT_NE(makeCompileKey(Inner), Base);

  // Model-driven selection (unset H) differs from any explicit height,
  // and the constraints that steer it are part of the identity.
  CompileRequest Auto = R;
  Auto.Tiling.H.reset();
  EXPECT_NE(makeCompileKey(Auto), Base);
  CompileRequest Constrained = Auto;
  Constrained.Tiling.Constraints.MaxH = 2;
  EXPECT_NE(makeCompileKey(Constrained), makeCompileKey(Auto));
}

TEST(CompileKeyTest, ConfigRungFlavorAndTargetChangeKey) {
  CompileRequest R = baseRequest();
  CompileKey Base = makeCompileKey(R);

  for (char Rung : {'a', 'b', 'c', 'e', 'f'}) {
    CompileRequest C = R;
    C.Config = codegen::OptimizationConfig::level(Rung);
    EXPECT_NE(makeCompileKey(C), Base) << "rung " << Rung;
  }

  CompileRequest F = R;
  F.Flavor = codegen::EmitSchedule::Classical;
  EXPECT_NE(makeCompileKey(F), Base);

  CompileRequest T = R;
  T.Target = TargetKind::Cuda;
  EXPECT_NE(makeCompileKey(T), Base);
}

TEST(CompileKeyTest, ShimThreadsChangesKey) {
  // Serial (ShimThreads = 0) and parallel (N > 0) renderings of the same
  // request are different source texts -- the parallel unit bakes in
  // #define HT_SHIM_THREADS N and the pool/barrier runtime -- so every
  // distinct thread count must land on its own key. A collision here
  // would serve a serial artifact to a parallel caller (or vice versa).
  CompileRequest Serial = baseRequest();
  ASSERT_EQ(Serial.Config.ShimThreads, 0);
  CompileRequest Par2 = Serial;
  Par2.Config.ShimThreads = 2;
  CompileRequest Par4 = Serial;
  Par4.Config.ShimThreads = 4;

  CompileKey KSerial = makeCompileKey(Serial);
  CompileKey K2 = makeCompileKey(Par2);
  CompileKey K4 = makeCompileKey(Par4);
  EXPECT_NE(KSerial, K2);
  EXPECT_NE(KSerial, K4);
  EXPECT_NE(K2, K4);
}

TEST(CompileKeyTest, GalleryProgramsAllDistinct) {
  // All 12 gallery programs x 4 rungs land on 48 distinct keys -- the
  // exact key population the stress test and loadtest replay.
  std::vector<CompileKey> Keys;
  for (const char *Name :
       {"jacobi1d", "skewed1d", "jacobi2d", "laplacian2d", "heat2d",
        "gradient2d", "fdtd2d", "wave2d", "varheat2d", "laplacian3d",
        "heat3d", "gradient3d"})
    for (char Rung : {'a', 'b', 'c', 'd'}) {
      CompileRequest R;
      R.Program = ir::makeByName(Name);
      R.Config = codegen::OptimizationConfig::level(Rung);
      Keys.push_back(makeCompileKey(R));
    }
  std::sort(Keys.begin(), Keys.end());
  EXPECT_EQ(std::adjacent_find(Keys.begin(), Keys.end()), Keys.end())
      << "two gallery requests collided";
}

TEST(CompileKeyTest, PrintedGalleryProgramKeysLikeItsIR) {
  // One program is one key, whether it arrives as IR or as its printed
  // text: the parser names statements S<i>, the API by what they compute,
  // and neither name reaches the compiled code.
  for (const char *Name :
       {"jacobi1d", "skewed1d", "jacobi2d", "laplacian2d", "heat2d",
        "gradient2d", "fdtd2d", "wave2d", "varheat2d", "laplacian3d",
        "heat3d", "gradient3d"}) {
    CompileRequest R = baseRequest();
    R.Program = ir::makeByName(Name);
    R.Tiling = {};
    frontend::ParseResult Parsed =
        frontend::parseStencilProgram(R.Program.str(), R.Program.name());
    ASSERT_TRUE(Parsed.ok()) << Name << ": " << Parsed.Error;
    CompileKey FromIR = makeCompileKey(R);
    R.Program = Parsed.Program;
    EXPECT_EQ(makeCompileKey(R), FromIR) << Name;
  }
}

TEST(CompileKeyTest, GoldenKey) {
  // Keys name the units of an on-disk store that later processes reopen,
  // so a key must not depend on anything but the request. Changing this
  // value orphans every existing store: each of its units recompiles once.
  // Host keys move with codegen::HostUnitFormat.
  EXPECT_EQ(makeCompileKey(baseRequest()).hex(),
            "71a6228ae47683e4ce6c03c0c586cbdb");
}

TEST(CompileKeyTest, GoldenCudaKey) {
  // The CUDA text does not depend on the host unit format, so neither
  // does a CUDA key: a host format bump leaves CUDA stores valid.
  CompileRequest R = baseRequest();
  R.Target = TargetKind::Cuda;
  EXPECT_EQ(makeCompileKey(R).hex(), "f91b24307e23976c51c2fc225c0c3118");
}

TEST(CompileKeyTest, HexRoundTripAndRejection) {
  CompileKey K = makeCompileKey(baseRequest());
  std::string Hex = K.hex();
  EXPECT_EQ(Hex.size(), 32u);
  CompileKey Back;
  ASSERT_TRUE(CompileKey::fromHex(Hex, Back));
  EXPECT_EQ(Back, K);

  CompileKey Junk;
  EXPECT_FALSE(CompileKey::fromHex("short", Junk));
  EXPECT_FALSE(CompileKey::fromHex(std::string(32, 'z'), Junk));
  EXPECT_FALSE(
      CompileKey::fromHex(Hex.substr(0, 31) + "G", Junk));
}
