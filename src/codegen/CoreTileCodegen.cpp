//===- CoreTileCodegen.cpp - Unrolled core-tile code (Fig. 2) -------------===//

#include "codegen/CoreTileCodegen.h"

#include "core/TileAnalysis.h"
#include "support/MathExt.h"

#include <cassert>
#include <cstdio>
#include <numeric>

using namespace hextile;
using namespace hextile::ir;
using namespace hextile::codegen;

namespace {

/// Register allocator + PTX-style emitter for one expression tree.
class PtxEmitter {
public:
  PtxEmitter(const StencilProgram &P, const StencilStmt &S,
             int64_t SharedPitch, bool RegisterReuse)
      : P(P), S(S), Pitch(SharedPitch), Reuse(RegisterReuse) {}

  CoreTileCode run() {
    CoreTileCode Out;
    std::vector<unsigned> Loads;
    if (Reuse) {
      Loads = core::registerWindowLoads(S);
    } else {
      Loads.resize(S.Reads.size());
      std::iota(Loads.begin(), Loads.end(), 0u);
    }
    ReadRegs.assign(S.Reads.size(), -1);
    for (unsigned R : Loads) {
      int Reg = nextReg();
      emit("ld.shared.f32 %f" + std::to_string(Reg) + ", [" +
           address(S.Reads[R]) + "];");
      ++Stats.SharedLoads;
      ReadRegs[R] = Reg;
    }
    if (Reuse)
      for (unsigned R = 0; R < S.Reads.size(); ++R) {
        if (ReadRegs[R] >= 0)
          continue;
        int Reg = nextReg();
        emit("mov.f32      %f" + std::to_string(Reg) + ", %r_win" +
             std::to_string(R) + ";   // register-rotated from previous "
             "iteration");
        ++Stats.RegisterReused;
        ReadRegs[R] = Reg;
      }
    int Result = walk(S.RHS);
    emit("st.shared.f32 [" + writeAddress() + "], %f" +
         std::to_string(Result) + ";");
    ++Stats.SharedStores;
    Out.Ptx = Text;
    Out.Stats = Stats;
    return Out;
  }

private:
  std::string address(const ReadAccess &A) const {
    // Byte offset in a row-major shared window with the given pitch; the
    // s0 dimension uses the pitch of one full row.
    int64_t Off = 0;
    for (unsigned D = 0; D < A.Offsets.size(); ++D)
      Off = Off * (D + 1 == A.Offsets.size() ? Pitch : 64) + A.Offsets[D];
    int64_t TimeSlot = euclidMod(A.TimeOffset, 2);
    int64_t Byte = (TimeSlot * 64 * Pitch + Off) * 4 + BaseByte;
    return "%rd_buf" + std::to_string(A.Field) + "+" +
           std::to_string(Byte);
  }

  std::string writeAddress() const {
    return "%rd_buf" + std::to_string(S.WriteField) + "+" +
           std::to_string(BaseByte);
  }

  int walk(const StencilExpr &E) {
    switch (E.kind()) {
    case ExprKind::ReadRef:
      return ReadRegs[E.readIndex()];
    case ExprKind::ConstF32: {
      int Reg = nextReg();
      emit("mov.f32      %f" + std::to_string(Reg) + ", 0f" +
           hexFloat(E.constantValue()) + ";");
      return Reg;
    }
    default:
      break;
    }
    int L = E.lhs() ? walk(*E.lhs()) : -1;
    int R = E.rhs() ? walk(*E.rhs()) : -1;
    int Reg = nextReg();
    std::string Op;
    switch (E.kind()) {
    case ExprKind::Add:
      Op = "add.f32";
      break;
    case ExprKind::Sub:
      Op = "sub.f32";
      break;
    case ExprKind::Mul:
      Op = "mul.f32";
      break;
    case ExprKind::Div:
      Op = "div.rn.f32";
      break;
    case ExprKind::Neg:
      Op = "neg.f32";
      break;
    case ExprKind::Sqrt:
      Op = "sqrt.rn.f32";
      break;
    case ExprKind::Abs:
      Op = "abs.f32";
      break;
    case ExprKind::Min:
      Op = "min.f32";
      break;
    case ExprKind::Max:
      Op = "max.f32";
      break;
    default:
      assert(false && "not an arithmetic node");
    }
    ++Stats.ComputeOps;
    std::string Line = Op + "      %f" + std::to_string(Reg) + ", %f" +
                       std::to_string(L);
    if (R >= 0)
      Line += ", %f" + std::to_string(R);
    emit(Line + ";");
    return Reg;
  }

  static std::string hexFloat(float V) {
    uint32_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    __builtin_memcpy(&Bits, &V, sizeof(Bits));
    char Buf[9];
    std::snprintf(Buf, sizeof(Buf), "%08X", Bits);
    return Buf;
  }

  int nextReg() { return ++RegCounter; }
  void emit(const std::string &Line) { Text += Line + "\n"; }

  const StencilProgram &P;
  const StencilStmt &S;
  int64_t Pitch;
  bool Reuse;
  int64_t BaseByte = 1624; // Arbitrary in-window base, as in Fig. 2.
  int RegCounter = 350;
  std::vector<int> ReadRegs;
  std::string Text;
  CoreTileStats Stats;
};

} // namespace

CoreTileCode codegen::emitCoreTile(const ir::StencilProgram &P,
                                   unsigned StmtIdx, int64_t SharedPitch,
                                   bool EnableRegisterReuse) {
  assert(StmtIdx < P.numStmts() && "statement index out of range");
  PtxEmitter E(P, P.stmts()[StmtIdx], SharedPitch, EnableRegisterReuse);
  return E.run();
}
