//===- CompileKey.cpp - Content-hash identity of one compile --------------===//

#include "service/CompileKey.h"

#include "codegen/HostEmitter.h"
#include "support/Hash.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

using namespace hextile;
using namespace hextile::service;

const char *service::targetKindName(TargetKind T) {
  switch (T) {
  case TargetKind::Host:
    return "host";
  case TargetKind::Cuda:
    return "cuda";
  }
  return "unknown";
}

namespace {

/// Two independent 64-bit streams fed one word at a time. Each step is a
/// bijection of the stream's state for a fixed word (xor or add, odd
/// multiply, xorshift), so requests whose words differ in one place never
/// collide; mix64 finishes each stream.
struct KeyStream {
  uint64_t A = 0xcbf29ce484222325ull, B = 0x6c62272e07bb0142ull;

  template <typename... Ts> void words(Ts... Ws) {
    for (uint64_t W : {static_cast<uint64_t>(Ws)...}) {
      A = (A ^ W) * 0x9e3779b97f4a7c15ull;
      A ^= A >> 32;
      B = (B + W) * 0xd6e8feb86659fd93ull;
      B ^= B >> 29;
    }
  }
  /// A list is its length, then its elements.
  void list(const std::vector<int64_t> &Vs) {
    words(Vs.size());
    for (int64_t V : Vs)
      words(V);
  }
  /// A string is its length, then 8-byte chunks (the last zero-padded).
  void text(const std::string &S) {
    words(S.size());
    for (size_t I = 0; I < S.size(); I += 8) {
      uint64_t W = 0;
      std::memcpy(&W, S.data() + I, std::min<size_t>(8, S.size() - I));
      words(W);
    }
  }
  /// An expression in prefix order, one word per node: the kind over the
  /// read index or the constant's exact bits. The kind fixes the arity.
  void expr(const ir::StencilExpr &E) {
    uint32_t Payload = E.kind() == ir::ExprKind::ConstF32
                           ? std::bit_cast<uint32_t>(E.constantValue())
                           : E.readIndex(); // 0 on every non-read node
    words(static_cast<uint64_t>(E.kind()) << 32 | Payload);
    if (E.lhs())
      expr(*E.lhs());
    if (E.rhs())
      expr(*E.rhs());
  }
};

} // namespace

std::string CompileKey::hex() const {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(Hi),
                static_cast<unsigned long long>(Lo));
  return Buf;
}

bool CompileKey::fromHex(const std::string &S, CompileKey &Out) {
  if (S.size() != 32)
    return false;
  uint64_t Parts[2] = {0, 0};
  for (unsigned Half = 0; Half < 2; ++Half)
    for (unsigned I = 0; I < 16; ++I) {
      char C = S[Half * 16 + I];
      uint64_t Digit;
      if (C >= '0' && C <= '9')
        Digit = C - '0';
      else if (C >= 'a' && C <= 'f')
        Digit = 10 + (C - 'a');
      else
        return false;
      Parts[Half] = (Parts[Half] << 4) | Digit;
    }
  Out.Hi = Parts[0];
  Out.Lo = Parts[1];
  return true;
}

CompileKey service::makeCompileKey(const CompileRequest &R) {
  KeyStream K;
  const ir::StencilProgram &P = R.Program;
  K.text(P.name());
  K.words(P.spaceRank());
  K.list(P.spaceSizes());
  K.words(P.timeSteps(), P.fields().size());
  for (const ir::FieldDecl &F : P.fields()) {
    K.text(F.Name);
    K.words(F.Rank);
  }
  K.words(P.stmts().size());
  // Statement names are left out: they reach the emitted unit only as
  // comments, and the printed form the parser reads back drops them.
  for (const ir::StencilStmt &S : P.stmts()) {
    K.words(S.WriteField, S.Reads.size());
    // Every declared read, referenced or not: each one can deepen the
    // rotating buffer the emitted unit allocates.
    for (const ir::ReadAccess &Rd : S.Reads) {
      K.words(Rd.Field, Rd.TimeOffset);
      K.list(Rd.Offsets);
    }
    K.expr(S.RHS);
  }

  const codegen::TileSizeRequest &T = R.Tiling;
  const core::TileSizeConstraints &C = T.Constraints;
  K.words(T.H.has_value(), T.H.value_or(0), T.W0.has_value(),
          T.W0.value_or(0));
  K.list(T.InnerWidths);
  K.words(C.SharedMemBytes, C.WarpSize, C.MaxH, C.MaxW0);
  K.list(C.MiddleWidths);
  K.list(C.InnermostWidths);
  K.list(C.W0Widths);

  // ShimThreads included: serial (0) and parallel (N > 0) shim renderings
  // are different source texts, so they must never share an artifact.
  K.words(R.Config.Rung, R.Config.ShimThreads, R.Flavor, R.Target);
  // Host units only: a change of the host text moves no CUDA key.
  if (R.Target == TargetKind::Host)
    K.words(codegen::HostUnitFormat);
  return CompileKey{mix64(K.B), mix64(K.A)};
}
