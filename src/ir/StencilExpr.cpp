//===- StencilExpr.cpp - Stencil right-hand-side expressions --------------===//

#include "ir/StencilExpr.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>

using namespace hextile;
using namespace hextile::ir;

bool ir::isArithmetic(ExprKind K) {
  switch (K) {
  case ExprKind::ReadRef:
  case ExprKind::ConstF32:
    return false;
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Div:
  case ExprKind::Neg:
  case ExprKind::Sqrt:
  case ExprKind::Abs:
  case ExprKind::Min:
  case ExprKind::Max:
    return true;
  }
  return false;
}

StencilExpr StencilExpr::read(unsigned Index) {
  StencilExpr E(ExprKind::ReadRef);
  E.Index = Index;
  return E;
}

StencilExpr StencilExpr::constant(float Value) {
  StencilExpr E(ExprKind::ConstF32);
  E.Value = Value;
  return E;
}

StencilExpr StencilExpr::binary(ExprKind K, const StencilExpr &A,
                                const StencilExpr &B) {
  StencilExpr E(K);
  E.LHS = std::make_shared<StencilExpr>(A);
  E.RHS = std::make_shared<StencilExpr>(B);
  return E;
}

StencilExpr StencilExpr::unary(ExprKind K, const StencilExpr &A) {
  StencilExpr E(K);
  E.LHS = std::make_shared<StencilExpr>(A);
  return E;
}

unsigned StencilExpr::countFlops() const {
  unsigned N = isArithmetic(K) ? 1 : 0;
  if (LHS)
    N += LHS->countFlops();
  if (RHS)
    N += RHS->countFlops();
  return N;
}

unsigned StencilExpr::countReadRefs() const {
  unsigned N = K == ExprKind::ReadRef ? 1 : 0;
  if (LHS)
    N += LHS->countReadRefs();
  if (RHS)
    N += RHS->countReadRefs();
  return N;
}

int StencilExpr::maxReadIndex() const {
  int N = K == ExprKind::ReadRef ? static_cast<int>(Index) : -1;
  if (LHS)
    N = std::max(N, LHS->maxReadIndex());
  if (RHS)
    N = std::max(N, RHS->maxReadIndex());
  return N;
}

float StencilExpr::evaluate(std::span<const float> ReadValues) const {
  switch (K) {
  case ExprKind::ReadRef:
    assert(Index < ReadValues.size() && "read index out of range");
    return ReadValues[Index];
  case ExprKind::ConstF32:
    return Value;
  case ExprKind::Add:
    return LHS->evaluate(ReadValues) + RHS->evaluate(ReadValues);
  case ExprKind::Sub:
    return LHS->evaluate(ReadValues) - RHS->evaluate(ReadValues);
  case ExprKind::Mul:
    return LHS->evaluate(ReadValues) * RHS->evaluate(ReadValues);
  case ExprKind::Div:
    return LHS->evaluate(ReadValues) / RHS->evaluate(ReadValues);
  case ExprKind::Neg:
    return -LHS->evaluate(ReadValues);
  case ExprKind::Sqrt:
    return std::sqrt(LHS->evaluate(ReadValues));
  case ExprKind::Abs:
    return std::fabs(LHS->evaluate(ReadValues));
  case ExprKind::Min:
    return std::min(LHS->evaluate(ReadValues), RHS->evaluate(ReadValues));
  case ExprKind::Max:
    return std::max(LHS->evaluate(ReadValues), RHS->evaluate(ReadValues));
  }
  assert(false && "unknown expression kind");
  return 0.0f;
}

std::string StencilExpr::str(std::span<const std::string> ReadNames) const {
  switch (K) {
  case ExprKind::ReadRef:
    if (Index < ReadNames.size())
      return ReadNames[Index];
    return "r" + std::to_string(Index);
  case ExprKind::ConstF32: {
    // The shortest fixed digits that read back through the lexer (std::stod,
    // then a float cast) to this exact float; it takes no exponent sign.
    char Buf[64];
    std::string S(Buf, std::to_chars(Buf, std::end(Buf), Value,
                                     std::chars_format::fixed).ptr);
    return S + (S.find('.') == std::string::npos ? ".0f" : "f");
  }
  case ExprKind::Add:
    return "(" + LHS->str(ReadNames) + " + " + RHS->str(ReadNames) + ")";
  case ExprKind::Sub:
    return "(" + LHS->str(ReadNames) + " - " + RHS->str(ReadNames) + ")";
  case ExprKind::Mul:
    return "(" + LHS->str(ReadNames) + " * " + RHS->str(ReadNames) + ")";
  case ExprKind::Div:
    return "(" + LHS->str(ReadNames) + " / " + RHS->str(ReadNames) + ")";
  case ExprKind::Neg:
    // The parser folds a minus written directly on a literal into the
    // constant, so a negated literal keeps its own parentheses.
    if (LHS->K == ExprKind::ConstF32)
      return "(-(" + LHS->str(ReadNames) + "))";
    return "(-" + LHS->str(ReadNames) + ")";
  case ExprKind::Sqrt:
    return "sqrtf(" + LHS->str(ReadNames) + ")";
  case ExprKind::Abs:
    return "fabsf(" + LHS->str(ReadNames) + ")";
  case ExprKind::Min:
    return "fminf(" + LHS->str(ReadNames) + ", " + RHS->str(ReadNames) + ")";
  case ExprKind::Max:
    return "fmaxf(" + LHS->str(ReadNames) + ", " + RHS->str(ReadNames) + ")";
  }
  return "?";
}
