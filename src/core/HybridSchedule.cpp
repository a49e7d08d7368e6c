//===- HybridSchedule.cpp - Hybrid hexagonal/classical schedule -----------===//

#include "core/HybridSchedule.h"

#include <cassert>

using namespace hextile;
using namespace hextile::core;

HybridSchedule::HybridSchedule(const HexTileParams &Params,
                               std::vector<int64_t> InnerWidths,
                               std::vector<Rational> InnerDelta1)
    : Hex(Params) {
  assert(InnerWidths.size() == InnerDelta1.size() &&
         "one width and one slope per inner dimension");
  Inner.reserve(InnerWidths.size());
  for (unsigned I = 0, E = InnerWidths.size(); I < E; ++I)
    Inner.emplace_back(InnerWidths[I], InnerDelta1[I], Params.timePeriod());
}

HexTileCoord HybridSchedule::compose(std::span<const int64_t> Point,
                                     std::span<int64_t> S,
                                     std::span<int64_t> LocalS) const {
  assert(Point.size() == spaceRank() + 1 && "point arity mismatch");
  HexTileCoord HC = Hex.locate(Point[0], Point[1]);
  S[0] = HC.S0;
  LocalS[0] = HC.B;
  // The normalized time u equals the local coordinate a by eqs. (15)/(16).
  int64_t U = HC.A;
  for (unsigned I = 0, E = Inner.size(); I < E; ++I) {
    S[I + 1] = Inner[I].tileIndex(Point[I + 2], U);
    LocalS[I + 1] = Inner[I].localIndex(Point[I + 2], U);
  }
  return HC;
}

HybridVector HybridSchedule::map(std::span<const int64_t> Point) const {
  HybridVector V;
  V.S.resize(spaceRank());
  V.LocalS.resize(spaceRank());
  HexTileCoord HC = compose(Point, V.S, V.LocalS);
  V.T = HC.T;
  V.Phase = HC.Phase;
  V.LocalT = HC.A;
  return V;
}

void HybridSchedule::appendKey(std::span<const int64_t> Point,
                               std::vector<int64_t> &Out) const {
  // Layout: [T, p | S0..Sn | t' | s0'..sn'].
  size_t Rank = spaceRank();
  size_t Base = Out.size();
  Out.resize(Base + 3 + 2 * Rank);
  std::span<int64_t> Key(Out.data() + Base, 3 + 2 * Rank);
  HexTileCoord HC =
      compose(Point, Key.subspan(2, Rank), Key.subspan(3 + Rank, Rank));
  Key[0] = HC.T;
  Key[1] = HC.Phase;
  Key[2 + Rank] = HC.A;
}

ExecOrder HybridSchedule::compare(const HybridVector &X,
                                  const HybridVector &Y) {
  // Host loop over T, then the two kernels p = 0, 1.
  if (X.T != Y.T)
    return X.T < Y.T ? ExecOrder::Before : ExecOrder::After;
  if (X.Phase != Y.Phase)
    return X.Phase < Y.Phase ? ExecOrder::Before : ExecOrder::After;
  // Same kernel: thread blocks over S0 are concurrent.
  if (X.S[0] != Y.S[0])
    return ExecOrder::ParallelBlocks;
  // Same block: (S1, ..., Sn, t') are sequential loops.
  for (unsigned I = 1, E = X.S.size(); I < E; ++I)
    if (X.S[I] != Y.S[I])
      return X.S[I] < Y.S[I] ? ExecOrder::Before : ExecOrder::After;
  if (X.LocalT != Y.LocalT)
    return X.LocalT < Y.LocalT ? ExecOrder::Before : ExecOrder::After;
  // Same sequential prefix: threads are concurrent.
  return ExecOrder::ParallelThreads;
}

std::string HybridSchedule::str() const {
  std::string Out;
  for (int Phase = 0; Phase < 2; ++Phase) {
    Out += "phase " + std::to_string(Phase) + ": [t";
    for (unsigned D = 0; D < spaceRank(); ++D)
      Out += ", s" + std::to_string(D);
    Out += "] -> [\n";
    Out += "  T  = " + Hex.exprT(Phase).str() + "\n";
    Out += "  p  = " + std::to_string(Phase) + "\n";
    Out += "  S0 = " + Hex.exprS0(Phase).str() + "\n";
    for (unsigned I = 0, E = Inner.size(); I < E; ++I) {
      // Variables: 0 = u (normalized time), 1 = s_i.
      Out += "  S" + std::to_string(I + 1) + " = " +
             Inner[I].exprTile(0, 1, "s" + std::to_string(I + 1)).str() +
             "  with u = " + Hex.exprA(Phase).str() + "\n";
    }
    Out += "  t' = " + Hex.exprA(Phase).str() + "\n";
    Out += "  s0' = " + Hex.exprB(Phase).str() + "\n";
    for (unsigned I = 0, E = Inner.size(); I < E; ++I)
      Out += "  s" + std::to_string(I + 1) + "' = " +
             Inner[I].exprLocal(0, 1, "s" + std::to_string(I + 1)).str() +
             "\n";
    Out += "]\n";
  }
  return Out;
}
