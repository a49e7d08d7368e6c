//===- TileAnalysis.cpp - Exact per-tile cost analysis --------------------===//

#include "core/TileAnalysis.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <set>

using namespace hextile;
using namespace hextile::core;

namespace {

/// A value identity: (field, producer version, spatial cell...), flattened
/// into a vector for set storage.
using ValueKey = std::vector<int64_t>;

/// Enumeration context shared by the slab walks.
struct SlabContext {
  const ir::StencilProgram &P;
  const deps::DependenceInfo &Deps;
  const HybridSchedule &Sched;
  unsigned Rank;

  /// Producer version of read \p R issued by statement \p J at slab time
  /// \p A. Read-only fields (no writer) carry a single pre-existing
  /// version: every read of such a cell is the same initial value, so all
  /// its reads dedup into one input regardless of the rotating slot.
  static constexpr int64_t ReadOnlyVersion =
      std::numeric_limits<int64_t>::min() / 4;
  int64_t readVersion(unsigned J, int64_t A, const ir::ReadAccess &R) const {
    int Writer = P.writerOf(R.Field);
    if (Writer < 0)
      return ReadOnlyVersion;
    return A + static_cast<int64_t>(P.numStmts()) * R.TimeOffset -
           (static_cast<int64_t>(J) - Writer);
  }

  /// Visits every instance of the generic slab as (a, cell[0..rank)) where
  /// cell[0] = b and cell[i] = slab-local s_i.
  void forEachInstance(
      const std::function<void(int64_t A, std::span<const int64_t> Cell)>
          &Fn) const {
    const HexTileParams &Par = Sched.params();
    const HexagonGeometry &Hex = Sched.hex().hexagon();
    std::vector<int64_t> Cell(Rank);
    for (int64_t A = 0; A < Par.timePeriod(); ++A) {
      int64_t LoB, HiB;
      Hex.rowRange(A, LoB, HiB);
      if (LoB > HiB)
        continue;
      // Inner windows shift with the skew at normalized time u = a.
      std::vector<int64_t> Lo(Rank - 1), Hi(Rank - 1);
      for (unsigned I = 0; I + 1 < Rank; ++I) {
        int64_t Skew = Sched.inner()[I].skew(A);
        Lo[I] = -Skew;
        Hi[I] = Sched.inner()[I].width() - Skew;
      }
      std::function<void(unsigned)> Walk = [&](unsigned Dim) {
        if (Dim == Rank) {
          Fn(A, Cell);
          return;
        }
        if (Dim == 0) {
          for (int64_t B = LoB; B <= HiB; ++B) {
            Cell[0] = B;
            Walk(1);
          }
          return;
        }
        for (int64_t S = Lo[Dim - 1]; S < Hi[Dim - 1]; ++S) {
          Cell[Dim] = S;
          Walk(Dim + 1);
        }
      };
      Walk(0);
    }
  }
};

ValueKey makeKey(unsigned Field, int64_t Version,
                 std::span<const int64_t> Cell) {
  ValueKey K;
  K.reserve(Cell.size() + 2);
  K.push_back(Field);
  K.push_back(Version);
  K.insert(K.end(), Cell.begin(), Cell.end());
  return K;
}

/// Groups \p Values into maximal consecutive rows along the innermost
/// coordinate (the last key component).
std::vector<TransferRow> groupRows(const std::set<ValueKey> &Values) {
  std::vector<TransferRow> Rows;
  // std::set iterates in lexicographic order, so equal prefixes with
  // increasing innermost coordinates are adjacent.
  const ValueKey *PrevKey = nullptr;
  for (const ValueKey &K : Values) {
    bool Extends = false;
    if (PrevKey && PrevKey->size() == K.size()) {
      Extends = std::equal(K.begin(), K.end() - 1, PrevKey->begin()) &&
                K.back() == PrevKey->back() + 1;
    }
    if (Extends) {
      ++Rows.back().Len;
    } else {
      TransferRow R;
      R.Field = static_cast<unsigned>(K[0]);
      R.Start = K.back();
      R.Len = 1;
      Rows.push_back(R);
    }
    PrevKey = &K;
  }
  return Rows;
}

} // namespace

std::vector<unsigned> core::registerWindowLoads(const ir::StencilStmt &S) {
  std::map<std::vector<int64_t>, unsigned> Leader;
  for (unsigned R = 0; R < S.Reads.size(); ++R) {
    const ir::ReadAccess &A = S.Reads[R];
    std::vector<int64_t> Group{A.Field, A.TimeOffset};
    Group.insert(Group.end(), A.Offsets.begin() + 1, A.Offsets.end());
    auto [It, New] = Leader.try_emplace(std::move(Group), R);
    if (!New && A.Offsets[0] > S.Reads[It->second].Offsets[0])
      It->second = R;
  }
  std::vector<unsigned> Loads;
  for (const auto &[Group, R] : Leader)
    Loads.push_back(R);
  std::sort(Loads.begin(), Loads.end());
  return Loads;
}

SlabCosts core::analyzeSlab(const ir::StencilProgram &P,
                            const deps::DependenceInfo &Deps,
                            const HybridSchedule &Sched) {
  SlabCosts C;
  unsigned Rank = P.spaceRank();
  assert(Sched.spaceRank() == Rank && "schedule/program rank mismatch");
  SlabContext Ctx{P, Deps, Sched, Rank};

  // Pass 1: the output set O and the instance-derived counters.
  std::vector<int64_t> WindowLoads;
  for (const ir::StencilStmt &S : P.stmts())
    WindowLoads.push_back(
        static_cast<int64_t>(registerWindowLoads(S).size()));
  std::set<ValueKey> Out;
  Ctx.forEachInstance([&](int64_t A, std::span<const int64_t> Cell) {
    unsigned J = euclidMod(A, P.numStmts());
    const ir::StencilStmt &S = P.stmts()[J];
    ++C.Instances;
    C.Flops += S.flops();
    C.SharedLoads += S.numReads();
    C.SharedLoadsUnrolled += WindowLoads[J];
    ++C.SharedStores;
    Out.insert(makeKey(S.WriteField, A, Cell));
  });
  C.StoreValues = static_cast<int64_t>(Out.size());

  // Pass 2: the input set I = reads \ O.
  std::set<ValueKey> In;
  std::vector<int64_t> RCell(Rank);
  Ctx.forEachInstance([&](int64_t A, std::span<const int64_t> Cell) {
    unsigned J = euclidMod(A, P.numStmts());
    const ir::StencilStmt &S = P.stmts()[J];
    for (const ir::ReadAccess &R : S.Reads) {
      int64_t Version = Ctx.readVersion(J, A, R);
      for (unsigned D = 0; D < Rank; ++D)
        RCell[D] = Cell[D] + R.Offsets[D];
      ValueKey K = makeKey(R.Field, Version, RCell);
      if (!Out.count(K))
        In.insert(std::move(K));
    }
  });
  C.LoadValues = static_cast<int64_t>(In.size());
  C.LoadRows = groupRows(In);

  // Inter-tile reuse (Sec. 4.2.2): a value already present in the
  // predecessor slab (previous window along the innermost classical
  // dimension) moves within shared memory instead of being reloaded.
  std::set<ValueKey> InReuse;
  if (Rank >= 2) {
    int64_t WLast = Sched.inner().back().width();
    for (const ValueKey &K : In) {
      ValueKey Shifted = K;
      Shifted.back() += WLast;
      if (!Out.count(Shifted) && !In.count(Shifted))
        InReuse.insert(K);
    }
  } else {
    InReuse = In;
  }
  C.LoadValuesReuse = static_cast<int64_t>(InReuse.size());
  C.LoadRowsReuse = groupRows(InReuse);
  C.StoreRows = groupRows(Out);

  // Rectangular-box load rows (Sec. 4.2): one full-width, divergence-free
  // row per distinct (field, version, outer-coordinates) combination that
  // contributes any input value.
  {
    std::set<ValueKey> Prefixes;
    for (const ValueKey &K : In) {
      ValueKey Prefix(K.begin(), K.end() - 1);
      Prefixes.insert(std::move(Prefix));
    }
    int64_t BoxLo, BoxLen;
    if (Rank >= 2) {
      unsigned Last = Rank - 1;
      BoxLo = -P.loHalo(Last);
      BoxLen = Sched.inner().back().width() + P.loHalo(Last) +
               P.hiHalo(Last);
    } else {
      const HexagonGeometry &HexG = Sched.hex().hexagon();
      BoxLo = HexG.minB() - P.loHalo(0);
      BoxLen = HexG.maxB() - HexG.minB() + 1 + P.loHalo(0) + P.hiHalo(0);
    }
    for (const ValueKey &Prefix : Prefixes) {
      TransferRow R;
      R.Field = static_cast<unsigned>(Prefix[0]);
      R.Start = BoxLo;
      R.Len = BoxLen;
      C.LoadRowsBox.push_back(R);
      C.LoadValuesBox += BoxLen;
    }
  }

  // Shared-memory footprint: per field a rotating window of (1 + depth)
  // copies of the *sliding* spatial window. Along s0, the hexagon's full
  // b-extent plus halo stays live; along the inner dimensions the buffer is
  // indexed relative to the skewed window, so only w_i plus the halo is
  // live at any time (older versions' cells outside the current halo are
  // dead and get overwritten in place).
  const HexagonGeometry &Hex = Sched.hex().hexagon();
  int64_t BExtent =
      Hex.maxB() - Hex.minB() + 1 + P.loHalo(0) + P.hiHalo(0);
  for (unsigned F = 0; F < P.fields().size(); ++F) {
    bool Touched = P.writerOf(F) >= 0;
    for (const ir::StencilStmt &S : P.stmts())
      for (const ir::ReadAccess &R : S.Reads)
        Touched = Touched || R.Field == F;
    if (!Touched)
      continue;
    int64_t Box = 4 * static_cast<int64_t>(P.bufferDepth(F)) * BExtent;
    for (unsigned I = 1; I < Rank; ++I)
      Box *= Sched.inner()[I - 1].width() + P.loHalo(I) + P.hiHalo(I);
    C.SharedBytes += Box;
  }
  return C;
}

int64_t core::slabsPerBlock(const ir::StencilProgram &P,
                            const HybridSchedule &Sched) {
  IterationDomain D = IterationDomain::forProgram(P);
  int64_t N = 1;
  for (unsigned I = 1; I < P.spaceRank(); ++I) {
    int64_t Extent = D.SpaceHi[I] - D.SpaceLo[I];
    N *= ceilDiv(Extent, Sched.inner()[I - 1].width());
  }
  return N;
}

int64_t core::blocksPerLaunch(const ir::StencilProgram &P,
                              const HybridSchedule &Sched) {
  IterationDomain D = IterationDomain::forProgram(P);
  int64_t Extent = D.SpaceHi[0] - D.SpaceLo[0];
  return ceilDiv(Extent, Sched.params().spacePeriod()) + 1;
}

int64_t core::launches(const ir::StencilProgram &P,
                       const HybridSchedule &Sched) {
  IterationDomain D = IterationDomain::forProgram(P);
  const HexTileParams &Par = Sched.params();
  int64_t TP = Par.timePeriod();
  // Phase 0: T = floor((t + h + 1) / TP) over t in [0, TE).
  int64_t P0 = floorDiv(D.TimeExtent - 1 + Par.H + 1, TP) -
               floorDiv(Par.H + 1, TP) + 1;
  // Phase 1: T = floor(t / TP).
  int64_t P1 = floorDiv(D.TimeExtent - 1, TP) + 1;
  return P0 + P1;
}

core::HaloExtent core::partitionHaloExtent(const ir::StencilProgram &P,
                                           unsigned Dim, int64_t Steps) {
  assert(Steps >= 1 && "halo extent needs at least one step of reach");
  // Reach accumulates linearly with the number of unexchanged steps: a
  // chain of reads across k canonical steps spreads at most k * halo cells
  // per side (the dependence cone's spread, conservatively per-step).
  return {Steps * P.loHalo(Dim), Steps * P.hiHalo(Dim)};
}

int64_t core::minPartitionWidth(const ir::StencilProgram &P, unsigned Dim,
                                int64_t Steps) {
  HaloExtent H = partitionHaloExtent(P, Dim, Steps);
  return std::max<int64_t>({H.Lo, H.Hi, 1});
}
