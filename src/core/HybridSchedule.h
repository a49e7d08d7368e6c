//===- HybridSchedule.h - Hybrid hexagonal/classical schedule --*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full hybrid tiling of Sec. 3.6: the composition
///
///   [t, s0, ..., sn] -> [T, p, S0, S1, ..., Sn, t', s0', s1', ..., sn']
///
/// of the two-phase hexagonal schedule on (t, s0) (Sec. 3.3) with the
/// classical skewed tiling of every inner dimension (Sec. 3.4) and the
/// intra-tile schedules of Sec. 3.5. Execution semantics (Sec. 4.1):
///
///   T            host-side sequential loop
///   p            two kernel launches per T (global barrier between phases)
///   S0           parallel across thread blocks
///   S1..Sn, t'   sequential loops inside the kernel
///   s0'..sn'     parallel across threads (barrier after each t')
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CORE_HYBRIDSCHEDULE_H
#define HEXTILE_CORE_HYBRIDSCHEDULE_H

#include "core/ClassicalTiling.h"
#include "core/HexSchedule.h"
#include "core/IterationDomain.h"

namespace hextile {
namespace core {

/// The image of one iteration point under the hybrid schedule.
struct HybridVector {
  int64_t T = 0;
  int Phase = 0;
  std::vector<int64_t> S;      ///< S[0] hexagonal, S[1..] classical.
  int64_t LocalT = 0;          ///< t' = local a.
  std::vector<int64_t> LocalS; ///< LocalS[0] = b, LocalS[1..] classical.

  bool sameBlock(const HybridVector &O) const {
    return T == O.T && Phase == O.Phase && S[0] == O.S[0];
  }
  bool sameTile(const HybridVector &O) const {
    return T == O.T && Phase == O.Phase && S == O.S;
  }
};

/// Relative execution order of two schedule images.
enum class ExecOrder {
  Before,          ///< X is guaranteed to execute before Y.
  After,           ///< X is guaranteed to execute after Y.
  ParallelBlocks,  ///< Same (T, p), different S0: concurrent thread blocks.
  ParallelThreads, ///< Same sequential prefix: concurrent threads.
};

/// The hybrid hexagonal/classical schedule for a fixed set of tile sizes.
class HybridSchedule {
public:
  /// \p Params configures the hexagonal (t, s0) tiling; \p InnerWidths gives
  /// w_i and \p InnerDelta1 the skew slope delta1_i for each dimension
  /// s_i, i >= 1 (both of size rank-1).
  HybridSchedule(const HexTileParams &Params,
                 std::vector<int64_t> InnerWidths,
                 std::vector<Rational> InnerDelta1);

  const HexSchedule &hex() const { return Hex; }
  const HexTileParams &params() const { return Hex.params(); }
  const std::vector<ClassicalTiling> &inner() const { return Inner; }
  unsigned spaceRank() const { return Inner.size() + 1; }

  /// Maps a canonical point [t, s0, ..., sn]; asserts arity.
  HybridVector map(std::span<const int64_t> Point) const;

  /// Appends the Sec. 4.1 key [T, p, S0, S1..Sn, t', s0'..sn'] of \p Point
  /// -- map()'s fields in order, 3 + 2 * spaceRank() values -- to \p Out
  /// after its existing contents, without allocating a HybridVector.
  void appendKey(std::span<const int64_t> Point,
                 std::vector<int64_t> &Out) const;

  /// Relative execution order of two images under the Sec. 4.1 semantics.
  static ExecOrder compare(const HybridVector &X, const HybridVector &Y);

  /// Renders both phase maps in the style of Fig. 6.
  std::string str() const;

private:
  /// The composition itself: locates (t, s0) in the hexagonal schedule,
  /// writes S0..Sn into \p S and s0'..sn' into \p LocalS (spaceRank()
  /// values each) and returns the hexagonal coordinate for T, p and t'.
  HexTileCoord compose(std::span<const int64_t> Point, std::span<int64_t> S,
                       std::span<int64_t> LocalS) const;

  HexSchedule Hex;
  std::vector<ClassicalTiling> Inner;
};

} // namespace core
} // namespace hextile

#endif // HEXTILE_CORE_HYBRIDSCHEDULE_H
