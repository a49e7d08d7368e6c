//===- Wavefront.cpp - Streaming wavefront generation ---------------------===//

#include "exec/Wavefront.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <numeric>
#include <set>

using namespace hextile;
using namespace hextile::exec;

namespace {

/// Seeded shuffle tiebreak of one instance, hashed from its point exactly as
/// the seed executor did (so logged seeds replay the same serializations).
uint64_t tieOf(uint64_t Seed, std::span<const int64_t> Point) {
  uint64_t H = Seed;
  for (int64_t V : Point)
    H = mix64(H ^ static_cast<uint64_t>(V));
  return H;
}

/// One band's worth of materialized instances, reused across bands. Keys
/// live in a flat arena (KeyOff/KeyLen rows), points in a flat row-major
/// arena of fixed arity -- no per-instance vectors anywhere.
class BandBuffer {
public:
  BandBuffer(unsigned Arity, size_t SeqLen, uint64_t Seed)
      : Arity(Arity), SeqLen(SeqLen), Seed(Seed) {}

  size_t size() const { return Rows.size(); }
  bool empty() const { return Rows.empty(); }

  void clear() {
    KeyArena.clear();
    PointArena.clear();
    Rows.clear();
  }

  /// Appends an instance whose key is currently in \p Key.
  void append(std::span<const int64_t> Point,
              const std::vector<int64_t> &Key) {
    Row R;
    R.KeyOff = KeyArena.size();
    R.KeyLen = Key.size();
    R.Tie = Seed == 0 ? 0 : tieOf(Seed, Point);
    KeyArena.insert(KeyArena.end(), Key.begin(), Key.end());
    PointArena.insert(PointArena.end(), Point.begin(), Point.end());
    Rows.push_back(R);
  }

  /// Sorts the band and hands each equal-sequential-prefix run to \p Sink
  /// as one wavefront, updating \p Stats.
  void flush(const std::function<void(const Wavefront &)> &Sink,
             ReplayStats &Stats) {
    if (Rows.empty())
      return;
    Stats.Bands += 1;
    Stats.Instances += Rows.size();
    Stats.PeakBandInstances = std::max(Stats.PeakBandInstances, Rows.size());

    Order.resize(Rows.size());
    std::iota(Order.begin(), Order.end(), size_t{0});
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return less(Rows[A], A, Rows[B], B);
    });

    // Points of the whole band in execution order; wavefronts are emitted
    // as contiguous sub-spans of this buffer.
    Sorted.clear();
    Sorted.reserve(Rows.size() * Arity);
    for (size_t I : Order) {
      const int64_t *P = PointArena.data() + I * Arity;
      Sorted.insert(Sorted.end(), P, P + Arity);
    }

    size_t GroupStart = 0;
    for (size_t I = 1; I <= Order.size(); ++I) {
      if (I < Order.size() &&
          samePrefix(Rows[Order[GroupStart]], Rows[Order[I]]))
        continue;
      Wavefront W;
      W.PointArity = Arity;
      W.FlatPoints = std::span<const int64_t>(
          Sorted.data() + GroupStart * Arity, (I - GroupStart) * Arity);
      Stats.Wavefronts += 1;
      Stats.MaxWavefrontInstances =
          std::max(Stats.MaxWavefrontInstances, I - GroupStart);
      Sink(W);
      GroupStart = I;
    }
    clear();
  }

private:
  struct Row {
    size_t KeyOff = 0;
    size_t KeyLen = 0;
    uint64_t Tie = 0;
  };

  std::span<const int64_t> keyOf(const Row &R) const {
    return std::span<const int64_t>(KeyArena.data() + R.KeyOff, R.KeyLen);
  }
  std::span<const int64_t> pointOf(size_t Idx) const {
    return std::span<const int64_t>(PointArena.data() + Idx * Arity, Arity);
  }

  /// The seed executor's comparator: sequential prefix first, then the
  /// seeded tiebreak when shuffling, else the stable full-key/point order.
  bool less(const Row &A, size_t IdxA, const Row &B, size_t IdxB) const {
    std::span<const int64_t> KA = keyOf(A), KB = keyOf(B);
    size_t N = std::min({KA.size(), KB.size(), SeqLen});
    for (size_t I = 0; I < N; ++I)
      if (KA[I] != KB[I])
        return KA[I] < KB[I];
    if (Seed != 0)
      return A.Tie < B.Tie;
    if (!std::ranges::equal(KA, KB))
      return std::ranges::lexicographical_compare(KA, KB);
    return std::ranges::lexicographical_compare(pointOf(IdxA), pointOf(IdxB));
  }

  /// True when both instances belong to one wavefront: identical sequential
  /// prefixes (component-wise, including the clamped length).
  bool samePrefix(const Row &A, const Row &B) const {
    std::span<const int64_t> KA = keyOf(A), KB = keyOf(B);
    size_t LA = std::min(KA.size(), SeqLen), LB = std::min(KB.size(), SeqLen);
    return LA == LB && std::ranges::equal(KA.first(LA), KB.first(LB));
  }

  unsigned Arity;
  size_t SeqLen;
  uint64_t Seed;
  std::vector<int64_t> KeyArena;
  std::vector<int64_t> PointArena;
  std::vector<Row> Rows;
  std::vector<size_t> Order;
  std::vector<int64_t> Sorted;
};

} // namespace

void exec::streamWavefronts(
    const core::IterationDomain &Domain, const ScheduleKeyIntoFn &Key,
    const WavefrontOptions &Opts,
    const std::function<void(const Wavefront &)> &Sink, ReplayStats *Stats) {
  unsigned Arity = Domain.rank() + 1;
  size_t SeqLen = Opts.ParallelFrom < 0
                      ? SIZE_MAX
                      : static_cast<size_t>(Opts.ParallelFrom);
  ReplayStats Local;
  ReplayStats &S = Stats ? *Stats : Local;
  S = ReplayStats{};

  BandBuffer Band(Arity, SeqLen, Opts.ShuffleSeed);
  std::vector<int64_t> Scratch;
  auto eval = [&](std::span<const int64_t> Pt) -> std::vector<int64_t> & {
    Scratch.clear();
    Key(Pt, Scratch);
    S.KeyEvals += 1;
    return Scratch;
  };

  // ParallelFrom == 0 declares even the leading component parallel, so the
  // whole domain is one wavefront; banding by the leading component would
  // wrongly serialize it. Fall back to materializing everything (the
  // degenerate case the chaos/illegal-schedule tests exercise).
  if (SeqLen == 0) {
    Domain.forEachPoint([&](std::span<const int64_t> Pt) {
      Band.append(Pt, eval(Pt));
    });
    Band.flush(Sink, S);
    return;
  }

  // Pass 1: per canonical time step, the window [Min, Max] of leading key
  // components its points map to, plus the set of distinct bands. No
  // instance is stored.
  int64_t TimeExtent = Domain.TimeExtent;
  std::vector<std::pair<int64_t, int64_t>> Window(
      static_cast<size_t>(std::max<int64_t>(TimeExtent, 0)),
      {INT64_MAX, INT64_MIN});
  std::set<int64_t> BandValues;
  bool HaveLast = false;
  int64_t LastLead = 0;
  for (int64_t That = 0; That < TimeExtent; ++That) {
    auto &W = Window[static_cast<size_t>(That)];
    Domain.forEachPointAtTime(That, [&](std::span<const int64_t> Pt) {
      const std::vector<int64_t> &K = eval(Pt);
      int64_t Lead = K.empty() ? 0 : K[0];
      W.first = std::min(W.first, Lead);
      W.second = std::max(W.second, Lead);
      if (!HaveLast || Lead != LastLead) {
        BandValues.insert(Lead);
        HaveLast = true;
        LastLead = Lead;
      }
    });
  }

  // Pass 2: stream the bands in ascending leading-key order, materializing
  // one at a time. Only time steps whose pass-1 window overlaps the band
  // are re-enumerated.
  for (int64_t V : BandValues) {
    for (int64_t That = 0; That < TimeExtent; ++That) {
      const auto &W = Window[static_cast<size_t>(That)];
      if (V < W.first || V > W.second)
        continue;
      Domain.forEachPointAtTime(That, [&](std::span<const int64_t> Pt) {
        const std::vector<int64_t> &K = eval(Pt);
        if ((K.empty() ? 0 : K[0]) == V)
          Band.append(Pt, K);
      });
    }
    Band.flush(Sink, S);
  }
}
