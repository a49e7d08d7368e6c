//===- Wavefront.cpp - Streaming wavefront generation ---------------------===//

#include "exec/Wavefront.h"

#include <algorithm>
#include <climits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

using namespace hextile;
using namespace hextile::exec;

namespace {

/// Seeded shuffle tiebreak of one instance, hashed from its point exactly as
/// the seed executor did (so logged seeds replay the same serializations),
/// with the sign bit flipped so that int64_t order is the hash's order.
int64_t tieOf(uint64_t Seed, const int64_t *Point, unsigned Arity) {
  uint64_t H = Seed;
  for (unsigned I = 0; I < Arity; ++I)
    H = mix64(H ^ static_cast<uint64_t>(Point[I]));
  return static_cast<int64_t>(H ^ (uint64_t{1} << 63));
}

/// One band's worth of materialized instances, reused across bands: one
/// flat arena of fixed-stride rows [key | point] -- no per-instance vectors
/// anywhere. A flush orders the rows by a stable least-significant-column
/// radix sort, so rows, which arrive in point order, keep it among equals.
class BandBuffer {
public:
  BandBuffer(unsigned Arity, size_t SeqLen, uint64_t Seed)
      : Arity(Arity), SeqLen(SeqLen), Seed(Seed) {}

  /// Appends an instance whose key is currently in \p Key. Every key of a
  /// replay has one length (the generator checks it), so rows share a stride.
  void append(std::span<const int64_t> Point,
              const std::vector<int64_t> &Key) {
    KeyLen = Key.size();
    Arena.insert(Arena.end(), Key.begin(), Key.end());
    Arena.insert(Arena.end(), Point.begin(), Point.end());
  }

  /// Sorts the band and hands each equal-sequential-prefix run to \p Sink
  /// as one wavefront, updating \p Stats.
  void flush(const std::function<void(const Wavefront &)> &Sink,
             ReplayStats &Stats) {
    size_t Stride = KeyLen + Arity, N = Arena.size() / Stride;
    if (N == 0)
      return;
    Stats.Bands += 1;
    Stats.Instances += N;
    Stats.PeakBandInstances = std::max(Stats.PeakBandInstances, N);

    // The seed executor's order: the sequential prefix, then the seeded
    // tiebreak when shuffling, else the whole key; the point last, which
    // stability supplies. Sort columns go least significant first.
    size_t Prefix = std::min(KeyLen, SeqLen);
    Order.resize(N);
    std::iota(Order.begin(), Order.end(), size_t{0});
    Column.resize(N);
    if (Seed != 0) {
      for (size_t R = 0; R < N; ++R)
        Column[R] = tieOf(Seed, Arena.data() + R * Stride + KeyLen, Arity);
      sortByColumn();
    }
    for (size_t C = Seed != 0 ? Prefix : KeyLen; C-- > 0;) {
      for (size_t R = 0; R < N; ++R)
        Column[R] = Arena[R * Stride + C];
      sortByColumn();
    }

    // Points of the whole band in execution order; wavefronts are emitted
    // as contiguous sub-spans of this buffer, split where the prefix
    // columns of adjacent rows differ.
    Sorted.clear();
    for (size_t R : Order) {
      const int64_t *P = Arena.data() + R * Stride + KeyLen;
      Sorted.insert(Sorted.end(), P, P + Arity);
    }
    size_t GroupStart = 0;
    for (size_t I = 1; I <= N; ++I) {
      if (I < N && std::equal(Arena.data() + Order[I] * Stride,
                              Arena.data() + Order[I] * Stride + Prefix,
                              Arena.data() + Order[I - 1] * Stride))
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
    Arena.clear();
  }

private:
  /// One stable counting-sort pass of Order by Column (indexed by row). A
  /// constant column is skipped; a column whose range is at least twice the
  /// row count (permuted block ids, the tiebreak) is first replaced by each
  /// value's rank among the band's distinct values.
  void sortByColumn() {
    auto [Lo, Hi] = std::ranges::minmax(Column);
    if (Lo == Hi)
      return;
    uint64_t Range = static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo);
    if (Range < 2 * Column.size()) {
      for (int64_t &V : Column)
        V -= Lo;
    } else {
      Distinct.assign(Column.begin(), Column.end());
      std::ranges::sort(Distinct);
      Distinct.erase(std::unique(Distinct.begin(), Distinct.end()),
                     Distinct.end());
      for (int64_t &V : Column)
        V = std::ranges::lower_bound(Distinct, V) - Distinct.begin();
      Range = Distinct.size() - 1;
    }
    Counts.assign(Range + 2, 0);
    for (int64_t V : Column)
      ++Counts[static_cast<size_t>(V) + 1];
    std::partial_sum(Counts.begin(), Counts.end(), Counts.begin());
    Next.resize(Order.size());
    for (size_t R : Order)
      Next[Counts[static_cast<size_t>(Column[R])]++] = R;
    Order.swap(Next);
  }

  unsigned Arity;
  size_t SeqLen;
  uint64_t Seed;
  size_t KeyLen = 0;
  std::vector<int64_t> Arena; ///< Rows of KeyLen + Arity values.
  std::vector<size_t> Order, Next, Counts;
  std::vector<int64_t> Column, Distinct, Sorted;
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
  size_t KeyLen = 0;
  // The first evaluation fixes the key length; the first sweep (pass 1, or
  // the materializing loop) checks every key before any instance runs.
  auto eval = [&](std::span<const int64_t> Pt) -> std::vector<int64_t> & {
    Scratch.clear();
    Key(Pt, Scratch);
    if (++S.KeyEvals == 1)
      KeyLen = Scratch.size();
    else if (Scratch.size() != KeyLen)
      throw std::invalid_argument(
          "schedule keys of one replay must share one length: the first key "
          "has length " + std::to_string(KeyLen) + ", a later one length " +
          std::to_string(Scratch.size()));
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
