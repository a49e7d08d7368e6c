//===- BenchStats.h - Sample statistics and seeded inputs ------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic every hextile_bench number goes through: medians,
/// nearest-rank percentiles, the rule that picks the highest percentile a
/// sample supports, geometric means over cases, and the seeded generators
/// (splitmix64, Fisher-Yates, Zipf) that turn --seed into inputs. The
/// generators are hand-written rather than <random> distributions so a seed
/// names the same inputs under every standard library.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_HEXBENCH_BENCHSTATS_H
#define HEXTILE_HEXBENCH_BENCHSTATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hextile {
namespace bench {

/// splitmix64: a 64-bit generator whose whole state is the seed.
class SeededRng {
public:
  explicit SeededRng(uint64_t Seed) : State(Seed) {}

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, N); N must be >= 1.
  size_t below(size_t N) {
    return std::min(N - 1, static_cast<size_t>(uniform() * N));
  }

private:
  uint64_t State;
};

/// Fisher-Yates shuffle driven by \p Rng.
template <class T> void seededShuffle(std::vector<T> &V, SeededRng &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng.below(I)]);
}

/// Nearest-rank percentile: the smallest sample with at least P% of the
/// sample at or below it. 0 for an empty sample.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

inline double median(std::vector<double> V) { return percentile(V, 50); }

/// Samples strictly above the nearest-rank P-th percentile of \p N.
inline size_t samplesBeyond(size_t N, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
  return N - std::min(N, Rank);
}

/// The highest of p99, p90 and p50 that has at least ten samples beyond
/// it in a sample of \p N, or 0 when even the median lacks ten: a tail
/// percentile resting on fewer samples than that is one outlier's value.
inline double highestSupportedPercentile(size_t N) {
  for (double P : {99.0, 90.0, 50.0})
    if (samplesBeyond(N, P) >= 10)
      return P;
  return 0;
}

/// Geometric mean of positive values (0 when \p V is empty or holds a
/// non-positive value): the average of per-case ratios that weighs every
/// case the same, whatever its absolute time.
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Zipf(s) over ranks [0, N): P(rank r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
public:
  ZipfSampler(size_t N, double S) {
    Cdf.reserve(N);
    double Sum = 0;
    for (size_t R = 0; R < N; ++R) {
      Sum += 1.0 / std::pow(static_cast<double>(R + 1), S);
      Cdf.push_back(Sum);
    }
    for (double &C : Cdf)
      C /= Sum;
  }

  size_t draw(SeededRng &Rng) const {
    double U = Rng.uniform();
    size_t R = static_cast<size_t>(
        std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    return std::min(R, Cdf.size() - 1);
  }

private:
  std::vector<double> Cdf;
};

} // namespace bench
} // namespace hextile

#endif // HEXTILE_HEXBENCH_BENCHSTATS_H
