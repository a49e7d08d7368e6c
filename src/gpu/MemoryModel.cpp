//===- MemoryModel.cpp - Warp coalescing and bank conflicts ---------------===//

#include "gpu/MemoryModel.h"

#include "core/TileAnalysis.h"
#include "support/MathExt.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace hextile;
using namespace hextile::gpu;

TrafficStats &TrafficStats::operator+=(const TrafficStats &O) {
  ThreadInsts += O.ThreadInsts;
  WarpInsts += O.WarpInsts;
  Lines += O.Lines;
  Sectors += O.Sectors;
  UsefulBytes += O.UsefulBytes;
  return *this;
}

TrafficStats gpu::analyzeRow(const DeviceConfig &Dev, int64_t Len,
                             int64_t AlignElems) {
  assert(Len >= 0 && "negative row length");
  TrafficStats S;
  if (Len == 0)
    return S;
  int64_t ElemsPerLine = Dev.CacheLineBytes / 4;
  AlignElems = euclidMod(AlignElems, ElemsPerLine);
  S.ThreadInsts = Len;
  S.UsefulBytes = Len * 4;

  // Issue warp accesses over chunks of WarpSize consecutive elements; count
  // distinct lines/sectors per warp access (Fermi coalescing).
  std::set<int64_t> RowLines;
  for (int64_t Chunk = 0; Chunk < Len; Chunk += Dev.WarpSize) {
    int64_t First = AlignElems + Chunk;
    int64_t Last = AlignElems + std::min(Chunk + Dev.WarpSize, Len) - 1;
    ++S.WarpInsts;
    int64_t FirstByte = First * 4;
    int64_t LastByte = Last * 4 + 3;
    S.Sectors +=
        LastByte / Dev.SectorBytes - FirstByte / Dev.SectorBytes + 1;
    for (int64_t L = FirstByte / Dev.CacheLineBytes,
                 E = LastByte / Dev.CacheLineBytes;
         L <= E; ++L)
      RowLines.insert(L);
  }
  S.Lines = static_cast<int64_t>(RowLines.size());
  return S;
}

TrafficStats gpu::analyzeBatches(const DeviceConfig &Dev,
                                 std::span<const RowBatch> Batches) {
  TrafficStats Total;
  for (const RowBatch &B : Batches) {
    TrafficStats One = analyzeRow(Dev, B.Len, B.AlignElems);
    One.ThreadInsts *= B.Count;
    One.WarpInsts *= B.Count;
    One.Lines *= B.Count;
    One.Sectors *= B.Count;
    One.UsefulBytes *= B.Count;
    Total += One;
  }
  return Total;
}

double gpu::bankTransactionsPerRequest(const DeviceConfig &Dev,
                                       std::span<const int64_t> WordAddrs) {
  assert(!WordAddrs.empty() && "empty access pattern");
  // Fermi: 32 banks, 4-byte wide; replays are needed when threads request
  // different words from the same bank (same-word broadcasts are free).
  std::map<int64_t, std::set<int64_t>> WordsPerBank;
  for (int64_t W : WordAddrs)
    WordsPerBank[euclidMod(W, Dev.SharedBanks)].insert(W);
  size_t MaxWords = 1;
  for (const auto &[Bank, Words] : WordsPerBank)
    MaxWords = std::max(MaxWords, Words.size());
  return static_cast<double>(MaxWords);
}

double gpu::stridedBankTransactions(const DeviceConfig &Dev,
                                    int64_t StrideWords) {
  std::vector<int64_t> Addrs(Dev.WarpSize);
  for (int I = 0; I < Dev.WarpSize; ++I)
    Addrs[I] = static_cast<int64_t>(I) * StrideWords;
  return bankTransactionsPerRequest(Dev, Addrs);
}

std::vector<int64_t> gpu::predictHaloExchangeValuesPerBoundary(
    const ir::StencilProgram &P, std::span<const int64_t> Boundaries,
    int64_t CadenceSteps) {
  assert(CadenceSteps >= 1 && "exchange cadence must be positive");
  // Writes happen only inside the update domain: [lo_d, size_d - hi_d) per
  // dimension.
  int64_t Lo0 = P.loHalo(0);
  int64_t Hi0 = P.spaceSizes()[0] - P.hiHalo(0);
  int64_t InnerExtent = 1;
  for (unsigned D = 1; D < P.spaceRank(); ++D)
    InnerExtent *= P.spaceSizes()[D] - P.loHalo(D) - P.hiHalo(D);
  auto Clip = [&](int64_t From, int64_t To) {
    return std::max<int64_t>(0, std::min(To, Hi0) - std::max(From, Lo0));
  };

  // Replication strips are cadence-deep: what the rings mirror when the
  // partitioned storage is provisioned for a CadenceSteps-step cadence.
  core::HaloExtent Halo = core::partitionHaloExtent(P, 0, CadenceSteps);

  // Slots shipped per cell per round: the dirty set is deduplicated by
  // (field, slot, cell), and a round of S steps rewrites min(depth, S)
  // distinct rotating slots of every written field.
  int64_t Rounds = ceilDiv(P.timeSteps(), CadenceSteps);
  int64_t SlotFactor = 0;
  for (unsigned F = 0; F < P.fields().size(); ++F) {
    if (P.writerOf(F) < 0)
      continue;
    int64_t Depth = P.bufferDepth(F);
    for (int64_t R = 0; R < Rounds; ++R) {
      int64_t Live = std::min(CadenceSteps, P.timeSteps() - R * CadenceSteps);
      SlotFactor += std::min(Depth, Live);
    }
  }

  std::vector<int64_t> PerBoundary;
  PerBoundary.reserve(Boundaries.size());
  for (int64_t B : Boundaries) {
    // Cells the lower neighbor replicates above the cut, and the upper
    // neighbor below it.
    int64_t StripCells = Clip(B, B + Halo.Hi) + Clip(B - Halo.Lo, B);
    PerBoundary.push_back(StripCells * InnerExtent * SlotFactor);
  }
  return PerBoundary;
}

int64_t gpu::predictHaloExchangeValues(const ir::StencilProgram &P,
                                       std::span<const int64_t> Boundaries,
                                       int64_t CadenceSteps) {
  int64_t Total = 0;
  for (int64_t V :
       predictHaloExchangeValuesPerBoundary(P, Boundaries, CadenceSteps))
    Total += V;
  return Total;
}

int64_t gpu::predictHaloExchangeBytes(const ir::StencilProgram &P,
                                      std::span<const int64_t> Boundaries) {
  return predictHaloExchangeValues(P, Boundaries) *
         static_cast<int64_t>(sizeof(float));
}
