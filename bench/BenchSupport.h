//===- BenchSupport.h - Shared helpers for the table harnesses -*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared code for the bench harnesses: the Table 1/2 tool comparison
/// (PPCG, Par4All, Overtile, hybrid over the benchmark stencils on a
/// device model), the common --smoke mode, and the --json machine-readable
/// output every harness shares so results land in the repo's BENCH_*.json
/// perf trajectory instead of only scrolling by as text.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_BENCH_BENCHSUPPORT_H
#define HEXTILE_BENCH_BENCHSUPPORT_H

#include "baselines/Baselines.h"
#include "codegen/HybridCompiler.h"
#include "gpu/PerfModel.h"
#include "ir/StencilGallery.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

namespace hextile {
namespace bench {

/// True when the harness was invoked with --smoke: the `ctest -L bench`
/// entries pass it so every harness runs with shrunken problem sizes and
/// sweep spaces, executing all code paths in seconds instead of producing
/// full paper tables.
inline bool smokeMode(int argc, char **argv) {
  for (int I = 1; I < argc; ++I)
    if (std::string_view(argv[I]) == "--smoke")
      return true;
  return false;
}

/// Path given with --json <path>, or nullptr: every harness accepts the
/// flag and mirrors its results as machine-readable JSON there. A --json
/// with the path forgotten aborts loudly instead of silently writing
/// nothing.
inline const char *jsonPathArg(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]) != "--json")
      continue;
    if (I + 1 >= argc) {
      std::fprintf(stderr, "error: --json needs a file path argument\n");
      std::exit(2);
    }
    return argv[I + 1];
  }
  return nullptr;
}

/// The JSON row writer lives in the library (support/Json.h), shared with
/// the tuning tables.
using hextile::JsonRow;

/// Machine-readable results of one harness run:
///   {"harness": ..., "config": {...}, "results": [{...}, ...]}
/// Collect rows with add(), then writeTo(jsonPathArg(...)).
class JsonReport {
public:
  explicit JsonReport(std::string HarnessName)
      : Harness(std::move(HarnessName)) {}

  /// Run-wide configuration (sizes, thread counts, device model, ...).
  JsonRow &config() { return Config; }
  void add(const JsonRow &Row) { Rows.push_back(Row.rendered()); }
  size_t size() const { return Rows.size(); }

  /// Writes the report; a null \p Path is a no-op (flag not given).
  /// Returns false (after a diagnostic) when the file cannot be written.
  bool writeTo(const char *Path) const {
    if (!Path)
      return true;
    std::FILE *F = std::fopen(Path, "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write JSON report to %s\n", Path);
      return false;
    }
    std::fprintf(F, "{\n  \"harness\": \"%s\",\n  \"config\": {%s},\n"
                    "  \"results\": [\n",
                 JsonRow::escaped(Harness).c_str(),
                 Config.rendered().c_str());
    for (size_t I = 0; I < Rows.size(); ++I)
      std::fprintf(F, "    {%s}%s\n", Rows[I].c_str(),
                   I + 1 < Rows.size() ? "," : "");
    std::fprintf(F, "  ]\n}\n");
    // A truncated artifact (disk full, I/O error) must fail the run, not
    // get published as machine-readable results.
    bool Ok = !std::ferror(F);
    Ok = std::fclose(F) == 0 && Ok;
    if (!Ok) {
      std::fprintf(stderr, "error: JSON report to %s was truncated\n",
                   Path);
      return false;
    }
    std::printf("JSON results written to %s\n", Path);
    return true;
  }

private:
  std::string Harness;
  JsonRow Config;
  std::vector<std::string> Rows;
};

/// The benchmark programs a harness iterates: the full Table 1/2 suite, or
/// its first two entries under --smoke.
inline std::vector<ir::StencilProgram> smokeSuite(bool Smoke) {
  std::vector<ir::StencilProgram> Suite = ir::makeBenchmarkSuite();
  if (Smoke)
    Suite.resize(std::min<size_t>(Suite.size(), 2));
  return Suite;
}

/// The optimization-ladder levels a harness iterates: (a)-(f), or just the
/// endpoints under --smoke.
inline std::vector<char> smokeOptLevels(bool Smoke) {
  if (Smoke)
    return {'a', 'f'};
  return {'a', 'b', 'c', 'd', 'e', 'f'};
}

/// Tile-size search space used for the hybrid rows, sized so the sweep
/// finishes quickly while covering the paper's choices. \p Smoke collapses
/// the sweep to a couple of candidates.
inline core::TileSizeConstraints hybridSearchSpace(unsigned Rank,
                                                   bool Smoke = false) {
  core::TileSizeConstraints C;
  if (Smoke) {
    C.MaxH = 2;
    C.W0Widths = {3, 5};
    C.MiddleWidths = {8};
    C.InnermostWidths = {32};
    return C;
  }
  C.MaxH = Rank >= 3 ? 3 : 6;
  C.W0Widths = Rank >= 3 ? std::vector<int64_t>{3, 5, 7, 9}
                         : std::vector<int64_t>{3, 5, 7, 11, 15};
  C.MiddleWidths = {8, 10, 12};
  C.InnermostWidths = {32};
  return C;
}

/// One Table 1/2 row: per-tool GStencils/s (0 = tool failed).
struct ToolRow {
  std::string Benchmark;
  double Ppcg = 0;
  double Par4all = 0;
  double Overtile = 0;
  double Hybrid = 0;
  std::string HybridSizes;
};

inline ToolRow runBenchmark(const ir::StencilProgram &P,
                            const gpu::DeviceConfig &Dev,
                            bool Smoke = false) {
  ToolRow Row;
  Row.Benchmark = P.name();

  baselines::BaselineResult Ppcg = baselines::compilePpcg(P, Dev);
  Row.Ppcg = gpu::simulate(Dev, Ppcg.Kernels).GStencilsPerSec;

  baselines::BaselineResult P4A = baselines::compilePar4all(P, Dev);
  if (!P4A.Kernels.empty())
    Row.Par4all = gpu::simulate(Dev, P4A.Kernels).GStencilsPerSec;

  baselines::BaselineResult Ovt = baselines::compileOvertile(P, Dev);
  Row.Overtile = gpu::simulate(Dev, Ovt.Kernels).GStencilsPerSec;

  codegen::TileSizeRequest Req;
  Req.Constraints = hybridSearchSpace(P.spaceRank(), Smoke);
  Req.Constraints.SharedMemBytes = Dev.SharedMemPerBlock;
  codegen::CompiledHybrid Hybrid = codegen::compileHybrid(P, Req);
  Row.Hybrid =
      gpu::simulate(Dev, Hybrid.kernelModels(Dev)).GStencilsPerSec;
  Row.HybridSizes = Hybrid.schedule().params().str();
  return Row;
}

inline void printSpeedupTable(const char *Title,
                              const gpu::DeviceConfig &Dev,
                              const std::vector<ToolRow> &Rows) {
  std::printf("%s\n", Title);
  std::printf("%-12s %10s %16s %16s %16s\n", "benchmark", "ppcg",
              "par4all", "overtile", "hybrid");
  for (const ToolRow &R : Rows) {
    auto Cell = [&](double V) {
      if (V <= 0)
        return std::string("   invalid CUDA");
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%6.2f %+5.0f%%", V,
                    (V / R.Ppcg - 1.0) * 100.0);
      return std::string(Buf);
    };
    std::printf("%-12s %10.2f %16s %16s %16s\n", R.Benchmark.c_str(),
                R.Ppcg, Cell(R.Par4all).c_str(), Cell(R.Overtile).c_str(),
                Cell(R.Hybrid).c_str());
  }
  std::printf("\n(GStencils/second and speedup over PPCG, %s model)\n",
              Dev.Name.c_str());
}

inline int runToolComparison(const gpu::DeviceConfig &Dev,
                             const char *Title, bool Smoke = false,
                             const char *JsonPath = nullptr) {
  std::vector<ToolRow> Rows;
  for (const ir::StencilProgram &P : smokeSuite(Smoke))
    Rows.push_back(runBenchmark(P, Dev, Smoke));
  printSpeedupTable(Title, Dev, Rows);
  std::printf("\nhybrid tile sizes chosen by the Sec. 3.7 model:\n");
  for (const ToolRow &R : Rows)
    std::printf("  %-12s %s\n", R.Benchmark.c_str(),
                R.HybridSizes.c_str());

  JsonReport Report(Title);
  Report.config().str("device", Dev.Name).num("smoke", int64_t(Smoke));
  for (const ToolRow &R : Rows) {
    JsonRow Row;
    Row.str("name", R.Benchmark)
        .num("ppcg_gstencils_per_s", R.Ppcg)
        .num("par4all_gstencils_per_s", R.Par4all)
        .num("overtile_gstencils_per_s", R.Overtile)
        .num("hybrid_gstencils_per_s", R.Hybrid)
        .str("hybrid_sizes", R.HybridSizes);
    Report.add(Row);
  }
  return Report.writeTo(JsonPath) ? 0 : 1;
}

/// Flag-parsing overload used by the Table 1/2 mains: picks up --smoke and
/// --json from the command line.
inline int runToolComparison(const gpu::DeviceConfig &Dev, const char *Title,
                             int argc, char **argv) {
  return runToolComparison(Dev, Title, smokeMode(argc, argv),
                           jsonPathArg(argc, argv));
}

} // namespace bench
} // namespace hextile

#endif // HEXTILE_BENCH_BENCHSUPPORT_H
