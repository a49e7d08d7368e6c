//===- TuningTable.h - Per-device empirical tuning tables ------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable output of the measurement-driven autotuner (AutoTuner): one
/// winning candidate per gallery program for one device, together with the
/// model-vs-measured story (what the Sec. 3.7 analytic model would have
/// picked, what it actually measured at, and the throughput gap the
/// empirical search closed). Tables round-trip through a small JSON format
/// so a tuning run is a reusable artifact: `hextile-tune > table.json`
/// once, `TuningTable::fromJson` + `codegen::compileHybridTuned` forever
/// after.
///
/// toJson renders its rows with the library's one JSON writer
/// (support/Json.h); fromJson reads standard JSON with a small in-file
/// reader. The repo bakes in no JSON dependency.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_TUNE_TUNINGTABLE_H
#define HEXTILE_TUNE_TUNINGTABLE_H

#include "codegen/EmissionCore.h"

#include <optional>
#include <string>
#include <vector>

namespace hextile {
namespace tune {

/// One tuned row: the measured winner for one program on the table's
/// device, plus the analytic baseline it is compared against.
struct TunedEntry {
  std::string Program; ///< Gallery name ("jacobi2d", ...).
  int64_t H = 1;
  int64_t W0 = 1;
  std::vector<int64_t> InnerWidths;
  char Rung = 'd';               ///< OptimizationConfig::level letter.
  std::string Flavor = "hybrid"; ///< codegen::emitScheduleName rendering.
  int ShimThreads = 0;           ///< Winning shim team size (0 = serial).
  /// Measured throughput of the winner (interior stencil updates/s, in
  /// GStencils/s).
  double MeasuredGStencils = 0;
  /// Measured throughput of the Sec. 3.7 analytic pick on the same sweep.
  double AnalyticGStencils = 0;
  /// The winner's analytic load-to-compute ratio (model's view of it).
  double ModelLoadToCompute = 0;
  /// measured winner vs measured analytic pick, in percent (>= 0 by
  /// construction: the analytic pick is always itself a candidate).
  double GapPct = 0;

  /// The winner as a codegen request: geometry + level(Rung) with
  /// ShimThreads applied. The flavor stays here -- resolve it with
  /// emitScheduleByName when building a service request.
  codegen::TunedSizes tunedSizes() const;

  bool operator==(const TunedEntry &O) const;
};

/// Parses an emitScheduleName rendering back ("hex", "hybrid",
/// "classical", "overlapped"); nullopt for anything else.
std::optional<codegen::EmitSchedule>
emitScheduleByName(const std::string &Name);

/// The per-device table: program name -> winning TunedEntry, JSON in and
/// out.
class TuningTable {
public:
  TuningTable() = default;
  explicit TuningTable(std::string Device) : Dev(std::move(Device)) {}

  const std::string &device() const { return Dev; }
  size_t size() const { return Entries.size(); }
  const std::vector<TunedEntry> &entries() const { return Entries; }

  /// Inserts or replaces the row for E.Program.
  void put(TunedEntry E);
  /// The row for \p Program, or null.
  const TunedEntry *lookup(const std::string &Program) const;

  /// {"device": ..., "entries": [{...}, ...]} -- stable field order.
  std::string toJson() const;
  /// Parses a toJson rendering (or hand-edited equivalent). Returns
  /// nullopt and fills \p Err on malformed input; unknown fields are
  /// ignored so the format can grow.
  static std::optional<TuningTable> fromJson(const std::string &Json,
                                             std::string *Err = nullptr);

  /// File convenience wrappers around toJson/fromJson.
  bool writeFile(const std::string &Path) const;
  static std::optional<TuningTable> fromFile(const std::string &Path,
                                             std::string *Err = nullptr);

private:
  std::string Dev;
  std::vector<TunedEntry> Entries;
};

} // namespace tune
} // namespace hextile

#endif // HEXTILE_TUNE_TUNINGTABLE_H
