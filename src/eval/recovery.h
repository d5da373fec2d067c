#ifndef HEMATCH_EVAL_RECOVERY_H_
#define HEMATCH_EVAL_RECOVERY_H_

// Recovery evaluation for dirty logs: corrupt a planted task, match the
// corrupted log back against the clean one under the partial-mapping
// objective, and score the recovered mapping against the planted truth
// — pair precision/recall plus how well the matcher identified the
// sources whose counterparts were destroyed (the ⊥ set). The noise
// sweep runs this across corruption rates; `bench_noise` renders it as
// the recovery-vs-noise table and BENCH_noise.json.

#include <cstdint>
#include <vector>

#include "eval/metrics.h"
#include "eval/runner.h"
#include "eval/table.h"
#include "exec/budget.h"
#include "gen/log_corruptor.h"
#include "gen/matching_task.h"

namespace hematch {

/// Quality of a recovered (possibly partial) mapping against a planted
/// (possibly partial) truth.
struct RecoveryQuality {
  /// Mapped-pair precision/recall/F (EvaluateMapping semantics: a pair
  /// counts only when both endpoints agree).
  MatchQuality pairs;
  /// ⊥ classification: sources the truth plants as unmapped (their
  /// counterpart vanished) vs sources the matcher left unmapped.
  std::size_t truth_unmapped = 0;
  std::size_t predicted_unmapped = 0;
  std::size_t correct_unmapped = 0;
  double unmapped_precision = 0.0;
  double unmapped_recall = 0.0;
  double unmapped_f = 0.0;
};

/// Scores `found` against `truth` (same vocabularies required). Truth
/// sources that are undecided (neither mapped nor planted ⊥) are
/// "unknown" and excluded from the ⊥ tallies.
RecoveryQuality EvaluateRecovery(const Mapping& found, const Mapping& truth);

/// Configuration of one noise sweep.
struct NoiseSweepOptions {
  /// Sweep x-axis: each rate scales `base`'s channels
  /// (ScaleCorruptionSpec); rate 0 must be the clean point.
  std::vector<double> rates = {0.0, 0.05, 0.10, 0.20, 0.30};
  /// The unit-rate channel mix. `base.seed + point index` seeds each
  /// point so corruption streams are independent but reproducible.
  CorruptionSpec base;
  /// Partial-mapping penalty used by the matcher.
  double unmapped_penalty = 0.35;
  /// Expansion cap of the exact stage.
  std::uint64_t max_expansions = 200'000;
  /// Per-point run budget for the exact→advanced→simple ladder.
  exec::RunBudget budget;
};

/// One point of the sweep.
struct NoiseSweepPoint {
  double rate = 0.0;
  CorruptionSpec spec;          ///< The scaled spec actually applied.
  CorruptionReport report;      ///< What the corruptor did.
  std::size_t num_targets = 0;  ///< |V2| of the corrupted log.
  RecoveryQuality recovery;     ///< Recovered-vs-planted scoring.
  RunRecord record;             ///< The matcher run (ladder) itself.
};

/// Runs the sweep on `clean` (which must carry a ground truth): per
/// rate, corrupt log2, match with the exact→advanced→simple ladder
/// under the partial objective, and score recovery. `noise.*` counters
/// and `eval.recovery.*` gauges land in each point's telemetry.
std::vector<NoiseSweepPoint> RunNoiseSweep(const MatchingTask& clean,
                                           const NoiseSweepOptions& options);

/// Renders the sweep as the recovery eval table (one row per rate).
TextTable NoiseSweepTable(const std::vector<NoiseSweepPoint>& points);

}  // namespace hematch

#endif  // HEMATCH_EVAL_RECOVERY_H_
