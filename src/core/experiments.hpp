// spiv::core — experiment orchestration: the paper's evaluation (§VI) as
// reusable, parameterized drivers.  Each driver returns structured results;
// the bench binaries print them in the paper's layout and as CSV.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "lyapunov/piecewise.hpp"
#include "lyapunov/synthesis.hpp"
#include "model/reduction.hpp"
#include "robust/region.hpp"
#include "smt/validate.hpp"

namespace spiv::store {
class CertStore;
}

namespace spiv::core {

/// One synthesis strategy row of Table I: a method plus (for the LMI
/// methods) a backend.
struct Strategy {
  lyap::Method method;
  std::optional<sdp::Backend> backend;

  [[nodiscard]] std::string name() const;
  [[nodiscard]] std::string backend_name() const;
};

/// The paper's 12 strategy rows (eq-smt, eq-num, modal, {LMI, LMIa,
/// LMIa+} x {newton-ac, fast-ipm, proj-sub}).
[[nodiscard]] std::vector<Strategy> paper_strategies();

struct ExperimentConfig {
  /// Plant sizes to include (paper: 3, 5, 10, 15, 18; integer variants are
  /// included automatically for 3/5/10).
  std::vector<std::size_t> sizes = {3, 5, 10, 15, 18};
  double synth_timeout_seconds = 30.0;
  double validate_timeout_seconds = 30.0;
  int digits = 10;         ///< rounding before exact validation
  double alpha = 0.1;      ///< LMIa decay-rate parameter
  double nu = 1e-3;        ///< LMIa+ eigenvalue floor
  bool verbose = false;    ///< progress lines on stderr
  /// Fan-out width cap (core::for_each_job): 0 = $SPIV_JOBS (else
  /// hardware_concurrency), 1 = run serially on the calling thread.
  /// All drivers merge job results in case-index order, so every non-timing
  /// output (counts, candidates, outcomes) is identical for any value.
  ///
  /// When a store is available, run_table1 additionally consults the
  /// content-addressed certificate store (store/cert_store.hpp): warm
  /// entries replay the stored candidate, verdict, and recorded synthesis
  /// time, making a warm re-run near-instant with bit-identical cells.
  std::size_t jobs = 0;
  /// Certificate store override: nullopt resolves $SPIV_CACHE_DIR
  /// (store::CertStore::from_env); an explicit nullptr disables caching; an
  /// explicit pointer (e.g. from verify::resolve_store on --cache-dir) is
  /// used as-is.
  std::optional<store::CertStore*> store;
};

/// One synthesized candidate, kept for the downstream experiments
/// (validation comparison, rounding study, robust regions).
struct CandidateRecord {
  std::string model_name;
  std::size_t size = 0;
  bool integer_model = false;
  std::size_t mode = 0;
  Strategy strategy;
  numeric::Matrix a;  ///< closed-loop mode matrix
  numeric::Matrix p;  ///< candidate Lyapunov matrix
  double synth_seconds = 0.0;
};

// ---------------------------------------------------------------- Table I

struct Table1Cell {
  /// Sum of per-job synthesis durations (CPU time of the individual jobs;
  /// under a parallel run this exceeds the harness wall-clock).
  double total_synth_seconds = 0.0;
  int synthesized = 0;
  int valid = 0;
  int timeouts = 0;
  int cases = 0;

  /// Mean synthesis time over the *successfully synthesized* cases only.
  /// Timed-out and failed cases are excluded from both numerator and
  /// denominator — the paper prints "TO" instead of a time for all-timeout
  /// cells — and a cell with no synthesized case returns 0.0 (never a
  /// division by zero).
  [[nodiscard]] double avg_synth_seconds() const {
    return synthesized > 0 ? total_synth_seconds / synthesized : 0.0;
  }
};

struct Table1Result {
  /// cell[strategy index][size] aggregated over model variants and modes.
  std::vector<std::map<std::size_t, Table1Cell>> cells;
  std::vector<Strategy> strategies;
  std::vector<CandidateRecord> candidates;
};

[[nodiscard]] Table1Result run_table1(const ExperimentConfig& config);

// ---------------------------------------------------------------- Fig. 3

struct EngineConfig {
  smt::Engine engine;
  bool det_encoding = false;
  [[nodiscard]] std::string name() const;
};

/// The paper's validator comparison set.
[[nodiscard]] std::vector<EngineConfig> paper_engine_configs();

struct ValidationSample {
  std::size_t candidate_index = 0;
  std::size_t engine_index = 0;
  smt::Outcome outcome = smt::Outcome::Timeout;
  double seconds = 0.0;
};

struct Figure3Result {
  std::vector<EngineConfig> engines;
  std::vector<ValidationSample> samples;
};

[[nodiscard]] Figure3Result run_figure3(
    const std::vector<CandidateRecord>& candidates,
    const ExperimentConfig& config);

// ------------------------------------------------------- rounding study

struct RoundingCell {
  int valid = 0;
  int invalid = 0;
  int timeout = 0;
};

struct RoundingResult {
  std::vector<int> digit_levels;  ///< e.g. {10, 6, 4}
  /// counts[strategy name][digit level index]
  std::map<std::string, std::vector<RoundingCell>> counts;
};

[[nodiscard]] RoundingResult run_rounding_study(
    const std::vector<CandidateRecord>& candidates,
    const ExperimentConfig& config,
    const std::vector<int>& digit_levels = {10, 6, 4});

// ---------------------------------------------------------------- Table II

struct Table2Entry {
  std::string model_name;
  std::size_t size = 0;
  std::size_t mode = 0;
  Strategy strategy;
  bool synthesized = false;
  bool certified = false;
  bool optimal = false;
  double seconds = 0.0;  ///< robust-region synthesis + certification time
  double volume = 0.0;
  double epsilon = 0.0;
};

struct Table2Result {
  std::vector<Table2Entry> entries;
};

/// Robust-region synthesis (paper Table II); `sizes` defaults to the
/// paper's reported pair {15, 18}.
[[nodiscard]] Table2Result run_table2(const ExperimentConfig& config,
                                      const std::vector<std::size_t>& sizes = {
                                          15, 18});

// ------------------------------------------------------------- piecewise

struct PiecewiseEntry {
  std::string model_name;
  lyap::SurfaceEncoding encoding;
  bool candidate_found = false;
  double synth_seconds = 0.0;
  lyap::PiecewiseValidation validation;
};

struct PiecewiseResult {
  std::vector<PiecewiseEntry> entries;
};

[[nodiscard]] PiecewiseResult run_piecewise(const ExperimentConfig& config);

}  // namespace spiv::core
