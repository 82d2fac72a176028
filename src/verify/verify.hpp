// spiv::verify — the one synthesize→validate→cache pipeline (paper §VI-B).
//
// The paper's core artifact is a single conceptual operation: synthesize a
// candidate quadratic Lyapunov function for one closed-loop mode, round it,
// exactly validate both Lyapunov conditions, and record the verdict.  This
// layer is the only place that operation is implemented.  The service
// (service/service.cpp), the Table I / rounding / Table II drivers
// (core/experiments.cpp), and the examples are all thin adapters over
// run_verify / run_validate / run_synthesize — they format, aggregate, and
// schedule, but never re-derive deadlines, cache keys, or verdict
// classification.
//
//   model ──▶ verify ──▶ { service, experiments, examples }
//
// Budget semantics come in exactly two flavours, chosen per request:
//
//   SharedBudget{t}  — service semantics: ONE deadline covers both stages;
//                      synthesis consumes from the front of the budget and
//                      validation gets only the remainder.  A request can
//                      never burn more than t seconds of wall clock.
//   SplitBudget{s,v} — Table I semantics: synthesis gets its own s-second
//                      deadline and validation a fresh v-second one,
//                      preserving the paper's per-stage budgets bit-for-bit.
//
// Cache-key derivation happens in exactly one place (run_verify calling
// store::request_key on a CertRequest built from the same SynthesisOptions
// handed to the kernel), killing the parameter-drift class of cache bugs.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "exact/timeout.hpp"
#include "lyapunov/synthesis.hpp"
#include "numeric/matrix.hpp"
#include "obs/metrics.hpp"
#include "sdp/lmi.hpp"
#include "smt/validate.hpp"
#include "store/cert_store.hpp"

namespace spiv::verify {

/// The canonical outcome taxonomy.  Everything downstream — service
/// protocol lines, table cells, example exit codes — is a rendering of
/// this enum; no caller classifies verdicts on its own.
enum class Status {
  Valid,        ///< candidate synthesized and both conditions proved
  Invalid,      ///< pipeline completed; at least one condition refuted
  Timeout,      ///< a stage exceeded its budget (see VerifyOutcome::timeout_stage)
  SynthFailed,  ///< synthesis returned no candidate (infeasible / defective)
  Error,        ///< malformed input or an unexpected exception
};

/// "valid" | "invalid" | "timeout" | "synth-failed" | "error".
[[nodiscard]] const char* to_string(Status s);

/// How the certificate store participated in this outcome.  NegativeHit:
/// the store's negative tier replayed a remembered failure (synth-failed
/// or timeout) without touching any kernel — see CertStore::lookup_negative
/// for the TTL and budget-gating rules.
enum class Cache { Off, Hit, Miss, NegativeHit };

/// "off" | "hit" | "miss" | "neg-hit".
[[nodiscard]] const char* to_string(Cache c);

/// Which stage ran out of budget (None unless status == Timeout).
enum class Stage { None, Synthesis, Validation };

/// Service semantics: one wall-clock budget shared by both stages.
struct SharedBudget {
  double seconds = 60.0;
};

/// Table I semantics: independent per-stage budgets.
struct SplitBudget {
  double synth_seconds = 60.0;
  double validate_seconds = 60.0;
};

using BudgetPolicy = std::variant<SharedBudget, SplitBudget>;

/// Everything that determines one verification result.  `options` carries
/// the LMI parameters (alpha/nu/kappa); its backend and deadline fields are
/// overwritten by run_verify from `backend` and `budget` so a request has
/// exactly one source of truth for each.
struct VerifyRequest {
  numeric::Matrix a;  ///< closed-loop mode dynamics matrix
  lyap::Method method = lyap::Method::EqNum;
  std::optional<sdp::Backend> backend;  ///< LMI methods only
  smt::Engine engine = smt::Engine::Sylvester;
  int digits = 10;  ///< rounding before exact validation
  lyap::SynthesisOptions options{};
  BudgetPolicy budget = SharedBudget{};
};

/// Ambient machinery threaded through the pipeline: where certificates
/// live, how to cancel, where metrics go.
/// from_env() resolves every field from the core::env variables; callers
/// (CLI flags, the service, tests) override fields explicitly after that.
struct VerifyContext {
  store::CertStore* store = nullptr;       ///< nullptr = caching off
  const CancelToken* token = nullptr;      ///< optional cooperative cancel
  /// TTL for negative caching of synth-failed/timeout outcomes (0 = off).
  /// Timeout entries only shield requests whose budget is <= the budget
  /// that timed out, so raising a request's budget still recomputes.
  double negative_ttl_seconds = 0.0;
  obs::Registry* registry = &obs::Registry::global();

  /// $SPIV_CACHE_DIR store, $SPIV_NEG_TTL negative-cache TTL.
  [[nodiscard]] static VerifyContext from_env();
};

/// Structured result of one pipeline run.
struct VerifyOutcome {
  Status status = Status::Error;
  Cache cache = Cache::Off;
  Stage timeout_stage = Stage::None;  ///< set iff status == Timeout
  std::string key;      ///< store::request_key (always derived, even cache-off)
  std::string message;  ///< diagnostic for Status::Error, empty otherwise
  /// Freshly computed candidate (miss paths); hits expose the cached record
  /// instead of deep-copying the (possibly exact-rational) matrices.
  std::optional<lyap::Candidate> candidate;
  std::shared_ptr<const store::CertRecord> record;
  smt::LyapunovValidation validation{};  ///< miss paths; hits: see record
  double synth_seconds = 0.0;     ///< replayed from the record on a hit
  double validate_seconds = 0.0;  ///< replayed from the record on a hit
  /// The deadline the pipeline ran under.  Under SharedBudget, follow-up
  /// work (e.g. a robust-region computation) chained on this deadline stays
  /// inside the request's declared budget instead of minting a fresh one —
  /// the double-budget bug class.
  Deadline deadline{};

  [[nodiscard]] bool synthesized() const {
    return candidate.has_value() || record != nullptr;
  }
  /// The candidate regardless of hit/miss provenance (nullptr when absent).
  [[nodiscard]] const lyap::Candidate* candidate_ptr() const {
    if (record) return &record->candidate;
    return candidate ? &*candidate : nullptr;
  }
  /// The validation regardless of hit/miss provenance (nullptr when the
  /// pipeline never reached validation).
  [[nodiscard]] const smt::LyapunovValidation* validation_ptr() const {
    if (record) return &record->validation;
    return candidate ? &validation : nullptr;
  }
};

/// THE pipeline: derive the cache key, consult the store, synthesize,
/// exactly validate, insert the certificate, classify.  Owns all deadline
/// construction per req.budget.  Never throws for per-request failures —
/// they are Status values; only programming errors propagate.
[[nodiscard]] VerifyOutcome run_verify(const VerifyContext& ctx,
                                       const VerifyRequest& req);

/// Validation-only entry for pre-synthesized candidates (the Fig. 3 and
/// rounding-study drivers re-validate one candidate across engines and
/// digit levels).  No store interaction: these sweeps intentionally vary
/// the request axes a certificate is keyed on.
struct ValidateRequest {
  numeric::Matrix a;
  numeric::Matrix p;
  smt::Engine engine = smt::Engine::Sylvester;
  int digits = 10;
  bool det_encoding = false;
  double timeout_seconds = 60.0;
};

[[nodiscard]] VerifyOutcome run_validate(const VerifyContext& ctx,
                                         const ValidateRequest& req);

/// Synthesis-only entry (Table II and the robust-regions example follow
/// synthesis with a region computation instead of plain validation).
/// Status::Valid here means "candidate synthesized".  No store interaction:
/// certificates record validation verdicts, which this entry never produces.
[[nodiscard]] VerifyOutcome run_synthesize(const VerifyContext& ctx,
                                           const VerifyRequest& req);

/// Resolve the certificate store for a CLI: an explicit --cache-dir wins;
/// empty falls back to $SPIV_CACHE_DIR (store::CertStore::from_env).
/// Returns nullptr (with a one-line stderr warning) when the directory
/// cannot be created.  Returned stores live for the process.
[[nodiscard]] store::CertStore* resolve_store(const std::string& cli_dir);

}  // namespace spiv::verify
