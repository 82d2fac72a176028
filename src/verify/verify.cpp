#include "verify/verify.hpp"

#include <iostream>
#include <map>
#include <mutex>

#include "core/env.hpp"
#include "obs/span.hpp"

namespace spiv::verify {

namespace {

/// Deadline bound to the context's cancel token when one is present.
Deadline mint_deadline(const VerifyContext& ctx, double seconds) {
  return ctx.token ? Deadline::after_seconds(seconds, *ctx.token)
                   : Deadline::after_seconds(seconds);
}

obs::Registry& registry_of(const VerifyContext& ctx) {
  return ctx.registry ? *ctx.registry : obs::Registry::global();
}

void count_outcome(obs::Registry& registry, Status status) {
  registry
      .counter(std::string{"spiv_verify_outcomes_total{status=\""} +
               to_string(status) + "\"}")
      .add();
}

/// The synthesis options actually handed to the kernel: request backend
/// folded in, so the cache key and the computation can never disagree
/// about a parameter.
lyap::SynthesisOptions effective_options(const VerifyRequest& req) {
  lyap::SynthesisOptions options = req.options;
  if (req.backend) options.backend = *req.backend;
  return options;
}

VerifyOutcome run_verify_impl(const VerifyContext& ctx,
                              const VerifyRequest& req) {
  VerifyOutcome out;
  out.cache = ctx.store ? Cache::Miss : Cache::Off;

  lyap::SynthesisOptions options = effective_options(req);

  // The pipeline's ONE cache-key derivation: the CertRequest mirrors the
  // options object the kernel runs with, so a hit can never replay a
  // certificate synthesized under different parameters.
  store::CertRequest cert_req;
  cert_req.a = req.a;
  cert_req.method = req.method;
  cert_req.backend = req.backend;
  cert_req.engine = req.engine;
  cert_req.digits = req.digits;
  cert_req.set_synthesis_params(options);
  out.key = store::request_key(cert_req);

  // SharedBudget: one deadline covers both stages — synthesis consumes from
  // the front, validation gets the remainder.  SplitBudget: synthesis runs
  // under its own budget here; validation's clock starts only once
  // synthesis is done (below), preserving Table I's per-stage semantics.
  const bool shared = std::holds_alternative<SharedBudget>(req.budget);
  // The scalar the negative tier gates timeouts on: the whole wall-clock
  // budget this request could possibly burn.
  const double total_budget =
      shared ? std::get<SharedBudget>(req.budget).seconds
             : std::get<SplitBudget>(req.budget).synth_seconds +
                   std::get<SplitBudget>(req.budget).validate_seconds;

  if (ctx.store) {
    obs::Span span{"store-lookup", out.key};
    if (auto rec = ctx.store->lookup(out.key)) {
      out.cache = Cache::Hit;
      out.record = std::move(rec);
      out.status =
          out.record->validation.valid() ? Status::Valid : Status::Invalid;
      out.synth_seconds = out.record->candidate.synth_seconds;
      out.validate_seconds = out.record->validation.seconds();
      return out;
    }
    if (ctx.negative_ttl_seconds > 0.0) {
      if (auto neg = ctx.store->lookup_negative(out.key, total_budget)) {
        out.cache = Cache::NegativeHit;
        if (neg->reason == "synth-failed") {
          out.status = Status::SynthFailed;
        } else {
          out.status = Status::Timeout;
          out.timeout_stage = neg->reason == "timeout-validation"
                                  ? Stage::Validation
                                  : Stage::Synthesis;
        }
        return out;
      }
    }
  }
  Deadline deadline =
      shared ? mint_deadline(ctx, std::get<SharedBudget>(req.budget).seconds)
             : mint_deadline(ctx,
                             std::get<SplitBudget>(req.budget).synth_seconds);
  out.deadline = deadline;
  options.deadline = deadline;

  // Failures worth remembering go into the store's negative tier (TTL'd,
  // memory-only): a full certificate is never written for them, so without
  // this every identical retry re-burns the whole budget.
  const auto remember_failure = [&](const char* reason,
                                    double budget_seconds) {
    if (ctx.store && ctx.negative_ttl_seconds > 0.0)
      ctx.store->insert_negative(out.key, reason, budget_seconds,
                                 ctx.negative_ttl_seconds);
  };

  try {
    out.candidate = lyap::synthesize(req.a, req.method, options);
  } catch (const TimeoutError&) {
    out.status = Status::Timeout;
    out.timeout_stage = Stage::Synthesis;
    remember_failure("timeout-synthesis", total_budget);
    return out;
  } catch (const std::exception& e) {
    out.status = Status::Error;
    out.cache = Cache::Off;
    out.message = std::string{"synthesis failed: "} + e.what();
    return out;
  }
  if (!out.candidate) {
    out.status = Status::SynthFailed;
    remember_failure("synth-failed", 0.0);
    return out;
  }
  out.synth_seconds = out.candidate->synth_seconds;

  if (!shared) {
    deadline =
        mint_deadline(ctx, std::get<SplitBudget>(req.budget).validate_seconds);
    out.deadline = deadline;
  }
  smt::CheckOptions check;
  check.deadline = deadline;
  try {
    out.validation = smt::validate_lyapunov(req.a, out.candidate->p,
                                            req.engine, req.digits, check);
  } catch (const TimeoutError&) {
    out.status = Status::Timeout;
    out.timeout_stage = Stage::Validation;
    remember_failure("timeout-validation", total_budget);
    return out;
  } catch (const std::exception& e) {
    out.status = Status::Error;
    out.cache = Cache::Off;
    out.message = std::string{"validation failed: "} + e.what();
    return out;
  }
  out.validate_seconds = out.validation.seconds();

  const bool timed_out =
      out.validation.positivity.outcome == smt::Outcome::Timeout ||
      out.validation.decrease.outcome == smt::Outcome::Timeout;
  if (timed_out) {
    // A verdict under this run's budget is not a reusable certificate:
    // never inserted as a certificate (it could poison warmer runs), but
    // remembered in the budget-gated negative tier.
    out.status = Status::Timeout;
    out.timeout_stage = Stage::Validation;
    remember_failure("timeout-validation", total_budget);
    return out;
  }
  if (ctx.store) {
    obs::Span span{"store-insert", out.key};
    ctx.store->insert(out.key,
                      store::CertRecord{*out.candidate, out.validation});
  }
  out.status = out.validation.valid() ? Status::Valid : Status::Invalid;
  return out;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::Valid: return "valid";
    case Status::Invalid: return "invalid";
    case Status::Timeout: return "timeout";
    case Status::SynthFailed: return "synth-failed";
    case Status::Error: return "error";
  }
  return "error";
}

const char* to_string(Cache c) {
  switch (c) {
    case Cache::Off: return "off";
    case Cache::Hit: return "hit";
    case Cache::Miss: return "miss";
    case Cache::NegativeHit: return "neg-hit";
  }
  return "off";
}

VerifyContext VerifyContext::from_env() {
  VerifyContext ctx;
  ctx.store = store::CertStore::from_env();
  ctx.negative_ttl_seconds = core::env::negative_ttl().value_or(0.0);
  return ctx;
}

VerifyOutcome run_verify(const VerifyContext& ctx, const VerifyRequest& req) {
  obs::Registry& registry = registry_of(ctx);
  registry.counter("spiv_verify_requests_total").add();
  VerifyOutcome out = run_verify_impl(ctx, req);
  count_outcome(registry, out.status);
  return out;
}

VerifyOutcome run_validate(const VerifyContext& ctx,
                           const ValidateRequest& req) {
  VerifyOutcome out;
  out.cache = Cache::Off;
  const Deadline deadline = mint_deadline(ctx, req.timeout_seconds);
  out.deadline = deadline;
  smt::CheckOptions check;
  check.det_encoding = req.det_encoding;
  check.deadline = deadline;
  const auto t0 = time_source::now();
  try {
    out.validation =
        smt::validate_lyapunov(req.a, req.p, req.engine, req.digits, check);
  } catch (const TimeoutError&) {
    out.status = Status::Timeout;
    out.timeout_stage = Stage::Validation;
    return out;
  } catch (const std::exception& e) {
    out.status = Status::Error;
    out.message = std::string{"validation failed: "} + e.what();
    return out;
  }
  // Wall clock, not the verdicts' own sum: the Fig. 3 protocol reports the
  // harness-observed latency of the whole validation call.
  out.validate_seconds = time_source::seconds_since(t0);
  if (out.validation.positivity.outcome == smt::Outcome::Timeout ||
      out.validation.decrease.outcome == smt::Outcome::Timeout) {
    out.status = Status::Timeout;
    out.timeout_stage = Stage::Validation;
  } else {
    out.status = out.validation.valid() ? Status::Valid : Status::Invalid;
  }
  return out;
}

VerifyOutcome run_synthesize(const VerifyContext& ctx,
                             const VerifyRequest& req) {
  VerifyOutcome out;
  out.cache = Cache::Off;

  lyap::SynthesisOptions options = effective_options(req);
  const bool shared = std::holds_alternative<SharedBudget>(req.budget);
  Deadline deadline =
      shared ? mint_deadline(ctx, std::get<SharedBudget>(req.budget).seconds)
             : mint_deadline(ctx,
                             std::get<SplitBudget>(req.budget).synth_seconds);
  out.deadline = deadline;
  options.deadline = deadline;
  try {
    out.candidate = lyap::synthesize(req.a, req.method, options);
  } catch (const TimeoutError&) {
    out.status = Status::Timeout;
    out.timeout_stage = Stage::Synthesis;
    return out;
  } catch (const std::exception& e) {
    out.status = Status::Error;
    out.message = std::string{"synthesis failed: "} + e.what();
    return out;
  }
  if (!out.candidate) {
    out.status = Status::SynthFailed;
    return out;
  }
  out.synth_seconds = out.candidate->synth_seconds;
  out.status = Status::Valid;
  // Budget for whatever the caller chains next (a region computation plays
  // validation's role): the shared remainder, or the split validate budget
  // whose clock starts now — synthesis never eats into it.
  if (!shared)
    out.deadline =
        mint_deadline(ctx, std::get<SplitBudget>(req.budget).validate_seconds);
  return out;
}

store::CertStore* resolve_store(const std::string& cli_dir) {
  if (cli_dir.empty()) return store::CertStore::from_env();
  static std::mutex mutex;
  static std::map<std::string, std::unique_ptr<store::CertStore>> stores;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = stores.find(cli_dir);
  if (it == stores.end()) {
    std::unique_ptr<store::CertStore> created;
    try {
      created = std::make_unique<store::CertStore>(cli_dir);
    } catch (const std::exception& e) {
      std::cerr << "spiv: certificate cache disabled: " << e.what() << "\n";
    }
    it = stores.emplace(cli_dir, std::move(created)).first;
  }
  return it->second.get();
}

}  // namespace spiv::verify
