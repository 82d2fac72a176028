#include "core/experiments.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>

#include "core/parallel.hpp"
#include "model/switched_pi.hpp"
#include "obs/span.hpp"
#include "store/cert_store.hpp"
#include "verify/verify.hpp"

namespace spiv::core {

using numeric::Matrix;
using numeric::Vector;

std::string Strategy::name() const {
  std::string out = lyap::to_string(method);
  if (backend) out += "/" + backend_name();
  return out;
}

std::string Strategy::backend_name() const {
  return backend ? sdp::to_string(*backend) : "";
}

std::vector<Strategy> paper_strategies() {
  std::vector<Strategy> out;
  out.push_back({lyap::Method::EqSmt, std::nullopt});
  out.push_back({lyap::Method::EqNum, std::nullopt});
  out.push_back({lyap::Method::Modal, std::nullopt});
  for (lyap::Method m :
       {lyap::Method::Lmi, lyap::Method::LmiAlpha, lyap::Method::LmiAlphaPlus})
    for (sdp::Backend b :
         {sdp::Backend::NewtonAnalyticCenter, sdp::Backend::FastInteriorPoint,
          sdp::Backend::ShortStepBarrier})
      out.push_back({m, b});
  return out;
}

namespace {

/// The per-mode closed-loop matrices of one benchmark model.
struct ModeCase {
  std::string model_name;
  std::size_t size;
  bool integer_model;
  std::size_t mode;
  Matrix a;
};

std::vector<ModeCase> make_cases(const ExperimentConfig& config) {
  // Case enumeration covers both the model loads and the loop closures;
  // attribute it as one stage (it is cheap next to synthesis, but the
  // benches' --metrics-out breakdown should still account for it).
  obs::Span span{"case-load"};
  std::vector<ModeCase> cases;
  for (const auto& bm : model::benchmark_family()) {
    if (std::find(config.sizes.begin(), config.sizes.end(), bm.size) ==
        config.sizes.end())
      continue;
    const std::vector<model::PiGains> gains = {model::engine_gains_mode0(),
                                               model::engine_gains_mode1()};
    for (std::size_t mode = 0; mode < gains.size(); ++mode) {
      model::PwaMode closed =
          model::close_loop_single_mode(bm.plant, gains[mode]);
      cases.push_back(
          {bm.name, bm.size, bm.integer_rounded, mode, std::move(closed.a)});
    }
  }
  return cases;
}

/// Single-write progress line (worker threads share stderr).
void progress(const ExperimentConfig& config, const std::string& line) {
  if (config.verbose) std::cerr << line;
}

}  // namespace

Table1Result run_table1(const ExperimentConfig& config) {
  Table1Result result;
  result.strategies = paper_strategies();
  result.cells.resize(result.strategies.size());
  const std::vector<ModeCase> cases = make_cases(config);
  const std::size_t num_cases = cases.size();

  // One job per (strategy, case); job i writes only slot i.
  struct SynthOutcome {
    bool timeout = false;
    bool synthesized = false;
    bool valid = false;
    double synth_seconds = 0.0;
    numeric::Matrix p;
  };
  std::vector<SynthOutcome> outcomes(result.strategies.size() * num_cases);

  // Certificate store: an explicit config.store wins; nullopt resolves
  // $SPIV_CACHE_DIR (nullptr = recompute everything, exactly the pre-cache
  // behaviour).  Warm entries replay the stored candidate, verdict, and
  // synthesis time, so a warm run produces bit-identical table cells.
  store::CertStore* cache =
      config.store ? *config.store : store::CertStore::from_env();

  for_each_job(
      outcomes.size(), config.jobs,
      [&](std::size_t idx) {
        const Strategy& strategy = result.strategies[idx / num_cases];
        const ModeCase& mc = cases[idx % num_cases];
        SynthOutcome& out = outcomes[idx];
        {
          std::ostringstream line;
          line << "[table1] " << strategy.name() << " " << mc.model_name
               << " mode " << mc.mode << "\n";
          progress(config, line.str());
        }
        verify::VerifyContext ctx;
        ctx.store = cache;
        verify::VerifyRequest vreq;
        vreq.a = mc.a;
        vreq.method = strategy.method;
        vreq.backend = strategy.backend;
        vreq.engine = smt::Engine::Sylvester;
        vreq.digits = config.digits;
        vreq.options.alpha = config.alpha;
        vreq.options.nu = config.nu;
        // Table I semantics: independent per-stage budgets, validation's
        // clock starting only once synthesis is done.
        vreq.budget = verify::SplitBudget{config.synth_timeout_seconds,
                                          config.validate_timeout_seconds};
        verify::VerifyOutcome res = verify::run_verify(ctx, vreq);
        // The table's "TO" cells count synthesis timeouts only; a
        // validation timeout keeps the synthesized candidate in play.
        if (res.status == verify::Status::Timeout &&
            res.timeout_stage == verify::Stage::Synthesis) {
          out.timeout = true;
          return;
        }
        if (!res.synthesized()) return;
        out.synthesized = true;
        out.synth_seconds = res.synth_seconds;
        out.valid = res.status == verify::Status::Valid;
        out.p = res.candidate ? std::move(res.candidate->p)
                              : res.record->candidate.p;  // hit: shared record
      });

  // Merge in (strategy, case) order — the serial loop nest's order — so the
  // aggregation and the candidate list are independent of scheduling.
  for (std::size_t s = 0; s < result.strategies.size(); ++s) {
    for (std::size_t c = 0; c < num_cases; ++c) {
      const ModeCase& mc = cases[c];
      Table1Cell& cell = result.cells[s][mc.size];
      ++cell.cases;
      SynthOutcome& out = outcomes[s * num_cases + c];
      if (out.timeout) {
        ++cell.timeouts;
        continue;
      }
      if (!out.synthesized) continue;
      ++cell.synthesized;
      cell.total_synth_seconds += out.synth_seconds;
      if (out.valid) ++cell.valid;

      CandidateRecord record;
      record.model_name = mc.model_name;
      record.size = mc.size;
      record.integer_model = mc.integer_model;
      record.mode = mc.mode;
      record.strategy = result.strategies[s];
      record.a = mc.a;
      record.p = std::move(out.p);
      record.synth_seconds = out.synth_seconds;
      result.candidates.push_back(std::move(record));
    }
  }
  return result;
}

std::string EngineConfig::name() const {
  return smt::to_string(engine) + (det_encoding ? "+det" : "");
}

std::vector<EngineConfig> paper_engine_configs() {
  return {
      {smt::Engine::SympyGauss, false}, {smt::Engine::Sylvester, false},
      {smt::Engine::Ldlt, false},       {smt::Engine::Ldlt, true},
      {smt::Engine::SmtZ3Style, false}, {smt::Engine::SmtZ3Style, true},
      {smt::Engine::SmtCvc5Style, false}, {smt::Engine::SmtCvc5Style, true},
  };
}

Figure3Result run_figure3(const std::vector<CandidateRecord>& candidates,
                          const ExperimentConfig& config) {
  Figure3Result result;
  result.engines = paper_engine_configs();
  const std::size_t num_candidates = candidates.size();
  // One job per (engine, candidate), filling the sample slot the serial
  // engine-major loop nest would have pushed.
  result.samples.resize(result.engines.size() * num_candidates);

  for_each_job(
      result.samples.size(), config.jobs,
      [&](std::size_t idx) {
        const std::size_t e = idx / num_candidates;
        const std::size_t c = idx % num_candidates;
        {
          std::ostringstream line;
          line << "[figure3] " << result.engines[e].name() << " candidate "
               << c << "/" << num_candidates << "\n";
          progress(config, line.str());
        }
        verify::VerifyContext ctx;
        verify::ValidateRequest vreq;
        vreq.a = candidates[c].a;
        vreq.p = candidates[c].p;
        vreq.engine = result.engines[e].engine;
        vreq.digits = config.digits;
        vreq.det_encoding = result.engines[e].det_encoding;
        vreq.timeout_seconds = config.validate_timeout_seconds;
        const verify::VerifyOutcome res = verify::run_validate(ctx, vreq);
        ValidationSample& sample = result.samples[idx];
        sample.candidate_index = c;
        sample.engine_index = e;
        sample.seconds = res.validate_seconds;
        switch (res.status) {
          case verify::Status::Timeout:
            sample.outcome = smt::Outcome::Timeout;
            break;
          case verify::Status::Valid:
            sample.outcome = smt::Outcome::Valid;
            break;
          default:
            sample.outcome = smt::Outcome::Invalid;
            break;
        }
      });
  return result;
}

RoundingResult run_rounding_study(
    const std::vector<CandidateRecord>& candidates,
    const ExperimentConfig& config, const std::vector<int>& digit_levels) {
  RoundingResult result;
  result.digit_levels = digit_levels;
  const std::size_t num_levels = digit_levels.size();

  // One job per (candidate, digit level); 0 = valid, 1 = invalid,
  // 2 = timeout, merged into the per-strategy counts afterwards.
  std::vector<int> outcomes(candidates.size() * num_levels, 0);
  for_each_job(
      outcomes.size(), config.jobs,
      [&](std::size_t idx) {
        const CandidateRecord& record = candidates[idx / num_levels];
        const int digits = digit_levels[idx % num_levels];
        verify::VerifyContext ctx;
        verify::ValidateRequest vreq;
        vreq.a = record.a;
        vreq.p = record.p;
        vreq.engine = smt::Engine::Sylvester;
        vreq.digits = digits;
        vreq.timeout_seconds = config.validate_timeout_seconds;
        const verify::VerifyOutcome res = verify::run_validate(ctx, vreq);
        if (res.status == verify::Status::Timeout)
          outcomes[idx] = 2;
        else if (res.status == verify::Status::Valid)
          outcomes[idx] = 0;
        else
          outcomes[idx] = 1;
      });

  for (std::size_t c = 0; c < candidates.size(); ++c) {
    auto& row = result.counts[candidates[c].strategy.name()];
    if (row.empty()) row.resize(num_levels);
    for (std::size_t d = 0; d < num_levels; ++d) {
      switch (outcomes[c * num_levels + d]) {
        case 0: ++row[d].valid; break;
        case 1: ++row[d].invalid; break;
        default: ++row[d].timeout; break;
      }
    }
  }
  return result;
}

Table2Result run_table2(const ExperimentConfig& config,
                        const std::vector<std::size_t>& sizes) {
  Table2Result result;
  // Enumerate (model, mode, strategy) cases up front; the closed-loop
  // systems are shared read-only across jobs.
  struct Table2Case {
    const model::BenchmarkModel* bm;
    const model::PwaSystem* system;
    std::size_t mode;
    Strategy strategy;
  };
  std::vector<model::PwaSystem> systems;
  std::vector<const model::BenchmarkModel*> models;
  for (const auto& bm : model::benchmark_family()) {
    if (bm.integer_rounded) continue;
    if (std::find(sizes.begin(), sizes.end(), bm.size) == sizes.end())
      continue;
    systems.push_back(model::close_loop(bm.plant, bm.controller,
                                        bm.references));
    models.push_back(&bm);
  }
  std::vector<Table2Case> cases;
  for (std::size_t i = 0; i < systems.size(); ++i)
    for (std::size_t mode = 0; mode < systems[i].num_modes(); ++mode)
      for (const Strategy& strategy : paper_strategies()) {
        if (strategy.method == lyap::Method::EqSmt) continue;  // paper: TO
        cases.push_back({models[i], &systems[i], mode, strategy});
      }

  result.entries.resize(cases.size());
  for_each_job(
      cases.size(), config.jobs,
      [&](std::size_t idx) {
        const Table2Case& tc = cases[idx];
        {
          std::ostringstream line;
          line << "[table2] " << tc.bm->name << " mode " << tc.mode << " "
               << tc.strategy.name() << "\n";
          progress(config, line.str());
        }
        Table2Entry& entry = result.entries[idx];
        entry.model_name = tc.bm->name;
        entry.size = tc.bm->size;
        entry.mode = tc.mode;
        entry.strategy = tc.strategy;
        verify::VerifyContext ctx;
        verify::VerifyRequest vreq;
        vreq.a = tc.system->mode(tc.mode).a;
        vreq.method = tc.strategy.method;
        vreq.backend = tc.strategy.backend;
        vreq.options.alpha = config.alpha;
        vreq.options.nu = config.nu;
        vreq.budget = verify::SplitBudget{config.synth_timeout_seconds,
                                          config.validate_timeout_seconds};
        const verify::VerifyOutcome res = verify::run_synthesize(ctx, vreq);
        if (!res.synthesized()) return;
        entry.synthesized = true;
        try {
          robust::RegionOptions region_options;
          region_options.digits = config.digits;
          // The region computation plays validation's role: run_synthesize
          // hands back the split validate budget, clock started just now.
          region_options.deadline = res.deadline;
          robust::RobustRegion region = robust::synthesize_region(
              *tc.system, tc.mode, res.candidate->p, tc.bm->references,
              region_options);
          entry.certified = region.certified;
          entry.optimal = region.optimal;
          entry.seconds = region.seconds;
          entry.volume = region.volume;
          entry.epsilon = robust::reference_robustness_epsilon(
              *tc.system, tc.mode, res.candidate->p, tc.bm->references, region);
        } catch (const TimeoutError&) {
        } catch (const std::runtime_error&) {
          // e.g. candidate not PD after rounding: leave uncertified.
        }
      });
  return result;
}

PiecewiseResult run_piecewise(const ExperimentConfig& config) {
  PiecewiseResult result;
  const model::StateSpace engine = model::make_engine_model();
  const model::SwitchedPiController ctrl = model::make_engine_controller();
  for (std::size_t size : config.sizes) {
    if (size > 10) continue;  // keep the exact checks tractable
    model::StateSpace plant =
        size == engine.num_states()
            ? engine
            : model::balanced_truncation(engine, size).sys;
    // References giving a single global attractor (mode 1 transient).
    Vector r{0.0, 1.0, 0.5, 1.0};
    auto mode1 = model::close_loop_single_mode(plant, model::engine_gains_mode1());
    Vector w_eq = mode1.equilibrium(r);
    double y0 = 0.0;
    for (std::size_t j = 0; j < plant.num_states(); ++j)
      y0 += plant.c(0, j) * w_eq[j];
    r[0] = y0;
    model::PwaSystem system = model::close_loop(plant, ctrl, r);

    for (lyap::SurfaceEncoding encoding :
         {lyap::SurfaceEncoding::Equality, lyap::SurfaceEncoding::Relaxed}) {
      if (config.verbose)
        std::cerr << "[piecewise] size " << size << " encoding "
                  << (encoding == lyap::SurfaceEncoding::Equality ? "equality"
                                                                  : "relaxed")
                  << "\n";
      PiecewiseEntry entry;
      entry.model_name = "size" + std::to_string(size);
      entry.encoding = encoding;
      lyap::PiecewiseOptions options;
      options.deadline = Deadline::after_seconds(config.synth_timeout_seconds);
      std::optional<lyap::PiecewiseCandidate> candidate;
      try {
        candidate = lyap::synthesize_piecewise(system, r, encoding, options);
      } catch (const TimeoutError&) {
      }
      if (candidate) {
        entry.candidate_found = true;
        entry.synth_seconds = candidate->synth_seconds;
        entry.validation = lyap::validate_piecewise(
            system, r, *candidate, encoding, config.digits,
            Deadline::after_seconds(config.validate_timeout_seconds));
      }
      result.entries.push_back(entry);
    }
  }
  return result;
}

}  // namespace spiv::core
