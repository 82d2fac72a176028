// Ablation: fraction-free Bareiss vs the p-adic (Dixon lifting) solver on
// the vech Lyapunov system of every benchmark size — the speedup that lets
// the eq-smt method (which always runs the modular solver) finish at sizes
// 10-18, where the paper's Bareiss-style elimination times out.  Both
// solutions are compared bit for bit ("same" column).
//
// The rows are also written to BENCH_exact_solvers.json (with machine
// metadata) so the bareiss/modular ratio can be tracked across commits.
#include <chrono>
#include <cstdio>
#include <sstream>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "exact/lyapunov_exact.hpp"
#include "exact/modular.hpp"
#include "model/reduction.hpp"

namespace {

using namespace spiv;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const char* cell(double t, char (&buf)[32]) {
  if (t < 0)
    std::snprintf(buf, sizeof buf, "TO");
  else
    std::snprintf(buf, sizeof buf, "%.3f", t);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_out = bench::metrics_out_path(argc, argv);
  const double budget = bench::env_double("SPIV_SYNTH_TIMEOUT", 60.0);
  const std::vector<std::size_t> sizes =
      bench::env_sizes(bench::env_flag("SPIV_QUICK")
                           ? std::vector<std::size_t>{3, 5}
                           : std::vector<std::size_t>{3, 5, 10, 15, 18});
  const std::size_t jobs = core::resolve_jobs();
  const auto wanted = [&sizes](std::size_t s) {
    for (std::size_t w : sizes)
      if (w == s) return true;
    return false;
  };

  std::printf("ABLATION — exact linear solve backend on the vech system "
              "(budget %.0fs per cell)\n", budget);
  std::printf("%-8s %6s %6s %14s %14s %10s %8s %8s  %-24s %s\n", "model",
              "dim", "vech-N", "bareiss (s)", "modular (s)", "speedup",
              "primes", "same", "elim/crt/rec/ver (s)",
              "attempts/euclid/hit/miss");
  std::ostringstream rows;
  bool first = true;
  for (const auto& bm : model::make_benchmark_family()) {
    if (!wanted(bm.size)) continue;
    auto mode =
        model::close_loop_single_mode(bm.plant, model::engine_gains_mode0());
    const std::size_t d = mode.a.rows();
    exact::RatMatrix a_exact = exact::rat_matrix_from_doubles(
        mode.a.data().data(), d, d, /*digits=*/0);
    exact::RatMatrix q = exact::RatMatrix::identity(d);
    exact::RatMatrix op = exact::lyapunov_operator_vech(a_exact);
    const std::vector<exact::Rational> rhs_vec = exact::vech(-q);
    exact::RatMatrix rhs{op.rows(), 1};
    for (std::size_t i = 0; i < rhs_vec.size(); ++i) rhs(i, 0) = rhs_vec[i];

    double t_bareiss = -1.0, t_modular = -1.0;
    std::optional<exact::RatMatrix> x_bareiss, x_modular;
    {
      auto t0 = Clock::now();
      try {
        x_bareiss = op.solve(rhs, Deadline::after_seconds(budget));
        if (x_bareiss) t_bareiss = seconds_since(t0);
      } catch (const TimeoutError&) {
      }
    }
    exact::ModularStats stats;
    {
      exact::ModularOptions options;
      options.jobs = jobs;
      options.stats = &stats;
      auto t0 = Clock::now();
      try {
        x_modular = exact::solve_rational_modular(
            op, rhs, Deadline::after_seconds(budget), options);
        if (x_modular) t_modular = seconds_since(t0);
      } catch (const TimeoutError&) {
      }
    }
    // Parallel-phase speedup: rerun single-threaded and compare the p-adic
    // conversion + reconstruction stage (the part that fans out over
    // core::for_each_block; the field keeps its crt_ name).  Skipped when
    // only one worker is available — a 1-core box would just double the
    // runtime to report 1.0.
    double speedup_crt_rec = -1.0;
    if (jobs > 1 && t_modular > 0) {
      exact::ModularStats stats1;
      exact::ModularOptions options1;
      options1.jobs = 1;
      options1.stats = &stats1;
      try {
        auto x1 = exact::solve_rational_modular(
            op, rhs, Deadline::after_seconds(budget), options1);
        const double par = stats.crt_seconds + stats.reconstruct_seconds;
        if (x1 && par > 0)
          speedup_crt_rec =
              (stats1.crt_seconds + stats1.reconstruct_seconds) / par;
        if (x1 && !(*x1 == *x_modular))
          std::printf("WARNING: jobs=1 and jobs=%zu results differ at %s\n",
                      jobs, bm.name.c_str());
      } catch (const TimeoutError&) {
      }
    }
    const bool both = x_bareiss.has_value() && x_modular.has_value();
    const bool identical = both && *x_bareiss == *x_modular;
    char ratio[32] = "-";
    if (t_bareiss > 0 && t_modular > 0)
      std::snprintf(ratio, sizeof ratio, "%.1fx", t_bareiss / t_modular);
    char b1[32], b2[32], phases[64], rec_counts[64];
    std::snprintf(phases, sizeof phases, "%.2f/%.2f/%.2f/%.2f",
                  stats.elim_seconds, stats.crt_seconds,
                  stats.reconstruct_seconds, stats.verify_seconds);
    std::snprintf(rec_counts, sizeof rec_counts, "%llu/%llu/%llu/%llu",
                  static_cast<unsigned long long>(stats.attempts),
                  static_cast<unsigned long long>(stats.euclid_calls),
                  static_cast<unsigned long long>(stats.shared_den_hits),
                  static_cast<unsigned long long>(stats.shared_den_misses));
    std::printf("%-8s %6zu %6zu %14s %14s %10s %8llu %8s  %-24s %s\n",
                bm.name.c_str(), d, op.rows(), cell(t_bareiss, b1),
                cell(t_modular, b2), ratio,
                static_cast<unsigned long long>(stats.primes_used),
                both ? (identical ? "yes" : "NO") : "-", phases, rec_counts);

    rows << (first ? "\n" : ",\n") << "    {\"model\": \"" << bm.name
         << "\", \"size\": " << bm.size << ", \"dim\": " << d
         << ", \"vech_unknowns\": " << op.rows()
         << ", \"bareiss_seconds\": " << (t_bareiss < 0 ? -1.0 : t_bareiss)
         << ", \"modular_seconds\": " << (t_modular < 0 ? -1.0 : t_modular)
         << ", \"primes_used\": " << stats.primes_used
         << ", \"unlucky_primes\": " << stats.unlucky_primes
         << ", \"early_exit\": " << (stats.early_exit ? "true" : "false")
         << ", \"jobs\": " << jobs
         << ", \"elim_seconds\": " << stats.elim_seconds
         << ", \"crt_seconds\": " << stats.crt_seconds
         << ", \"reconstruct_seconds\": " << stats.reconstruct_seconds
         << ", \"verify_seconds\": " << stats.verify_seconds
         << ", \"attempts\": " << stats.attempts
         << ", \"euclid_calls\": " << stats.euclid_calls
         << ", \"shared_den_hits\": " << stats.shared_den_hits
         << ", \"shared_den_misses\": " << stats.shared_den_misses
         << ", \"crt_reconstruct_speedup\": "
         << (speedup_crt_rec < 0 ? -1.0 : speedup_crt_rec)
         << ", \"identical\": " << (identical ? "true" : "false") << "}";
    first = false;
  }
  std::ostringstream json;
  json << "{\n  \"experiment\": \"exact_solvers\",\n  "
       << bench::machine_meta_fields() << ",\n  \"budget_seconds\": " << budget
       << ",\n  \"cells\": [" << rows.str() << "\n  ]\n}\n";
  core::write_file("BENCH_exact_solvers.json", json.str());
  std::printf("\n(-1 seconds = timed out at the budget; backend comparison "
              "written to BENCH_exact_solvers.json)\n");
  bench::write_metrics(metrics_out);
  return 0;
}
