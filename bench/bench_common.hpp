// Shared configuration for the table/figure harnesses.
//
// Every harness reads its budgets from the environment so the full paper
// protocol (hours) and a quick smoke run share one binary:
//   SPIV_QUICK=1            — small sizes, tight budgets (CI-friendly)
//   SPIV_SIZES=3,5,10       — override the benchmark sizes
//   SPIV_SYNTH_TIMEOUT=120  — per-job synthesis budget (seconds)
//   SPIV_VALIDATE_TIMEOUT=60— per-job validation budget (seconds)
//   SPIV_VERBOSE=1          — progress on stderr
//   SPIV_JOBS=4             — worker threads for the experiment job pool
//                             (default: hardware_concurrency; 1 = serial;
//                             every non-timing output is identical for any
//                             value, see core/parallel.hpp)
//
// Every harness additionally accepts `--metrics-out FILE`: at exit it
// writes the process's metrics registry (per-stage latency histograms,
// pool and store counters) as Prometheus text to FILE, so the flat totals
// in BENCH_*.json gain an attributable stage breakdown.
#pragma once

#include <unistd.h>

#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "core/env.hpp"
#include "core/experiments.hpp"
#include "core/format.hpp"
#include "obs/metrics.hpp"

// Short git commit of the build, injected by bench/CMakeLists.txt.
#ifndef SPIV_GIT_COMMIT
#define SPIV_GIT_COMMIT "unknown"
#endif

namespace spiv::bench {

/// Machine/build identification for BENCH_*.json files, rendered as
/// top-level `"key": value` pairs (no surrounding braces) so the emitters
/// can splice them next to "jobs" and "wall_seconds".  A benchmark number
/// without the host, core count, and commit that produced it cannot be
/// compared against later runs.
inline std::string machine_meta_fields() {
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) != 0)
    std::snprintf(host, sizeof host, "unknown");
  std::ostringstream os;
  os << "\"hostname\": \"" << host
     << "\", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"git_commit\": \"" << SPIV_GIT_COMMIT << "\"";
  return os.str();
}

inline bool env_present(const char* name) {
  const char* v = core::env::raw(name);
  return v && *v;
}

inline double env_double(const char* name, double fallback) {
  const char* v = core::env::raw(name);
  return v ? std::atof(v) : fallback;
}

inline bool env_flag(const char* name) {
  const char* v = core::env::raw(name);
  return v && *v && std::string{v} != "0";
}

/// $name as a comma-separated list of positive integers (empty tokens are
/// skipped).  Unset or empty reads as `fallback`; a malformed token warns
/// once per variable on stderr and the whole list reads as `fallback`.
inline std::vector<std::size_t> env_size_list(
    const char* name, const std::vector<std::size_t>& fallback) {
  const char* v = core::env::raw(name);
  if (!v) return fallback;
  std::vector<std::size_t> out;
  std::stringstream ss{v};
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    const std::optional<std::size_t> parsed =
        core::env::parse_positive(tok.c_str());
    if (!parsed) {
      static std::mutex mutex;
      static std::set<std::string> warned;
      const std::lock_guard<std::mutex> lock(mutex);
      if (warned.insert(name).second)
        std::cerr << "bench: ignoring invalid " << name << "='" << v
                  << "' (expected comma-separated positive integers)\n";
      return fallback;
    }
    out.push_back(*parsed);
  }
  return out.empty() ? fallback : out;
}

inline std::vector<std::size_t> env_sizes(
    const std::vector<std::size_t>& fallback) {
  return env_size_list("SPIV_SIZES", fallback);
}

/// Parse `--metrics-out FILE` from a harness command line; empty when the
/// flag is absent.  Unknown arguments warn (the harnesses are otherwise
/// configured entirely through the environment).
inline std::string metrics_out_path(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--metrics-out") && i + 1 < argc) {
      path = argv[++i];
    } else {
      std::cerr << "bench: ignoring unknown argument '" << argv[i]
                << "' (supported: --metrics-out FILE)\n";
    }
  }
  return path;
}

/// Write the global metrics registry's Prometheus exposition to `path`
/// (no-op when `path` is empty).
inline void write_metrics(const std::string& path) {
  if (path.empty()) return;
  if (core::write_file(path, obs::Registry::global().expose() + "\n"))
    std::cout << "(stage-breakdown metrics written to " << path << ")\n";
  else
    std::cerr << "bench: cannot write metrics to " << path << "\n";
}

inline core::ExperimentConfig make_config(double default_synth_timeout,
                                          double default_validate_timeout) {
  core::ExperimentConfig config;
  if (env_flag("SPIV_QUICK")) {
    config.sizes = {3, 5};
    config.synth_timeout_seconds = 10.0;
    config.validate_timeout_seconds = 10.0;
  } else {
    config.synth_timeout_seconds = default_synth_timeout;
    config.validate_timeout_seconds = default_validate_timeout;
  }
  config.sizes = env_sizes(config.sizes);
  config.synth_timeout_seconds =
      env_double("SPIV_SYNTH_TIMEOUT", config.synth_timeout_seconds);
  config.validate_timeout_seconds =
      env_double("SPIV_VALIDATE_TIMEOUT", config.validate_timeout_seconds);
  config.verbose = env_flag("SPIV_VERBOSE");
  return config;
}

}  // namespace spiv::bench
