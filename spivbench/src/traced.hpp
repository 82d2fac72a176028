// spivbench traced replay: an in-process net::Server whose handler (the
// public ServeOptions::handler hook) calls the pipeline's layers one by
// one, each call wrapped in a benchmark-owned span, and the per-layer
// metrics computed from those spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace spivbench {

struct ReplayOptions {
  std::string work_dir;  ///< generator output (case paths are relative to it)
  const std::vector<std::string>* requests = nullptr;
  const std::vector<std::string>* prime = nullptr;
  const ExpectMap* expect = nullptr;
  bool cycle = false;
  bool use_store = true;
  std::size_t connections = 4;
  std::size_t unit = 1;
  /// Timed window of EACH pass (the untraced and the traced one).
  double seconds = 5.0;
  std::string trace_out;  ///< JSONL span file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct ReplayResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;  ///< sample counts and self-checks
};

/// Run the untraced pass, then the traced pass, of the same request
/// sequence against a fresh in-process server each, and compute every
/// per-layer metric.  Must be called from a process whose working
/// directory is ReplayOptions::work_dir.
[[nodiscard]] ReplayResult run_replay(const ReplayOptions& options);

}  // namespace spivbench
