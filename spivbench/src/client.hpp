// spivbench closed-loop load client: N connections, each sending one
// `verify` and waiting for its verdict before sending the next, every
// verdict checked against the reference table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace spivbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, shared with spans).
[[nodiscard]] std::int64_t now_ns();

/// Per-connection deadline cap `deadline <base + c>` sent by connection c
/// before its first request.  It is below the requests' own budget, so
/// every request of connection c runs under a budget of base + c seconds:
/// the traced replay recovers the connection from the budget alone.
inline constexpr int kDeadlineBase = 100;

struct Sample {
  std::uint32_t conn = 0;
  std::uint32_t seq = 0;  ///< the session's request id (from 1 per connection)
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  bool ok = false;
};

struct LoadOptions {
  std::string socket_path;
  const std::vector<std::string>* tails = nullptr;
  const ExpectMap* expect = nullptr;
  std::size_t connections = 4;
  /// Stop sending new requests after this many seconds (<= 0: no limit,
  /// run the list once).
  double seconds = 0.0;
  bool cycle = false;  ///< restart the list when it is exhausted
  std::size_t unit = 1;  ///< see Generated::unit
};

struct LoadResult {
  std::vector<Sample> samples;  ///< completed requests, in completion order
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions
  double client_cpu_seconds = 0.0;    ///< summed over the client threads

  [[nodiscard]] double wall_seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Run the closed loop.  Connection setup (connect + deadline) happens
/// before the clock starts.
[[nodiscard]] LoadResult run_load(const LoadOptions& options);

/// Throughput and latency quantiles of a run.  With `windows` > 1 the timed
/// window is cut into that many equal slices (slice k holds the requests
/// sent in it, and its throughput is their count over the slice length)
/// and each statistic is its best value over the slices: the highest
/// throughput and the lowest of each latency quantile.
struct Summary {
  double throughput_rps = 0.0;
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0;
};
[[nodiscard]] Summary summarize(const LoadResult& r, std::size_t windows);

/// Latency quantile (nearest rank) of the completed samples, milliseconds.
[[nodiscard]] double latency_quantile_ms(const std::vector<Sample>& samples,
                                         double q);

/// Nearest-rank quantile of an unsorted vector (copied).
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace spivbench
