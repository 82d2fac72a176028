// spivbench workloads: the request grid, the committed reference verdicts,
// and the seeded generator that turns (workload, seed) into the case files
// and request list spiv-serve receives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace spivbench {

inline constexpr const char* kServeWarm = "serve-warm";
inline constexpr const char* kServeCold = "serve-cold";
inline constexpr const char* kExactEqsmt = "exact-eqsmt";

/// Whole-request budget carried by every generated request line (seconds).
inline constexpr int kRequestTimeout = 120;
/// Working-set size of serve-warm (well inside the store's 1024-entry LRU).
inline constexpr std::size_t kWarmWorkingSet = 128;

/// One verification request of the reference table.
struct GridEntry {
  std::string set;  ///< "cold" (the serve-cold grid) or "eqsmt"
  std::string case_name;
  std::size_t mode = 0;
  std::string method;
  std::string backend;  ///< "-" for the non-LMI methods
  std::string engine;
  int digits = 10;
  std::string key;     ///< store::request_key, 32 hex characters
  std::string status;  ///< verify::to_string of the reference verdict
  double seconds = 0.0;  ///< cold solve time when the table was made

  /// The `verify` argument tail spiv-serve receives for this entry.
  [[nodiscard]] std::string tail() const;
  [[nodiscard]] bool small_case() const;  ///< sizes 3/3i/5/5i
};

/// Every combination considered for the serve-cold grid, before the
/// one-second filter (see make_reference in main.cpp).
[[nodiscard]] std::vector<GridEntry> candidate_grid();
/// The exact-eqsmt requests: eq-smt / sylvester / 10 digits on size15.
[[nodiscard]] std::vector<GridEntry> eqsmt_entries();

/// Reference table I/O (tab-separated, one header line).
[[nodiscard]] std::vector<GridEntry> read_reference(const std::string& path);
void write_reference(const std::string& path,
                     const std::vector<GridEntry>& entries);

/// Expected (key, status) by request tail.
struct Expected {
  std::string key;
  std::string status;
};
using ExpectMap = std::unordered_map<std::string, Expected>;
[[nodiscard]] ExpectMap expectations(const std::vector<GridEntry>& entries);

/// splitmix64: the one PRNG of the benchmark, so a seed gives the same
/// inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n), n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Write cases/<name>.spivcase for every case `entries` use (via
/// model::write_case) under `dir`.
void write_cases(const std::string& dir, const std::vector<GridEntry>& entries);

/// What the generator produced for one workload.
struct Generated {
  std::vector<std::string> requests;  ///< timed request tails, in order
  std::vector<std::string> prime;     ///< serve-warm working set
  bool cycle = false;  ///< the timed list repeats when exhausted
  bool use_store = true;
  std::size_t connections = 4;  ///< closed-loop client connections
  /// The timed list is consumed in whole units of this many requests: the
  /// window is only checked before the first request of a unit.  A unit of
  /// more than one request starts only if the previous unit's duration fits
  /// in the time left, so the number of units in a run does not flip with
  /// small changes in speed.  Units longer than one request need one
  /// connection.
  std::size_t unit = 1;
  /// Slices of the timed window whose best value the load statistics
  /// report (client.hpp, summarize).
  std::size_t windows = 1;
};

/// Build the inputs of `workload` from `seed` and the reference table.
/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] Generated generate(const std::string& workload,
                                 std::uint64_t seed,
                                 const std::vector<GridEntry>& reference);

/// Write `dir`/requests.txt, `dir`/prime.txt, `dir`/workload.txt and the
/// case files.  read_generated is the inverse.
void write_generated(const std::string& dir, const std::string& workload,
                     const Generated& g,
                     const std::vector<GridEntry>& reference);

[[nodiscard]] Generated read_generated(const std::string& dir);

[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);

}  // namespace spivbench
