#include "core/env.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace spiv::core::env {

namespace {

std::atomic<bool> g_warned_jobs{false};
std::atomic<bool> g_warned_negative_ttl{false};

/// One stderr line per process per variable: the harnesses resolve their
/// configuration once per driver, and a misconfigured shell should not
/// spam every parallel job.
void warn_once(std::atomic<bool>& flag, const std::string& message) {
  if (!flag.exchange(true)) std::cerr << "spiv: " << message << "\n";
}

std::string string_or_empty(const char* name) {
  const char* v = raw(name);
  return v ? std::string{v} : std::string{};
}

}  // namespace

const char* raw(const char* name) noexcept { return std::getenv(name); }

std::optional<std::size_t> parse_positive(const char* text) {
  if (!text || *text == '\0') return std::nullopt;
  // Require a full parse: "4abc" used to slip through strtol as 4, and
  // strtol itself skips leading whitespace (" 4"), which we also reject.
  if (*text < '0' || *text > '9') return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v <= 0)
    return std::nullopt;
  return static_cast<std::size_t>(v);
}

std::optional<std::size_t> jobs() {
  const char* v = raw("SPIV_JOBS");
  if (!v || !*v) return std::nullopt;
  if (const std::optional<std::size_t> parsed = parse_positive(v))
    return parsed;
  warn_once(g_warned_jobs, "ignoring invalid SPIV_JOBS='" + std::string{v} +
                               "' (must be a positive integer)");
  return std::nullopt;
}

std::string cache_dir() { return string_or_empty("SPIV_CACHE_DIR"); }

std::string trace_path() { return string_or_empty("SPIV_TRACE"); }

std::optional<double> negative_ttl() {
  const char* v = raw("SPIV_NEG_TTL");
  if (!v || !*v) return std::nullopt;
  // Same full-parse discipline as the integer knobs: leading whitespace,
  // trailing junk, negatives, and non-finite values all reject (strtod
  // itself would skip leading whitespace and accept "inf").
  if ((*v >= '0' && *v <= '9') || *v == '.') {
    char* end = nullptr;
    errno = 0;
    const double seconds = std::strtod(v, &end);
    if (end != v && *end == '\0' && errno == 0 && seconds >= 0.0 &&
        seconds < 1e18)
      return seconds;
  }
  warn_once(g_warned_negative_ttl,
            "ignoring invalid SPIV_NEG_TTL='" + std::string{v} +
                "' (must be a non-negative number of seconds)");
  return std::nullopt;
}

void rearm_warnings_for_testing() {
  g_warned_jobs.store(false);
  g_warned_negative_ttl.store(false);
}

}  // namespace spiv::core::env
