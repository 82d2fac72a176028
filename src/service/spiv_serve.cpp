// spiv-serve: certificate verification service.
//
// Two transports, one protocol (documented in service/service.hpp):
//
//   # classic batch mode — stdin/stdout
//   SPIV_CACHE_DIR=cache ./build/src/service/spiv-serve --jobs 4
//
//   # network mode — unix-domain and/or TCP listeners, many concurrent
//   # clients, graceful drain on SIGTERM / SIGINT / `quit`
//   ./build/src/service/spiv-serve --listen /tmp/spiv.sock
//       --listen-tcp 127.0.0.1:7199 --max-inflight 64 --metrics-out m.prom
//
// The certificate store is enabled by --cache-dir DIR (or $SPIV_CACHE_DIR);
// without either, every request recomputes.  In network mode, synth-failed
// and timeout outcomes are negatively cached for --neg-ttl seconds
// (default 30; 0 disables) so hopeless retries answer from memory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "core/env.hpp"
#include "core/parallel.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "verify/verify.hpp"

namespace {

void print_usage(std::FILE* to, const char* prog) {
  std::fprintf(
      to,
      "usage: %s [options]\n"
      "  --jobs N             worker threads (default: $SPIV_JOBS or cores)\n"
      "  --timeout SECONDS    default per-request budget (default 60)\n"
      "  --cache-dir DIR      certificate store (default $SPIV_CACHE_DIR)\n"
      "network mode (without --listen* the protocol runs on stdin/stdout):\n"
      "  --listen PATH        unix-domain socket listener\n"
      "  --listen-tcp [HOST:]PORT   TCP listener (port 0 = ephemeral)\n"
      "  --max-connections N  connection cap, excess shed (default 256)\n"
      "  --max-inflight N     request admission cap, 0 = unbounded\n"
      "  --max-queue-depth N  shed at N requests awaiting a worker, 0 = off\n"
      "  --neg-ttl SECONDS    negative-cache TTL (default 30, 0 = off)\n"
      "  --metrics-out FILE   write a final Prometheus snapshot on drain\n"
      "protocol: verify <case-file> <mode> <method> <backend|-> <engine> "
      "<digits> [timeout_s] | batch-verify <n> | deadline <s|off> | wait | "
      "stats | metrics | quit\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spiv;
  service::ServeOptions options;
  net::ServerOptions server_options;
  std::string cache_dir;
  std::string metrics_out;
  bool listen_unix = false, listen_tcp = false;
  bool neg_ttl_set = false;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", argv[i]);
      print_usage(stderr, argv[0]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (!std::strcmp(argv[i], "--jobs")) {
      // Strict parse + the same 8x hardware cap as $SPIV_JOBS (resolve_jobs
      // clamps oversized explicit requests with a stderr warning).
      const char* value = need_value(i);
      const std::optional<std::size_t> jobs = core::parse_jobs(value);
      if (!jobs) {
        std::fprintf(stderr,
                     "invalid --jobs '%s' (must be a positive integer)\n",
                     value);
        return 2;
      }
      options.jobs = core::resolve_jobs(*jobs);
    } else if (!std::strcmp(argv[i], "--timeout")) {
      const char* value = need_value(i);
      char* end = nullptr;
      options.default_timeout_seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' ||
          !(options.default_timeout_seconds > 0.0)) {
        std::fprintf(stderr,
                     "invalid --timeout '%s' (must be positive seconds)\n",
                     value);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--cache-dir")) {
      cache_dir = need_value(i);
      if (cache_dir.empty()) {
        std::fprintf(stderr, "--cache-dir requires a non-empty directory\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--listen")) {
      server_options.unix_path = need_value(i);
      listen_unix = true;
    } else if (!std::strcmp(argv[i], "--listen-tcp")) {
      const char* value = need_value(i);
      const auto addr = net::parse_tcp_address(value);
      if (!addr) {
        std::fprintf(stderr,
                     "invalid --listen-tcp '%s' (expected [HOST:]PORT)\n",
                     value);
        return 2;
      }
      server_options.tcp_host = addr->host;
      server_options.tcp_port = addr->port;
      listen_tcp = true;
    } else if (!std::strcmp(argv[i], "--max-connections")) {
      const char* value = need_value(i);
      const auto n = core::env::parse_positive(value);
      if (!n) {
        std::fprintf(stderr, "invalid --max-connections '%s'\n", value);
        return 2;
      }
      server_options.max_connections = *n;
    } else if (!std::strcmp(argv[i], "--max-inflight")) {
      const char* value = need_value(i);
      const auto n = core::env::parse_positive(value);
      if (!n && std::strcmp(value, "0") != 0) {
        std::fprintf(stderr, "invalid --max-inflight '%s'\n", value);
        return 2;
      }
      options.max_inflight = n.value_or(0);
    } else if (!std::strcmp(argv[i], "--max-queue-depth")) {
      const char* value = need_value(i);
      const auto n = core::env::parse_positive(value);
      if (!n && std::strcmp(value, "0") != 0) {
        std::fprintf(stderr, "invalid --max-queue-depth '%s'\n", value);
        return 2;
      }
      options.max_queue_depth = static_cast<std::int64_t>(n.value_or(0));
    } else if (!std::strcmp(argv[i], "--neg-ttl")) {
      const char* value = need_value(i);
      char* end = nullptr;
      options.negative_ttl_seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || options.negative_ttl_seconds < 0.0) {
        std::fprintf(stderr,
                     "invalid --neg-ttl '%s' (must be >= 0 seconds)\n", value);
        return 2;
      }
      neg_ttl_set = true;
    } else if (!std::strcmp(argv[i], "--metrics-out")) {
      metrics_out = need_value(i);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      print_usage(stderr, argv[0]);
      return 2;
    }
  }
  // Explicit --cache-dir wins over $SPIV_CACHE_DIR (resolve_store).
  options.store = verify::resolve_store(cache_dir);

  if (!listen_unix && !listen_tcp) {
    // Classic batch mode, byte-identical to the pre-network service.
    const int errors = service::serve(std::cin, std::cout, options);
    return errors == 0 ? 0 : 1;
  }

  // Network defaults diverge from stdin on purpose: a long-lived server
  // wants negative caching ($SPIV_NEG_TTL overrides, flag wins over both).
  if (!neg_ttl_set)
    options.negative_ttl_seconds = core::env::negative_ttl().value_or(30.0);
  server_options.service = options;
  net::Server server{server_options};
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spiv-serve: %s\n", e.what());
    return 2;
  }
  server.install_signal_handlers();
  if (listen_unix)
    std::fprintf(stderr, "spiv-serve: listening on %s\n",
                 server_options.unix_path.c_str());
  if (listen_tcp)
    std::fprintf(stderr, "spiv-serve: listening on %s:%d\n",
                 server_options.tcp_host.c_str(), server.tcp_port());
  const int errors = server.run();
  if (!metrics_out.empty()) {
    std::ofstream out{metrics_out};
    if (out)
      out << obs::Registry::global().expose() << "\n";
    else
      std::fprintf(stderr, "spiv-serve: cannot write --metrics-out %s\n",
                   metrics_out.c_str());
  }
  std::fprintf(stderr, "spiv-serve: drained (%d request error(s))\n", errors);
  return errors == 0 ? 0 : 1;
}
