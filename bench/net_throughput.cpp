// Networked-service throughput/latency sweep → BENCH_net.json.
//
// Starts an in-process net::Server on a unix-domain socket and hammers it
// with N synchronous client connections (one thread each, request →
// response, no pipelining — the per-request latency IS the SLO a caller
// sees).  Two cache regimes per connection count:
//
//   cold — no certificate store: every request runs the full synthesis +
//          validation pipeline, so the row measures transport + compute.
//   warm — store enabled and pre-warmed with the one benchmark key: every
//          request is a memory-tier hit, so the row isolates the transport
//          and event-loop overhead.
//
// Rows carry throughput (requests/s) and p50/p90/p99 latency so the perf
// trajectory catches both regressions in the verify pipeline (cold) and
// in the socket path itself (warm).
//
// Knobs (on top of bench_common.hpp's environment protocol):
//   SPIV_NET_CONNECTIONS=1,4,32 — connection counts to sweep
//   SPIV_NET_REQUESTS=16        — requests per connection per row
//   SPIV_QUICK=1                — {1,4} connections, 6 requests each
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/format.hpp"
#include "model/reduction.hpp"
#include "model/serialize.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "store/cert_store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Row {
  std::size_t connections = 0;
  std::string mode;  // "cold" | "warm"
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t errors = 0;
  double wall_seconds = 0.0;
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0;

  [[nodiscard]] double throughput_rps() const {
    return wall_seconds > 0.0 ? static_cast<double>(ok) / wall_seconds : 0.0;
  }
};

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// One synchronous worker: `requests` round trips, latencies in seconds.
void run_client(const std::string& socket_path, const std::string& line,
                std::size_t requests, std::vector<double>& latencies,
                std::size_t& ok, std::size_t& shed, std::size_t& errors) {
  spiv::net::Client client;
  if (!client.connect_unix(socket_path)) {
    errors += requests;
    return;
  }
  for (std::size_t i = 0; i < requests; ++i) {
    const auto t0 = Clock::now();
    if (!client.send_line(line)) {
      errors += requests - i;
      break;
    }
    bool settled = false;
    while (auto reply = client.recv_line()) {
      if (reply->rfind("queued", 0) == 0) continue;
      if (reply->rfind("result ", 0) == 0)
        ++ok;
      else if (reply->rfind("busy", 0) == 0)
        ++shed;
      else
        ++errors;
      settled = true;
      break;
    }
    if (!settled) {
      errors += requests - i;
      break;
    }
    latencies.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  client.close();
}

Row run_row(const std::string& socket_path, const std::string& line,
            std::size_t connections, std::size_t requests,
            const std::string& mode) {
  Row row;
  row.connections = connections;
  row.mode = mode;
  row.requests = connections * requests;
  std::vector<std::vector<double>> latencies(connections);
  std::vector<std::size_t> ok(connections, 0), shed(connections, 0),
      errors(connections, 0);
  const auto t0 = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c)
    workers.emplace_back([&, c] {
      run_client(socket_path, line, requests, latencies[c], ok[c], shed[c],
                 errors[c]);
    });
  for (auto& w : workers) w.join();
  row.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> all;
  for (std::size_t c = 0; c < connections; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    row.ok += ok[c];
    row.shed += shed[c];
    row.errors += errors[c];
  }
  std::sort(all.begin(), all.end());
  row.p50_ms = percentile(all, 0.50) * 1e3;
  row.p90_ms = percentile(all, 0.90) * 1e3;
  row.p99_ms = percentile(all, 0.99) * 1e3;
  return row;
}

std::string rows_json(const std::vector<Row>& rows, std::size_t jobs,
                      double wall_seconds) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"experiment\": \"net-throughput\",\n";
  os << "  " << spiv::bench::machine_meta_fields() << ",\n";
  os << "  \"jobs\": " << jobs << ",\n";
  os << "  \"wall_seconds\": " << wall_seconds << ",\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"connections\": " << r.connections << ", \"mode\": \""
       << r.mode << "\", \"requests\": " << r.requests
       << ", \"ok\": " << r.ok << ", \"shed\": " << r.shed
       << ", \"errors\": " << r.errors
       << ", \"wall_seconds\": " << r.wall_seconds
       << ", \"throughput_rps\": " << r.throughput_rps()
       << ", \"p50_ms\": " << r.p50_ms << ", \"p90_ms\": " << r.p90_ms
       << ", \"p99_ms\": " << r.p99_ms << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

/// Scoped server on a fresh unix socket: started on construction, drained
/// and joined on destruction.
struct ScopedServer {
  explicit ScopedServer(spiv::net::ServerOptions options)
      : server(std::move(options)) {
    server.start();
    thread = std::thread([this] { server.run(); });
  }
  ~ScopedServer() {
    server.request_drain();
    if (thread.joinable()) thread.join();
  }
  spiv::net::Server server;
  std::thread thread;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_path = spiv::bench::metrics_out_path(argc, argv);
  const bool quick = spiv::bench::env_flag("SPIV_QUICK");
  const std::vector<std::size_t> counts = spiv::bench::env_size_list(
      "SPIV_NET_CONNECTIONS", quick ? std::vector<std::size_t>{1, 4}
                                    : std::vector<std::size_t>{1, 2, 4, 8, 16,
                                                               32});
  const std::size_t requests = static_cast<std::size_t>(spiv::bench::env_double(
      "SPIV_NET_REQUESTS", quick ? 6.0 : 16.0));
  const std::size_t jobs = spiv::core::env::jobs().value_or(
      std::max(1u, std::thread::hardware_concurrency()));

  namespace fs = std::filesystem;
  const fs::path scratch =
      fs::temp_directory_path() /
      ("spiv_net_bench_" + std::to_string(::getpid()));
  fs::create_directories(scratch);

  // Export the smallest family case once; every request verifies it with
  // the paper's default pipeline (LMIa / newton-ac / sylvester eq engine).
  const auto& family = spiv::model::benchmark_family();
  const fs::path case_path = scratch / (family.front().name + ".spivcase");
  {
    std::ofstream out{case_path};
    spiv::model::write_case(out, family.front());
  }
  const std::string verify_line = "verify " + case_path.string() +
                                  " 0 LMIa newton-ac sylvester 10 30";

  std::vector<Row> rows;
  const auto bench_t0 = Clock::now();
  for (const std::size_t connections : counts) {
    for (const char* mode : {"cold", "warm"}) {
      const bool warm = std::string{mode} == "warm";
      const fs::path store_dir = scratch / ("store_" + std::string{mode} +
                                            std::to_string(connections));
      spiv::store::CertStore store{store_dir.string()};
      spiv::net::ServerOptions options;
      const std::string socket_path =
          (scratch / ("sock_" + std::to_string(connections) + mode)).string();
      options.unix_path = socket_path;
      options.max_connections = connections + 4;
      options.service.jobs = jobs;
      options.service.store = warm ? &store : nullptr;
      ScopedServer scoped{std::move(options)};
      if (warm) {
        // One priming round trip so the sweep below is all cache hits.
        std::vector<double> lat;
        std::size_t ok = 0, shed = 0, errors = 0;
        run_client(socket_path, verify_line, 1, lat, ok, shed, errors);
        if (ok != 1)
          std::cerr << "net_throughput: warm priming request failed\n";
      }
      Row row =
          run_row(socket_path, verify_line, connections, requests, mode);
      std::cout << "connections=" << row.connections << " mode=" << row.mode
                << " ok=" << row.ok << " shed=" << row.shed
                << " errors=" << row.errors << " throughput_rps="
                << row.throughput_rps() << " p50_ms=" << row.p50_ms
                << " p99_ms=" << row.p99_ms << "\n";
      rows.push_back(std::move(row));
    }
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - bench_t0).count();

  spiv::core::write_file("BENCH_net.json", rows_json(rows, jobs, wall));
  std::cout << "(" << rows.size() << " row(s) recorded in BENCH_net.json)\n";
  spiv::bench::write_metrics(metrics_path);

  std::error_code ec;
  fs::remove_all(scratch, ec);

  bool clean = true;
  for (const Row& r : rows)
    if (r.errors != 0 || r.ok == 0) clean = false;
  return clean ? 0 : 1;
}
