#include "client.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <thread>

#include "net/client.hpp"

namespace spivbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Value of `name=` in a protocol line ("" when absent).
std::string field(const std::string& line, const std::string& name) {
  const std::string needle = " " + name + "=";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t from = at + needle.size();
  const std::size_t to = line.find(' ', from);
  return line.substr(from, to == std::string::npos ? std::string::npos
                                                   : to - from);
}

struct Shared {
  explicit Shared(const LoadOptions& o) : options(o) {}

  const LoadOptions& options;
  std::atomic<std::size_t> cursor{0};
  std::int64_t stop_ns = 0;
  std::int64_t unit_start_ns = 0;  // written only when unit > 1
  std::mutex mutex;  // guards everything below
  LoadResult result;

  void fail(std::string what) {
    std::lock_guard<std::mutex> lock(mutex);
    ++result.failed;
    if (result.failures.size() < 8) result.failures.push_back(std::move(what));
  }
};

/// Next request tail, or nullptr when the run is over.
const std::string* next_tail(Shared& shared) {
  const LoadOptions& o = shared.options;
  const std::size_t i = shared.cursor.fetch_add(1, std::memory_order_relaxed);
  if (o.seconds > 0.0 && i % o.unit == 0) {
    const std::int64_t now = now_ns();
    std::int64_t last_unit = 0;
    if (o.unit > 1) {
      // Units of several requests run on one connection (workload.hpp).
      if (i > 0) last_unit = now - shared.unit_start_ns;
      shared.unit_start_ns = now;
    }
    if (now + last_unit >= shared.stop_ns) return nullptr;
  }
  if (i < o.tails->size()) return &(*o.tails)[i];
  if (!o.cycle || o.tails->empty()) return nullptr;
  return &(*o.tails)[i % o.tails->size()];
}

void connection_loop(Shared& shared, spiv::net::Client& client,
                     std::uint32_t conn, std::vector<Sample>& samples) {
  std::uint32_t seq = 0;
  std::uint64_t attempted = 0;
  while (const std::string* tail = next_tail(shared)) {
    ++attempted;
    Sample s;
    s.conn = conn;
    s.seq = ++seq;
    s.send_ns = now_ns();
    if (!client.send_line("verify " + *tail)) {
      shared.fail("send failed: " + client.error());
      break;
    }
    std::optional<std::string> line;
    while ((line = client.recv_line()) && line->rfind("queued ", 0) == 0) {
    }
    s.recv_ns = now_ns();
    if (!line) {
      shared.fail("connection closed awaiting: " + *tail);
      break;
    }
    const auto want = shared.options.expect->find(*tail);
    if (line->rfind("result ", 0) != 0) {
      shared.fail("'" + *line + "' for: " + *tail);
    } else if (want == shared.options.expect->end()) {
      shared.fail("no reference verdict for: " + *tail);
    } else if (field(*line, "key") != want->second.key ||
               field(*line, "status") != want->second.status) {
      shared.fail("expected key=" + want->second.key + " status=" +
                  want->second.status + ", got '" + *line + "'");
    } else {
      s.ok = true;
    }
    samples.push_back(s);
  }
  std::lock_guard<std::mutex> lock(shared.mutex);
  shared.result.attempted += attempted;
}

}  // namespace

LoadResult run_load(const LoadOptions& options) {
  Shared shared{options};
  const std::size_t n = options.connections;
  std::vector<spiv::net::Client> clients(n);
  for (std::size_t c = 0; c < n; ++c) {
    if (!clients[c].connect_unix(options.socket_path)) {
      shared.fail("connect " + options.socket_path + ": " + clients[c].error());
      return std::move(shared.result);
    }
    const std::string cap = std::to_string(kDeadlineBase + c);
    if (!clients[c].send_line("deadline " + cap)) {
      shared.fail("send failed: " + clients[c].error());
      return std::move(shared.result);
    }
    const auto ack = clients[c].recv_line();
    if (!ack || *ack != "ok deadline=" + cap) {
      shared.fail("deadline not acknowledged: " + ack.value_or("<eof>"));
      return std::move(shared.result);
    }
  }
  std::vector<std::vector<Sample>> per_conn(n);
  std::vector<double> cpu(n, 0.0);
  shared.result.start_ns = now_ns();
  shared.stop_ns = shared.result.start_ns +
                   static_cast<std::int64_t>(options.seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < n; ++c)
      threads.emplace_back([&, c] {
        const double cpu0 = thread_cpu_seconds();
        connection_loop(shared, clients[c], static_cast<std::uint32_t>(c),
                        per_conn[c]);
        cpu[c] = thread_cpu_seconds() - cpu0;
      });
  }
  LoadResult result = std::move(shared.result);
  for (const auto& v : per_conn) {
    result.samples.insert(result.samples.end(), v.begin(), v.end());
    for (const Sample& s : v)
      result.end_ns = std::max(result.end_ns, s.recv_ns);
  }
  if (result.end_ns == 0) result.end_ns = now_ns();
  std::sort(result.samples.begin(), result.samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.recv_ns < b.recv_ns;
            });
  for (double c : cpu) result.client_cpu_seconds += c;
  return result;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t k = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double latency_quantile_ms(const std::vector<Sample>& samples, double q) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Sample& s : samples)
    ms.push_back(static_cast<double>(s.recv_ns - s.send_ns) * 1e-6);
  return quantile(std::move(ms), q);
}

}  // namespace spivbench

namespace spivbench {

Summary summarize(const LoadResult& r, std::size_t windows) {
  const std::int64_t span = std::max<std::int64_t>(1, r.end_ns - r.start_ns);
  const std::size_t k = std::max<std::size_t>(1, windows);
  std::vector<std::vector<Sample>> slices(k);
  for (const Sample& s : r.samples) {
    const auto at = static_cast<std::size_t>(
        (s.send_ns - r.start_ns) * static_cast<std::int64_t>(k) / span);
    slices[std::min(at, k - 1)].push_back(s);
  }
  const double slice_seconds = static_cast<double>(span) * 1e-9 / k;
  std::vector<double> rps, p50, p90, p99;
  for (const auto& slice : slices) {
    rps.push_back(static_cast<double>(slice.size()) / slice_seconds);
    p50.push_back(latency_quantile_ms(slice, 0.50));
    p90.push_back(latency_quantile_ms(slice, 0.90));
    p99.push_back(latency_quantile_ms(slice, 0.99));
  }
  return {*std::max_element(rps.begin(), rps.end()),
          *std::min_element(p50.begin(), p50.end()),
          *std::min_element(p90.begin(), p90.end()),
          *std::min_element(p99.begin(), p99.end())};
}

}  // namespace spivbench
