// spivbench — the spiv benchmark's own binary (spivbench/run.py calls it).
//
//   spivbench gen --workload W --seed S --reference F --out DIR
//       Seeded inputs: DIR/cases/*.spivcase, DIR/requests.txt (the timed
//       request tails, in dispatch order), DIR/prime.txt (serve-warm's
//       working set) and DIR/workload.txt.
//   spivbench load --socket P --work DIR --reference F --list requests|prime
//                  [--seconds R]
//       Closed-loop load against a running spiv-serve; every verdict is
//       checked against the reference table.  Prints one JSON line.
//   spivbench replay --work DIR --reference F --seconds R [--trace-out F]
//       The traced in-process replay (traced.hpp).  Prints one JSON line.
//   spivbench reference --work DIR --out F
//       Recompute the reference verdict table with verify::run_verify.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "client.hpp"
#include "model/serialize.hpp"
#include "model/switched_pi.hpp"
#include "traced.hpp"
#include "verify/verify.hpp"
#include "workload.hpp"

namespace {

using namespace spivbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ",\"" : "\"") + json_escape(items[i]) + "\"";
  return out + "]";
}

struct Args {
  std::map<std::string, std::string> values;

  [[nodiscard]] const std::string& get(const std::string& name) const {
    const auto it = values.find(name);
    if (it == values.end())
      throw std::invalid_argument("missing --" + name);
    return it->second;
  }
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc)
      throw std::invalid_argument(std::string{"bad argument "} + argv[i]);
    args.values[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  return args;
}

int cmd_gen(const Args& args) {
  const std::vector<GridEntry> reference =
      read_reference(args.get("reference"));
  const std::string workload = args.get("workload");
  const Generated g =
      generate(workload, std::stoull(args.get("seed")), reference);
  write_generated(args.get("out"), workload, g, reference);
  return 0;
}

int cmd_load(const Args& args) {
  const std::string work = args.get("work");
  const Generated g = read_generated(work);
  const ExpectMap expect = expectations(read_reference(args.get("reference")));
  const bool prime = args.get("list") == "prime";
  LoadOptions lo;
  lo.socket_path = args.get("socket");
  lo.tails = prime ? &g.prime : &g.requests;
  lo.expect = &expect;
  lo.connections = g.connections;
  lo.seconds = prime ? 0.0 : std::stod(args.get_or("seconds", "0"));
  lo.cycle = !prime && g.cycle;
  lo.unit = prime ? 1 : g.unit;
  const LoadResult r = run_load(lo);
  const Summary sum = summarize(r, prime ? 1 : g.windows);
  std::printf(
      "{\"attempted\":%llu,\"failed\":%llu,\"completed\":%zu,"
      "\"wall_s\":%.9f,\"throughput_rps\":%.9g,\"p50_ms\":%.6f,"
      "\"p90_ms\":%.6f,\"p99_ms\":%.6f,\"failures\":%s}\n",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), r.samples.size(),
      r.wall_seconds(), sum.throughput_rps, sum.p50_ms, sum.p90_ms,
      sum.p99_ms, json_list(r.failures).c_str());
  return 0;
}

int cmd_replay(const Args& args) {
  const std::string work = std::filesystem::absolute(args.get("work")).string();
  const std::vector<GridEntry> reference = read_reference(
      std::filesystem::absolute(args.get("reference")).string());
  std::string trace_out = args.get_or("trace-out", "");
  if (!trace_out.empty())
    trace_out = std::filesystem::absolute(trace_out).string();
  const Generated g = read_generated(work);
  const ExpectMap expect = expectations(reference);
  // Case paths in the request lines are relative to the work directory.
  std::filesystem::current_path(work);
  ReplayOptions o;
  o.work_dir = work;
  o.requests = &g.requests;
  o.prime = &g.prime;
  o.expect = &expect;
  o.cycle = g.cycle;
  o.use_store = g.use_store;
  o.connections = g.connections;
  o.unit = g.unit;
  o.seconds = std::stod(args.get("seconds"));
  o.trace_out = trace_out;
  const ReplayResult r = run_replay(o);
  std::string metrics = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.9g", r.metrics[i].value);
    metrics += (i ? ",\"" : "\"") + r.metrics[i].name + "\":{\"value\":" +
               value + ",\"unit\":\"" + r.metrics[i].unit + "\"}";
  }
  metrics += "}";
  std::printf(
      "{\"attempted\":%llu,\"failed\":%llu,\"failures\":%s,\"notes\":%s,"
      "\"metrics\":%s}\n",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), json_list(r.failures).c_str(),
      json_list(r.notes).c_str(), metrics.c_str());
  return 0;
}

// serve-cold leaves out every combination whose cold solve takes longer.
constexpr double kMaxColdSeconds = 1.0;

/// Solve every candidate once with verify::run_verify (store off, four
/// requests at a time, like a loaded server), keep the serve-cold entries
/// that finish within kMaxColdSeconds, and write the table.
int cmd_reference(const Args& args) {
  namespace fs = std::filesystem;
  const std::string work = args.get("work");
  std::vector<GridEntry> entries = candidate_grid();
  for (GridEntry& e : eqsmt_entries()) entries.push_back(std::move(e));
  write_cases(work, entries);
  std::map<std::string, spiv::numeric::Matrix> loops;
  for (const GridEntry& e : entries) {
    const std::string id = e.case_name + "/" + std::to_string(e.mode);
    if (loops.count(id)) continue;
    std::ifstream in{fs::path{work} / "cases" / (e.case_name + ".spivcase")};
    const spiv::model::BenchmarkModel bm = spiv::model::read_case(in);
    loops[id] = spiv::model::close_loop_single_mode(
                    bm.plant, bm.controller.gains[e.mode])
                    .a;
  }
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < entries.size();) {
      GridEntry& e = entries[i];
      spiv::verify::VerifyRequest req;
      req.a = loops.at(e.case_name + "/" + std::to_string(e.mode));
      req.method = *spiv::lyap::method_from_string(e.method);
      if (spiv::lyap::is_lmi_method(req.method))
        req.backend = *spiv::sdp::backend_from_string(e.backend);
      req.engine = *spiv::smt::engine_from_string(e.engine);
      req.digits = e.digits;
      req.budget = spiv::verify::SharedBudget{kRequestTimeout};
      const auto t0 = std::chrono::steady_clock::now();
      const spiv::verify::VerifyOutcome out =
          spiv::verify::run_verify(spiv::verify::VerifyContext{}, req);
      e.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      e.key = out.key;
      e.status = spiv::verify::to_string(out.status);
      std::lock_guard<std::mutex> lock(mutex);
      std::fprintf(stderr, "%s %.3f s %s\n", e.tail().c_str(), e.seconds,
                   e.status.c_str());
    }
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  }
  std::vector<GridEntry> kept;
  for (GridEntry& e : entries)
    if (e.set != "cold" || e.seconds <= kMaxColdSeconds)
      kept.push_back(std::move(e));
  write_reference(args.get("out"), kept);
  std::fprintf(stderr, "kept %zu of %zu entries\n", kept.size(),
               candidate_grid().size() + eqsmt_entries().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: spivbench gen|load|replay|reference ...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args = parse(argc, argv);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "load") return cmd_load(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "reference") return cmd_reference(args);
    std::fprintf(stderr, "spivbench: unknown command '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spivbench: %s\n", e.what());
    return 1;
  }
}
