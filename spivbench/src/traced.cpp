#include "traced.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "client.hpp"
#include "lyapunov/synthesis.hpp"
#include "model/serialize.hpp"
#include "model/switched_pi.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "smt/validate.hpp"
#include "store/cert_key.hpp"
#include "store/cert_store.hpp"
#include "verify/verify.hpp"

namespace spivbench {

namespace {

using spiv::verify::Status;

// ------------------------------------------------------------------ spans

enum class Kind : std::uint8_t {
  Request,    // client: send -> result line received
  QueueWait,  // client send -> handler start (parse, admission, pool queue)
  Handler,    // the handler call on the pool worker
  CaseLoad,   // model::read_case + model::close_loop_single_mode
  Key,        // store::request_key
  Lookup,     // CertStore::lookup (+ lookup_negative on a miss)
  Synth,      // lyap::synthesize
  Validate,   // smt::validate_lyapunov
  Insert,     // CertStore::insert
  Format,     // rendering the protocol line
  Respond,    // handler end -> result line received (outbox, poll wake)
  Count
};

constexpr const char* kKindName[] = {
    "request",      "service.queue_wait", "service.handler",
    "model.case_load", "store.key",       "store.lookup",
    "lyapunov.synth",  "smt.validate",    "store.insert",
    "service.format",  "service.respond"};

Kind parent_of(Kind k) {
  switch (k) {
    case Kind::QueueWait:
    case Kind::Handler:
    case Kind::Respond: return Kind::Request;
    default: return Kind::Handler;
  }
}

// Synthesis groups (span label of Kind::Synth).
constexpr const char* kSynthGroups[] = {"numeric", "newton-ac", "fast-ipm",
                                        "short-ipm", "eq-smt"};
// Validation engines (span label of Kind::Validate).
constexpr const char* kEngines[] = {"sylvester", "sympy-gauss", "ldlt",
                                    "smt-cvc5", "smt-z3"};

struct SpanRec {
  std::uint64_t rid = 0;  ///< connection << 32 | session request id
  std::int64_t start = 0;
  std::int64_t end = 0;
  Kind kind = Kind::Request;
  std::uint8_t label = 0;
};

/// Per-solve split of one eq-smt synthesis, from the deltas of the
/// exact solver's own histograms and counters around lyap::synthesize.
struct ExactSample {
  double elim = 0, crt = 0, reconstruct = 0, verify = 0, synth = 0;
  double primes = 0, unlucky = 0;
};

class ExactProbe {
 public:
  ExactProbe() { snapshot(before_); }

  /// The sample, or nullopt when another modular solve overlapped this
  /// one (the global histograms then hold both).
  std::optional<ExactSample> finish(double synth_seconds) {
    State after;
    snapshot(after);
    for (std::size_t i = 0; i < 4; ++i)
      if (after.count[i] - before_.count[i] != 1) return std::nullopt;
    ExactSample s;
    s.elim = after.sum[0] - before_.sum[0];
    s.crt = after.sum[1] - before_.sum[1];
    s.reconstruct = after.sum[2] - before_.sum[2];
    s.verify = after.sum[3] - before_.sum[3];
    s.primes = static_cast<double>(after.primes - before_.primes);
    s.unlucky = static_cast<double>(after.unlucky - before_.unlucky);
    s.synth = synth_seconds;
    return s;
  }

 private:
  struct State {
    std::uint64_t count[4] = {};
    double sum[4] = {};
    std::uint64_t primes = 0, unlucky = 0;
  };
  static void snapshot(State& s) {
    auto& r = spiv::obs::Registry::global();
    static spiv::obs::Histogram* h[4] = {
        &r.histogram("spiv_modular_elim_seconds"),
        &r.histogram("spiv_modular_crt_seconds"),
        &r.histogram("spiv_modular_reconstruct_seconds"),
        &r.histogram("spiv_modular_verify_seconds")};
    static spiv::obs::Counter& primes =
        r.counter("spiv_modular_primes_used_total");
    static spiv::obs::Counter& unlucky =
        r.counter("spiv_modular_unlucky_primes_total");
    for (std::size_t i = 0; i < 4; ++i) {
      s.count[i] = h[i]->count();
      s.sum[i] = h[i]->sum_seconds();
    }
    s.primes = primes.value();
    s.unlucky = unlucky.value();
  }
  State before_;
};

/// Outcome bookkeeping of one handler call (committed with its spans).
struct CallStats {
  std::optional<ExactSample> exact;
  bool looked_up = false, hit = false, validated = false, valid = false;
};

/// Everything one pass records.  Handlers append under the mutex once per
/// request; nothing is written to disk until the pass ends.
struct Tracer {
  std::atomic<bool> on{false};
  std::mutex mutex;
  std::vector<SpanRec> spans;
  std::vector<ExactSample> exact;
  std::uint64_t lookups = 0, hits = 0, validations = 0, valid = 0;

  void commit(const std::vector<SpanRec>& local, const CallStats& call) {
    std::lock_guard<std::mutex> lock(mutex);
    spans.insert(spans.end(), local.begin(), local.end());
    if (call.exact) exact.push_back(*call.exact);
    lookups += call.looked_up;
    hits += call.hit;
    validations += call.validated;
    valid += call.valid;
  }
};

/// Span list of one handler call.
struct Recorder {
  bool on = false;
  std::uint64_t rid = 0;
  std::vector<SpanRec> spans;
};

class Span {
 public:
  Span(Recorder& r, Kind kind, std::uint8_t label = 0)
      : r_(r), kind_(kind), label_(label), start_(r.on ? now_ns() : 0) {}
  ~Span() {
    if (r_.on) r_.spans.push_back({r_.rid, start_, now_ns(), kind_, label_});
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder& r_;
  Kind kind_;
  std::uint8_t label_;
  std::int64_t start_;
};

std::uint8_t synth_group(const spiv::service::Request& req) {
  using spiv::lyap::Method;
  if (req.method == Method::EqSmt) return 4;
  if (!spiv::lyap::is_lmi_method(req.method)) return 0;
  switch (req.backend.value_or(spiv::sdp::Backend::NewtonAnalyticCenter)) {
    case spiv::sdp::Backend::NewtonAnalyticCenter: return 1;
    case spiv::sdp::Backend::FastInteriorPoint: return 2;
    case spiv::sdp::Backend::ShortStepBarrier: return 3;
  }
  return 1;
}

std::uint8_t engine_index(spiv::smt::Engine e) {
  const std::string name = spiv::smt::to_string(e);
  for (std::uint8_t i = 0; i < std::size(kEngines); ++i)
    if (name == kEngines[i]) return i;
  return 0;
}

std::string format_line(const spiv::service::Request& req, Status status,
                        spiv::verify::Cache cache, const std::string& key,
                        const std::string& model, const std::string& msg,
                        bool timings, double synth_s, double validate_s) {
  std::ostringstream os;
  os << "result id=" << req.id << " status=" << spiv::verify::to_string(status)
     << " cache=" << spiv::verify::to_string(cache)
     << " key=" << (key.empty() ? "-" : key)
     << " model=" << (model.empty() ? "-" : model) << " mode=" << req.mode
     << " method=" << spiv::lyap::to_string(req.method) << " backend="
     << (req.backend ? spiv::sdp::to_string(*req.backend) : "-")
     << " engine=" << spiv::smt::to_string(req.engine)
     << " digits=" << req.digits;
  if (timings)
    os << std::setprecision(17) << " synth_seconds=" << synth_s
       << " validate_seconds=" << validate_s;
  if (!msg.empty()) os << " msg=" << msg;
  return os.str();
}

/// The pipeline of service::default_handler + verify::run_verify, one
/// layer call at a time, each inside a benchmark span.
spiv::service::Response pipeline(Recorder& rec, CallStats& stats,
                                 const spiv::service::Request& req,
                                 spiv::store::CertStore* store,
                                 double negative_ttl,
                                 const spiv::CancelToken& token) {
  namespace lyap = spiv::lyap;
  namespace store_ns = spiv::store;
  Status status = Status::Error;
  auto cache = store ? spiv::verify::Cache::Miss : spiv::verify::Cache::Off;
  std::string key, model_name, msg;
  bool timings = false;
  double synth_s = 0.0, validate_s = 0.0;

  spiv::numeric::Matrix a;
  bool loaded = false;
  {
    Span span{rec, Kind::CaseLoad};
    std::ifstream in{req.case_file};
    if (!in) {
      msg = "cannot open case file " + req.case_file;
    } else {
      try {
        const spiv::model::BenchmarkModel bm = spiv::model::read_case(in);
        model_name = bm.name;
        if (req.mode < bm.controller.num_modes()) {
          a = spiv::model::close_loop_single_mode(
                  bm.plant, bm.controller.gains[req.mode])
                  .a;
          loaded = true;
        } else {
          msg = "mode out of range";
        }
      } catch (const std::exception& e) {
        msg = std::string{"case parse failed: "} + e.what();
      }
    }
  }
  if (loaded) {
    lyap::SynthesisOptions options;
    if (req.backend) options.backend = *req.backend;
    {
      Span span{rec, Kind::Key};
      store_ns::CertRequest creq;
      creq.a = a;
      creq.method = req.method;
      creq.backend = req.backend;
      creq.engine = req.engine;
      creq.digits = req.digits;
      creq.set_synthesis_params(options);
      key = store_ns::request_key(creq);
    }
    std::shared_ptr<const store_ns::CertRecord> cached;
    std::optional<store_ns::NegativeEntry> negative;
    if (store) {
      Span span{rec, Kind::Lookup};
      stats.looked_up = true;
      cached = store->lookup(key);
      if (!cached && negative_ttl > 0.0)
        negative = store->lookup_negative(key, req.timeout_seconds);
    }
    if (cached) {
      stats.hit = true;
      cache = spiv::verify::Cache::Hit;
      status = cached->validation.valid() ? Status::Valid : Status::Invalid;
      timings = true;
      synth_s = cached->candidate.synth_seconds;
      validate_s = cached->validation.seconds();
    } else if (negative) {
      cache = spiv::verify::Cache::NegativeHit;
      status = negative->reason == "synth-failed" ? Status::SynthFailed
                                                  : Status::Timeout;
    } else {
      const spiv::Deadline deadline =
          spiv::Deadline::after_seconds(req.timeout_seconds, token);
      options.deadline = deadline;
      // run_verify's negative tier: failures are remembered for the TTL.
      const auto remember = [&](const char* reason, double budget) {
        if (store && negative_ttl > 0.0)
          store->insert_negative(key, reason, budget, negative_ttl);
      };
      std::optional<lyap::Candidate> candidate;
      try {
        Span span{rec, Kind::Synth, synth_group(req)};
        std::optional<ExactProbe> probe;
        if (req.method == lyap::Method::EqSmt) probe.emplace();
        candidate = lyap::synthesize(a, req.method, options);
        if (probe && candidate)
          stats.exact = probe->finish(candidate->synth_seconds);
      } catch (const spiv::TimeoutError&) {
        status = Status::Timeout;
        remember("timeout-synthesis", req.timeout_seconds);
      } catch (const std::exception& e) {
        msg = std::string{"synthesis failed: "} + e.what();
      }
      if (candidate) {
        spiv::smt::CheckOptions check;
        check.deadline = deadline;
        try {
          spiv::smt::LyapunovValidation v;
          {
            Span span{rec, Kind::Validate, engine_index(req.engine)};
            v = spiv::smt::validate_lyapunov(a, candidate->p, req.engine,
                                             req.digits, check);
          }
          stats.validated = true;
          stats.valid = v.valid();
          timings = true;
          synth_s = candidate->synth_seconds;
          validate_s = v.seconds();
          if (v.positivity.outcome == spiv::smt::Outcome::Timeout ||
              v.decrease.outcome == spiv::smt::Outcome::Timeout) {
            status = Status::Timeout;
            remember("timeout-validation", req.timeout_seconds);
          } else {
            status = v.valid() ? Status::Valid : Status::Invalid;
            if (store) {
              Span span{rec, Kind::Insert};
              store->insert(key, store_ns::CertRecord{*candidate, v});
            }
          }
        } catch (const spiv::TimeoutError&) {
          status = Status::Timeout;
          remember("timeout-validation", req.timeout_seconds);
        } catch (const std::exception& e) {
          msg = std::string{"validation failed: "} + e.what();
        }
      } else if (msg.empty() && status != Status::Timeout) {
        status = Status::SynthFailed;
        remember("synth-failed", 0.0);
      }
    }
  }
  if (!msg.empty()) {
    status = Status::Error;
    cache = spiv::verify::Cache::Off;
  }
  Span span{rec, Kind::Format};
  return {status, format_line(req, status, cache, key, model_name, msg,
                              timings, synth_s, validate_s)};
}

spiv::service::Response traced_handle(Tracer& tracer,
                                      const spiv::service::Request& req,
                                      spiv::store::CertStore* store,
                                      double negative_ttl,
                                      const spiv::CancelToken& token) {
  Recorder rec;
  rec.on = tracer.on.load(std::memory_order_relaxed);
  // The connection's deadline cap is the request's budget (client.hpp).
  const auto conn = static_cast<std::uint64_t>(
      std::lround(req.timeout_seconds) - kDeadlineBase);
  rec.rid = conn << 32 | static_cast<std::uint64_t>(req.id);
  CallStats stats;
  spiv::service::Response response;
  {
    Span handler{rec, Kind::Handler};
    response = pipeline(rec, stats, req, store, negative_ttl, token);
  }
  if (rec.on) tracer.commit(rec.spans, stats);
  return response;
}

// ------------------------------------------------------------------ passes

double process_cpu_seconds() {
  std::ifstream in{"/proc/self/stat"};
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream is{text.substr(close + 2)};
  std::string skip;
  for (int i = 3; i < 14; ++i) is >> skip;
  double utime = 0, stime = 0;
  is >> utime >> stime;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// The worker count run.py starts spiv-serve with.
constexpr std::size_t kServerJobs = 4;

struct Pass {
  LoadResult load;
  std::vector<SpanRec> spans;
  std::vector<ExactSample> exact;
  std::uint64_t lookups = 0, hits = 0, validations = 0, valid = 0;
  double server_cpu_seconds = 0.0;
  std::uint64_t prime_attempted = 0;
  std::uint64_t prime_failed = 0;
  std::vector<std::string> prime_failures;
};

Pass run_pass(const ReplayOptions& o, bool traced, const std::string& tag) {
  namespace fs = std::filesystem;
  Tracer tracer;
  std::unique_ptr<spiv::store::CertStore> store;
  if (o.use_store) {
    const fs::path dir = fs::path{o.work_dir} / ("store-" + tag);
    fs::remove_all(dir);
    store = std::make_unique<spiv::store::CertStore>(dir.string());
  }
  const std::string socket = (fs::path{o.work_dir} / (tag + ".sock")).string();
  fs::remove(socket);
  spiv::net::ServerOptions so;
  so.unix_path = socket;
  so.service.jobs = kServerJobs;
  so.service.store = store.get();
  // spiv-serve's network-mode default.
  so.service.negative_ttl_seconds = 30.0;
  so.service.handler = [&tracer](const spiv::service::Request& req,
                                 spiv::store::CertStore* s, double ttl,
                                 const spiv::CancelToken& token) {
    return traced_handle(tracer, req, s, ttl, token);
  };
  spiv::net::Server server{so};
  server.start();
  std::jthread loop{[&server] { (void)server.run(); }};

  Pass pass;
  LoadOptions lo;
  lo.socket_path = socket;
  lo.expect = o.expect;
  lo.connections = o.connections;
  if (o.prime && !o.prime->empty()) {
    lo.tails = o.prime;
    const LoadResult primed = run_load(lo);
    pass.prime_attempted = primed.attempted;
    pass.prime_failed = primed.failed;
    pass.prime_failures = primed.failures;
  }
  lo.tails = o.requests;
  lo.seconds = o.seconds;
  lo.cycle = o.cycle;
  lo.unit = o.unit;
  tracer.on.store(traced);
  const double cpu0 = process_cpu_seconds();
  pass.load = run_load(lo);
  pass.server_cpu_seconds =
      process_cpu_seconds() - cpu0 - pass.load.client_cpu_seconds;
  tracer.on.store(false);
  server.request_drain();
  loop.join();
  fs::remove(socket);
  if (store) fs::remove_all(store->directory());
  pass.spans = std::move(tracer.spans);
  pass.exact = std::move(tracer.exact);
  pass.lookups = tracer.lookups;
  pass.hits = tracer.hits;
  pass.validations = tracer.validations;
  pass.valid = tracer.valid;
  return pass;
}

// ----------------------------------------------------------------- metrics

std::string request_name(std::uint64_t rid) {
  return "c" + std::to_string(rid >> 32) + "-" +
         std::to_string(rid & 0xffffffffu);
}

// Requests whose spans go to the JSONL file (the first to complete); the
// metrics use every span.  Keeps a traced serve-warm run's file near 20 MB.
constexpr std::size_t kTraceFileRequests = 20000;

void write_jsonl(const std::string& path, const Pass& pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace " + path);
  const std::int64_t t0 = pass.load.start_ns;
  const auto emit = [&](Kind kind, std::uint64_t rid, std::int64_t start,
                        std::int64_t end, int label) {
    std::fprintf(f, "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,",
                 kKindName[static_cast<int>(kind)],
                 static_cast<long long>(start - t0),
                 static_cast<long long>(end - t0));
    if (kind == Kind::Request)
      std::fprintf(f, "\"parent\":null,");
    else
      std::fprintf(f, "\"parent\":\"%s\",",
                   kKindName[static_cast<int>(parent_of(kind))]);
    if (kind == Kind::Synth)
      std::fprintf(f, "\"label\":\"%s\",", kSynthGroups[label]);
    else if (kind == Kind::Validate)
      std::fprintf(f, "\"label\":\"%s\",", kEngines[label]);
    std::fprintf(f, "\"request\":\"%s\"}\n", request_name(rid).c_str());
  };
  std::unordered_map<std::uint64_t, const SpanRec*> handlers;
  for (const SpanRec& s : pass.spans)
    if (s.kind == Kind::Handler) handlers[s.rid] = &s;
  std::unordered_map<std::uint64_t, bool> written;
  for (const Sample& s : pass.load.samples) {
    if (written.size() == kTraceFileRequests) break;
    const std::uint64_t rid = std::uint64_t{s.conn} << 32 | s.seq;
    written[rid] = true;
    emit(Kind::Request, rid, s.send_ns, s.recv_ns, 0);
    const auto h = handlers.find(rid);
    if (h == handlers.end()) continue;
    emit(Kind::QueueWait, rid, s.send_ns, h->second->start, 0);
    emit(Kind::Respond, rid, h->second->end, s.recv_ns, 0);
  }
  for (const SpanRec& s : pass.spans)
    if (written.count(s.rid)) emit(s.kind, s.rid, s.start, s.end, s.label);
  const bool ok = std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("cannot write trace " + path);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

ReplayResult run_replay(const ReplayOptions& o) {
  ReplayResult out;
  const Pass plain = run_pass(o, /*traced=*/false, "untraced");
  const Pass traced = run_pass(o, /*traced=*/true, "traced");
  for (const Pass* p : {&plain, &traced}) {
    out.attempted += p->load.attempted + p->prime_attempted;
    out.failed += p->load.failed + p->prime_failed;
    for (const auto* list : {&p->prime_failures, &p->load.failures})
      for (const std::string& f : *list) out.failures.push_back(f);
  }
  if (!o.trace_out.empty()) write_jsonl(o.trace_out, traced);

  // Join the client's request spans with the handler spans.
  std::unordered_map<std::uint64_t, const SpanRec*> handlers;
  for (const SpanRec& s : traced.spans)
    if (s.kind == Kind::Handler) handlers[s.rid] = &s;
  std::vector<double> queue_us, handler_us, respond_us, total_us;
  std::size_t unmatched = 0;
  for (const Sample& s : traced.load.samples) {
    const auto h = handlers.find(std::uint64_t{s.conn} << 32 | s.seq);
    if (h == handlers.end()) {
      ++unmatched;
      continue;
    }
    queue_us.push_back(
        static_cast<double>(h->second->start - s.send_ns) * 1e-3);
    handler_us.push_back(
        static_cast<double>(h->second->end - h->second->start) * 1e-3);
    respond_us.push_back(
        static_cast<double>(s.recv_ns - h->second->end) * 1e-3);
    total_us.push_back(static_cast<double>(s.recv_ns - s.send_ns) * 1e-3);
  }
  if (unmatched > 0) {
    ++out.failed;
    out.failures.push_back(std::to_string(unmatched) +
                           " request span(s) without a handler span");
  }

  std::vector<double> by_kind[static_cast<int>(Kind::Count)];
  std::vector<double> synth_ms[std::size(kSynthGroups)];
  std::vector<double> validate_ms[std::size(kEngines)];
  double handler_total = 0, child_total = 0, synth_total = 0,
         validate_total = 0;
  for (const SpanRec& s : traced.spans) {
    const double us = static_cast<double>(s.end - s.start) * 1e-3;
    by_kind[static_cast<int>(s.kind)].push_back(us);
    if (s.kind == Kind::Handler) {
      handler_total += us;
      continue;
    }
    child_total += us;
    if (s.kind == Kind::Synth) {
      synth_total += us;
      synth_ms[s.label].push_back(us * 1e-3);
    } else if (s.kind == Kind::Validate) {
      validate_total += us;
      validate_ms[s.label].push_back(us * 1e-3);
    }
  }
  const auto p50 = [&](Kind k) { return median(by_kind[static_cast<int>(k)]); };

  std::vector<double> elim, crt, rec, ver, primes, unlucky;
  double phases = 0, exact_synth = 0;
  for (const ExactSample& x : traced.exact) {
    elim.push_back(x.elim);
    crt.push_back(x.crt);
    rec.push_back(x.reconstruct);
    ver.push_back(x.verify);
    primes.push_back(x.primes);
    unlucky.push_back(x.unlucky);
    phases += x.elim + x.crt + x.reconstruct + x.verify;
    exact_synth += x.synth;
  }

  const double q50 = median(queue_us), h50 = median(handler_us),
               r50 = median(respond_us), t50 = median(total_us);
  const double nproc = static_cast<double>(std::thread::hardware_concurrency());
  const double plain_p50 = latency_quantile_ms(plain.load.samples, 0.5);
  const double traced_p50 = latency_quantile_ms(traced.load.samples, 0.5);

  auto& m = out.metrics;
  m.push_back({"service.queue_wait_us.p50", q50, "us"});
  m.push_back({"service.queue_wait_us.p99", quantile(queue_us, 0.99), "us"});
  m.push_back({"service.handler_us.p50", h50, "us"});
  m.push_back({"service.respond_us.p50", r50, "us"});
  m.push_back({"net.round_trip_us.p50", t50, "us"});
  m.push_back({"model.case_load_us.p50", p50(Kind::CaseLoad), "us"});
  m.push_back({"store.key_us.p50", p50(Kind::Key), "us"});
  m.push_back({"store.lookup_us.p50", p50(Kind::Lookup), "us"});
  m.push_back({"store.hit_ratio",
               ratio(static_cast<double>(traced.hits),
                     static_cast<double>(traced.lookups)),
               "ratio"});
  m.push_back({"store.insert_us.p50", p50(Kind::Insert), "us"});
  for (std::size_t i = 0; i < std::size(kSynthGroups); ++i)
    m.push_back({std::string{"lyapunov.synth_ms."} + kSynthGroups[i],
                 median(synth_ms[i]), "ms"});
  m.push_back({"lyapunov.busy_share", ratio(synth_total, handler_total),
               "ratio"});
  for (std::size_t i = 0; i < std::size(kEngines); ++i)
    m.push_back({std::string{"smt.validate_ms."} + kEngines[i],
                 median(validate_ms[i]), "ms"});
  m.push_back({"smt.busy_share", ratio(validate_total, handler_total),
               "ratio"});
  m.push_back({"smt.valid_ratio",
               ratio(static_cast<double>(traced.valid),
                     static_cast<double>(traced.validations)),
               "ratio"});
  m.push_back({"exact.elim_s", median(elim), "s"});
  m.push_back({"exact.crt_s", median(crt), "s"});
  m.push_back({"exact.reconstruct_s", median(rec), "s"});
  m.push_back({"exact.verify_s", median(ver), "s"});
  m.push_back({"exact.primes_used", median(primes), "count"});
  m.push_back({"exact.unlucky_primes", median(unlucky), "count"});
  m.push_back({"exact.phase_share", ratio(phases, exact_synth), "ratio"});
  m.push_back({"core.cpu_util",
               ratio(plain.server_cpu_seconds,
                     plain.load.wall_seconds() * nproc),
               "ratio"});
  m.push_back({"trace.coverage_ratio", ratio(child_total, handler_total),
               "ratio"});
  m.push_back({"trace.overhead_ratio", ratio(traced_p50, plain_p50), "ratio"});
  m.push_back({"trace.stage_sum_ratio", ratio(q50 + h50 + r50, t50), "ratio"});

  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  std::ostringstream breakdown;
  breakdown << "mean request breakdown: queue wait " << mean(queue_us)
            << " + handler " << mean(handler_us) << " + respond "
            << mean(respond_us) << " = round trip " << mean(total_us)
            << " us";
  out.notes.push_back(breakdown.str());
  std::ostringstream notes;
  notes << "untraced pass: " << plain.load.samples.size()
        << " requests in " << plain.load.wall_seconds()
        << " s; traced pass: " << traced.load.samples.size()
        << " requests in " << traced.load.wall_seconds() << " s, "
        << traced.spans.size() << " handler-side spans, "
        << traced.exact.size() << " exact solve sample(s)";
  out.notes.push_back(notes.str());
  return out;
}

}  // namespace spivbench
