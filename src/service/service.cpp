#include "service/service.hpp"

#include <chrono>
#include <fstream>
#include <iomanip>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>

#include "model/serialize.hpp"
#include "model/switched_pi.hpp"
#include "obs/span.hpp"

namespace spiv::service {

namespace {

using Status = verify::Status;

/// Serializes whole lines onto the response stream.
class LineWriter {
 public:
  explicit LineWriter(std::ostream& out) : out_(out) {}
  void write(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    out_ << line << "\n" << std::flush;
  }

 private:
  std::ostream& out_;
  std::mutex mutex_;
};

std::string result_prefix(const Request& req) {
  std::ostringstream os;
  os << "result id=" << req.id;
  return os.str();
}

std::string request_fields(const Request& req, const std::string& key,
                           const std::string& model_name) {
  std::ostringstream os;
  os << " key=" << (key.empty() ? "-" : key) << " model="
     << (model_name.empty() ? "-" : model_name) << " mode=" << req.mode
     << " method=" << lyap::to_string(req.method) << " backend="
     << (req.backend ? sdp::to_string(*req.backend) : "-") << " engine="
     << smt::to_string(req.engine) << " digits=" << req.digits;
  return os.str();
}

/// Collapse embedded line breaks (and other control bytes) so a message —
/// e.g. an exception's what() — can never split a protocol line, and trim
/// the trailing whitespace that multi-line messages leave behind.
std::string sanitize_message(const std::string& msg) {
  std::string out = msg;
  for (char& c : out)
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

Response error_outcome(const Request& req, const std::string& msg) {
  return {Status::Error, result_prefix(req) + " status=error cache=off" +
                             request_fields(req, "", "") + " msg=" +
                             sanitize_message(msg)};
}

std::string seconds_field(const char* name, double s) {
  std::ostringstream os;
  os << " " << name << "=" << std::setprecision(17) << s;
  return os.str();
}

/// The per-request adapter: load the case, close the loop, hand the matrix
/// to the verify pipeline (which owns deadlines, cache keys, store access,
/// and outcome classification), and render one protocol line.
Response handle_verify(const Request& req, store::CertStore* store,
                       double negative_ttl_seconds, const CancelToken& token) {
  model::BenchmarkModel bm;
  {
    obs::Span span{"case-load", req.case_file};
    std::ifstream in{req.case_file};
    if (!in)
      return error_outcome(req, "cannot open case file " + req.case_file);
    try {
      bm = model::read_case(in);
    } catch (const std::exception& e) {
      return error_outcome(req, std::string{"case parse failed: "} + e.what());
    }
  }
  if (req.mode >= bm.controller.num_modes()) {
    std::ostringstream os;
    os << "mode " << req.mode << " out of range (case has "
       << bm.controller.num_modes() << " modes)";
    return error_outcome(req, os.str());
  }

  verify::VerifyRequest vreq;
  {
    obs::Span span{"close-loop", bm.name};
    vreq.a =
        model::close_loop_single_mode(bm.plant, bm.controller.gains[req.mode])
            .a;
  }
  vreq.method = req.method;
  vreq.backend = req.backend;
  vreq.engine = req.engine;
  vreq.digits = req.digits;
  // Service semantics: one budget shared by both stages — synthesis
  // consumes from the front and validation gets only the remainder, so a
  // request can never burn more than its declared timeout.
  vreq.budget = verify::SharedBudget{req.timeout_seconds};

  verify::VerifyContext ctx;
  ctx.store = store;
  ctx.token = &token;
  ctx.negative_ttl_seconds = negative_ttl_seconds;
  const verify::VerifyOutcome outcome = verify::run_verify(ctx, vreq);

  if (outcome.status == Status::Error)
    return error_outcome(req, outcome.message);
  std::string line = result_prefix(req) + " status=" +
                     verify::to_string(outcome.status) + " cache=" +
                     verify::to_string(outcome.cache) +
                     request_fields(req, outcome.key, bm.name);
  // Timing fields exist exactly when a candidate does: synthesis timeouts
  // and failures have nothing to report.
  if (outcome.synthesized())
    line += seconds_field("synth_seconds", outcome.synth_seconds) +
            seconds_field("validate_seconds", outcome.validate_seconds);
  return {outcome.status, std::move(line)};
}

/// Parse one `verify` line (after the command token).  Returns an error
/// message, or empty on success.
std::string parse_verify(std::istringstream& is, Request& req) {
  std::string method, backend, engine;
  if (!(is >> req.case_file >> req.mode >> method >> backend >> engine >>
        req.digits))
    return "usage: verify <case-file> <mode> <method> <backend|-> <engine> "
           "<digits> [timeout_s]";
  const auto m = lyap::method_from_string(method);
  if (!m) return "unknown method '" + method + "'";
  req.method = *m;
  if (backend == "-") {
    // LMI methods always run with *some* backend; pin the default one so
    // `LMIa -` and `LMIa newton-ac` share one certificate.
    req.backend = lyap::is_lmi_method(req.method)
                      ? std::optional<sdp::Backend>{
                            sdp::Backend::NewtonAnalyticCenter}
                      : std::nullopt;
  } else {
    const auto b = sdp::backend_from_string(backend);
    if (!b) return "unknown backend '" + backend + "'";
    req.backend = lyap::is_lmi_method(req.method)
                      ? std::optional<sdp::Backend>{*b}
                      : std::nullopt;
  }
  const auto e = smt::engine_from_string(engine);
  if (!e) return "unknown engine '" + engine + "'";
  req.engine = *e;
  if (req.digits < 0) return "digits must be >= 0";
  double timeout = 0.0;
  if (is >> timeout) {
    if (!(timeout > 0.0)) return "timeout must be positive";
    req.timeout_seconds = timeout;
  }
  return "";
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Handler default_handler() {
  return [](const Request& req, store::CertStore* store,
            double negative_ttl_seconds, const CancelToken& token) {
    return handle_verify(req, store, negative_ttl_seconds, token);
  };
}

// ------------------------------------------------------------------ Engine

Engine::Engine(const ServeOptions& options)
    : options_(options),
      pool_(core::resolve_jobs(options.jobs)),
      requests_total_(
          obs::Registry::global().counter("spiv_serve_requests_total")),
      errors_total_(obs::Registry::global().counter("spiv_serve_errors_total")),
      shed_total_(obs::Registry::global().counter("spiv_serve_shed_total")),
      batches_total_(
          obs::Registry::global().counter("spiv_serve_batches_total")),
      inflight_gauge_(obs::Registry::global().gauge("spiv_serve_inflight")),
      request_seconds_(
          obs::Registry::global().histogram("spiv_serve_request_seconds")) {
  if (!options_.handler) options_.handler = default_handler();
  // Pre-register the stage histograms the `metrics` command promises, so a
  // scrape before the first request still sees the full family set.
  for (const char* stage : {"case-load", "close-loop", "synthesis",
                            "validation", "store-lookup", "store-insert"})
    (void)obs::Registry::global().histogram(
        std::string{"spiv_stage_seconds{stage=\""} + stage + "\"}");
}

bool Engine::try_admit() {
  // Checked from the transport thread without a lock: a burst across many
  // sessions can overshoot each bound by at most the number of transport
  // threads (one today) — the bound is a shed threshold, not a hard cap.
  if (options_.max_inflight != 0 &&
      inflight_.load(std::memory_order_relaxed) >=
          static_cast<std::int64_t>(options_.max_inflight))
    return false;
  if (options_.max_queue_depth != 0 &&
      queued_.load(std::memory_order_relaxed) >= options_.max_queue_depth)
    return false;
  queued_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_add(1, std::memory_order_relaxed);
  inflight_gauge_.add(1);
  return true;
}

void Engine::release() {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  inflight_gauge_.sub(1);
}

// ----------------------------------------------------------------- Session

/// Completion bookkeeping for one batch-verify: members resolve from pool
/// threads in any order; the last one emits the batch-done line.
struct Session::Batch {
  std::size_t first = 0;
  std::size_t last = 0;
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> shed{0};
  LineSink sink;
};

Session::Session(Engine& engine, LineSink sink,
                 std::function<void()> on_settled)
    : engine_(engine),
      sink_(std::move(sink)),
      on_settled_(std::move(on_settled)),
      pending_(std::make_shared<std::atomic<std::size_t>>(0)) {}

void Session::resolve_batch_member(const std::shared_ptr<Batch>& batch,
                                   Status status, bool shed) {
  if (!batch) return;
  if (shed)
    batch->shed.fetch_add(1, std::memory_order_relaxed);
  else if (status == Status::Valid || status == Status::Invalid)
    batch->ok.fetch_add(1, std::memory_order_relaxed);
  else
    batch->failed.fetch_add(1, std::memory_order_relaxed);
  if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::ostringstream os;
    os << "batch-done ids=" << batch->first << "-" << batch->last
       << " ok=" << batch->ok.load(std::memory_order_relaxed)
       << " failed=" << batch->failed.load(std::memory_order_relaxed)
       << " shed=" << batch->shed.load(std::memory_order_relaxed);
    batch->sink(os.str());
  }
}

void Session::handle_verify_args(std::istringstream& is,
                                 const std::shared_ptr<Batch>& batch) {
  Request req;
  req.id = next_id_++;
  req.timeout_seconds = engine_.options_.default_timeout_seconds;
  const std::string parse_error = parse_verify(is, req);
  if (!parse_error.empty()) {
    emit(error_outcome(req, parse_error).line);
    engine_.count_error();
    resolve_batch_member(batch, Status::Error, /*shed=*/false);
    return;
  }
  // The session's `deadline` cap rides into the pipeline's BudgetPolicy:
  // the effective SharedBudget is the smaller of the request's own timeout
  // and the per-connection cap.
  if (deadline_cap_ > 0.0 && req.timeout_seconds > deadline_cap_)
    req.timeout_seconds = deadline_cap_;
  if (!engine_.try_admit()) {
    std::ostringstream os;
    os << "busy id=" << req.id << " inflight=" << engine_.inflight()
       << " queue_depth=" << engine_.queued_.load(std::memory_order_relaxed);
    emit(os.str());
    engine_.shed_total_.add();
    resolve_batch_member(batch, Status::Error, /*shed=*/true);
    return;
  }
  engine_.requests_total_.add();
  if (!batch) emit("queued id=" + std::to_string(req.id));
  pending_->fetch_add(1, std::memory_order_release);
  // The job captures everything it touches by value (shared_ptrs for the
  // batch and pending counter): the Session may be destroyed while jobs
  // are in flight, the Engine may not (transports wait_idle before that).
  Engine* engine = &engine_;
  store::CertStore* store = engine_.options_.store;
  const double ttl = engine_.options_.negative_ttl_seconds;
  LineSink sink = sink_;
  auto pending = pending_;
  auto settled = on_settled_;
  const auto t0 = std::chrono::steady_clock::now();
  engine_.pool_.submit([req, engine, store, ttl, sink, pending, batch, settled,
                        t0] {
    engine->queued_.fetch_sub(1, std::memory_order_relaxed);
    Response response;
    try {
      response = engine->options_.handler(req, store, ttl, engine->token_);
    } catch (const std::exception& e) {
      response = error_outcome(req, std::string{"handler failed: "} + e.what());
    }
    if (response.status == Status::Error) engine->count_error();
    engine->request_seconds_.observe(since(t0));
    // Response before bookkeeping: pending() == 0 implies every response
    // line has reached the transport (the drain invariant).
    sink(response.line);
    resolve_batch_member(batch, response.status, /*shed=*/false);
    engine->release();
    pending->fetch_sub(1, std::memory_order_release);
    // After the decrement, so an event loop woken here observes the new
    // pending() — the sink's own wake can fire before the decrement and
    // would otherwise be the only (racy) signal.
    if (settled) settled();
  });
}

Flow Session::handle_command(const std::string& line) {
  std::istringstream is{line};
  std::string command;
  if (!(is >> command) || command[0] == '#') return Flow::Continue;
  if (command == "quit") return Flow::Quit;
  if (command == "wait") {
    if (pending() == 0) {
      emit("idle");
      return Flow::Continue;
    }
    wait_armed_ = true;
    return Flow::Wait;
  }
  if (command == "metrics") {
    // Multi-line Prometheus text exposition, written as one atomic block
    // and terminated by `# EOF` so clients know where the scrape ends.
    emit(obs::Registry::global().expose());
    return Flow::Continue;
  }
  if (command == "stats") {
    std::ostringstream os;
    os << "stats jobs=" << engine_.thread_count();
    if (engine_.options_.store) {
      const store::StoreStats s = engine_.options_.store->stats();
      os << " memory_hits=" << s.memory_hits << " disk_hits=" << s.disk_hits
         << " misses=" << s.misses << " writes=" << s.writes
         << " neg_hits=" << s.negative_hits
         << " neg_writes=" << s.negative_writes
         << " memory_entries=" << s.memory_entries;
    } else {
      os << " store=off";
    }
    emit(os.str());
    return Flow::Continue;
  }
  if (command == "deadline") {
    std::string value;
    if (is >> value) {
      if (value == "off") {
        deadline_cap_ = 0.0;
        emit("ok deadline=off");
        return Flow::Continue;
      }
      char* end = nullptr;
      const double seconds = std::strtod(value.c_str(), &end);
      if (end != value.c_str() && *end == '\0' && seconds > 0.0) {
        deadline_cap_ = seconds;
        emit("ok deadline=" + value);
        return Flow::Continue;
      }
    }
    emit("error deadline requires a positive number of seconds or 'off'");
    engine_.count_error();
    return Flow::Continue;
  }
  if (command == "batch-verify") {
    std::size_t count = 0;
    if (!(is >> count) || count == 0 || count > 4096) {
      emit("error batch-verify requires a member count between 1 and 4096");
      engine_.count_error();
      return Flow::Continue;
    }
    auto batch = std::make_shared<Batch>();
    batch->first = next_id_;
    batch->last = next_id_ + count - 1;
    batch->remaining.store(count, std::memory_order_relaxed);
    batch->sink = sink_;
    open_batch_ = batch;
    batch_to_read_ = count;
    engine_.batches_total_.add();
    std::ostringstream os;
    os << "queued ids=" << batch->first << "-" << batch->last
       << " batch=" << count;
    emit(os.str());
    return Flow::Continue;
  }
  if (command != "verify") {
    emit("error unknown command '" + command + "'");
    engine_.count_error();
    return Flow::Continue;
  }
  handle_verify_args(is, nullptr);
  return Flow::Continue;
}

Flow Session::handle_line(const std::string& line) {
  if (batch_to_read_ > 0) {
    std::istringstream is{line};
    handle_verify_args(is, open_batch_);
    if (--batch_to_read_ == 0) open_batch_.reset();
    return Flow::Continue;
  }
  return handle_command(line);
}

bool Session::poll_wait() {
  if (!wait_armed_) return true;
  if (pending() != 0) return false;
  wait_armed_ = false;
  emit("idle");
  return true;
}

void Session::finish_input() {
  if (!open_batch_ || batch_to_read_ == 0) return;
  std::ostringstream os;
  os << "error batch truncated (" << batch_to_read_
     << " member(s) never arrived)";
  emit(os.str());
  engine_.count_error();
  // Retire the unread members without classifying them, so the members
  // that DID arrive still produce a batch-done line when they land.
  auto batch = open_batch_;
  open_batch_.reset();
  const std::size_t unread = batch_to_read_;
  batch_to_read_ = 0;
  if (batch->remaining.fetch_sub(unread, std::memory_order_acq_rel) ==
      unread) {
    std::ostringstream done;
    done << "batch-done ids=" << batch->first << "-" << batch->last
         << " ok=" << batch->ok.load(std::memory_order_relaxed)
         << " failed=" << batch->failed.load(std::memory_order_relaxed)
         << " shed=" << batch->shed.load(std::memory_order_relaxed);
    batch->sink(done.str());
  }
}

// ---------------------------------------------------------- stdin transport

int serve(std::istream& in, std::ostream& out, const ServeOptions& options) {
  LineWriter writer{out};
  Engine engine{options};
  // serve() waits for the pool before returning, so capturing the local
  // writer by reference is safe — no job outlives this frame.
  Session session{engine, [&writer](const std::string& line) {
                    writer.write(line);
                  }};
  std::string line;
  while (std::getline(in, line)) {
    const Flow flow = session.handle_line(line);
    if (flow == Flow::Quit) break;
    if (flow == Flow::Wait) {
      // stdin keeps the classic semantics: `wait` is a whole-pool barrier
      // and input is not consumed until the pool is idle.
      engine.wait_idle();
      (void)session.poll_wait();
    }
  }
  session.finish_input();
  engine.wait_idle();
  return engine.errors();
}

}  // namespace spiv::service
