// Tests for the verify pipeline layer (src/verify) and its golden parity
// with the spiv-serve protocol: `handle_verify` is a thin adapter over
// `run_verify`, so the service's status/cache/key/timing fields must match
// what the pipeline reports directly — on hit, miss, timeout, synth-failed,
// and error paths alike.
#include "verify/verify.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "model/reduction.hpp"
#include "model/serialize.hpp"
#include "numeric/eigen.hpp"
#include "model/switched_pi.hpp"
#include "service/service.hpp"
#include "store/cert_store.hpp"
#include "tick_clock.hpp"

namespace spiv {
namespace {

namespace fs = std::filesystem;

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) {
      saved_ = old;
      had_ = true;
    }
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

class VerifyPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("spiv_verify_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (const auto& bm : model::benchmark_family())
      if (bm.name == "size3" || bm.name == "size5") {
        std::ofstream out{case_path(bm.name)};
        model::write_case(out, bm);
      }
    ASSERT_TRUE(fs::exists(case_path("size3")));
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string case_path(const std::string& name) const {
    return (dir_ / (name + ".spivcase")).string();
  }

  /// The closed-loop matrix the service derives from the same case.
  [[nodiscard]] static numeric::Matrix closed_a(const std::string& name,
                                                std::size_t mode = 0) {
    for (const auto& bm : model::benchmark_family())
      if (bm.name == name)
        return model::close_loop_single_mode(bm.plant,
                                             bm.controller.gains[mode])
            .a;
    throw std::runtime_error("unknown benchmark " + name);
  }

  /// Drive the protocol and return the full response transcript.
  static std::string drive(const std::string& script,
                           store::CertStore* store) {
    service::ServeOptions options;
    options.jobs = 1;
    options.default_timeout_seconds = 30.0;
    options.store = store;
    std::istringstream in{script};
    std::ostringstream out;
    service::serve(in, out, options);
    return out.str();
  }

  static std::string result_line(const std::string& transcript) {
    std::istringstream is{transcript};
    std::string line;
    while (std::getline(is, line))
      if (line.rfind("result id=", 0) == 0) return line;
    return "";
  }

  /// `name=value` field of a protocol line ("" when absent).
  static std::string field(const std::string& line, const std::string& name) {
    const std::size_t pos = line.find(" " + name + "=");
    if (pos == std::string::npos) return "";
    const std::size_t begin = pos + name.size() + 2;
    const std::size_t end = line.find(' ', begin);
    return line.substr(begin, end == std::string::npos ? end : end - begin);
  }

  /// The service's exact seconds formatting (setprecision(17)).
  static std::string fmt17(double s) {
    std::ostringstream os;
    os << std::setprecision(17) << s;
    return os.str();
  }

  /// Assert the protocol line agrees with a pipeline outcome on every field
  /// both report: status, cache, key, and timing-field presence.
  static void expect_parity(const std::string& line,
                            const verify::VerifyOutcome& res) {
    EXPECT_EQ(field(line, "status"), verify::to_string(res.status)) << line;
    EXPECT_EQ(field(line, "cache"), verify::to_string(res.cache)) << line;
    if (res.status != verify::Status::Error) {
      EXPECT_EQ(field(line, "key"), res.key) << line;
    }
    EXPECT_EQ(!field(line, "synth_seconds").empty(), res.synthesized())
        << line;
    EXPECT_EQ(!field(line, "validate_seconds").empty(), res.synthesized())
        << line;
  }

  fs::path dir_;
};

TEST_F(VerifyPipelineTest, GoldenParityOnMiss) {
  // Independent stores so both runs are cold.
  store::CertStore service_store{(dir_ / "cache_service").string()};
  store::CertStore direct_store{(dir_ / "cache_direct").string()};

  const std::string transcript = drive(
      "verify " + case_path("size3") + " 0 LMIa newton-ac sylvester 10\nquit\n",
      &service_store);
  const std::string line = result_line(transcript);

  verify::VerifyContext ctx;
  ctx.store = &direct_store;
  verify::VerifyRequest req;
  req.a = closed_a("size3");
  req.method = lyap::Method::LmiAlpha;
  req.backend = sdp::Backend::NewtonAnalyticCenter;
  req.engine = smt::Engine::Sylvester;
  req.digits = 10;
  req.budget = verify::SharedBudget{30.0};
  const verify::VerifyOutcome res = verify::run_verify(ctx, req);

  EXPECT_EQ(res.status, verify::Status::Valid);
  EXPECT_EQ(res.cache, verify::Cache::Miss);
  expect_parity(line, res);
}

TEST_F(VerifyPipelineTest, GoldenParityOnHit) {
  store::CertStore store{(dir_ / "cache").string()};

  // Cold run through the pipeline fills the store...
  verify::VerifyContext ctx;
  ctx.store = &store;
  verify::VerifyRequest req;
  req.a = closed_a("size3");
  req.method = lyap::Method::LmiAlpha;
  req.backend = sdp::Backend::NewtonAnalyticCenter;
  req.engine = smt::Engine::Sylvester;
  req.digits = 10;
  req.budget = verify::SharedBudget{30.0};
  const verify::VerifyOutcome cold = verify::run_verify(ctx, req);
  ASSERT_EQ(cold.cache, verify::Cache::Miss);

  // ...then the service and a second direct run both hit the same record.
  const std::string transcript = drive(
      "verify " + case_path("size3") + " 0 LMIa newton-ac sylvester 10\nquit\n",
      &store);
  const std::string line = result_line(transcript);
  const verify::VerifyOutcome warm = verify::run_verify(ctx, req);

  ASSERT_EQ(warm.cache, verify::Cache::Hit);
  expect_parity(line, warm);
  // Hits replay the recorded timings, so the values agree to the bit.
  EXPECT_EQ(field(line, "synth_seconds"), fmt17(warm.synth_seconds)) << line;
  EXPECT_EQ(field(line, "validate_seconds"), fmt17(warm.validate_seconds))
      << line;
  EXPECT_EQ(warm.key, cold.key);
}

TEST_F(VerifyPipelineTest, GoldenParityOnTimeout) {
  // On the tick clock a 1 ms budget is one clock read: the eq-smt
  // synthesis always outlives it.
  ScopedEnv jobs{"SPIV_JOBS", "1"};
  ScopedTickClock clock;
  const std::string transcript = drive(
      "verify " + case_path("size5") + " 0 eq-smt - smt-z3 0 0.001\nquit\n",
      nullptr);
  const std::string line = result_line(transcript);

  verify::VerifyContext ctx;
  verify::VerifyRequest req;
  req.a = closed_a("size5");
  req.method = lyap::Method::EqSmt;
  req.engine = smt::Engine::SmtZ3Style;
  req.digits = 0;
  req.budget = verify::SharedBudget{0.001};
  const verify::VerifyOutcome res = verify::run_verify(ctx, req);

  EXPECT_EQ(res.status, verify::Status::Timeout);
  EXPECT_EQ(res.timeout_stage, verify::Stage::Synthesis);
  EXPECT_EQ(res.cache, verify::Cache::Off);
  expect_parity(line, res);
}

TEST_F(VerifyPipelineTest, GoldenParityOnSynthFailed) {
  // Destabilize the size3 plant: the closed loop has no Lyapunov function,
  // so the LMI is infeasible and synthesis reports synth-failed.
  model::BenchmarkModel bm;
  for (const auto& b : model::benchmark_family())
    if (b.name == "size3") bm = b;
  for (std::size_t i = 0; i < bm.plant.a.rows(); ++i) bm.plant.a(i, i) += 100.0;
  bm.name = "unstable3";
  ASSERT_GT(numeric::spectral_abscissa(model::close_loop_single_mode(
                                           bm.plant, bm.controller.gains[0])
                                           .a),
            0.0)
      << "test plant is supposed to be unstable in closed loop";
  {
    std::ofstream out{case_path("unstable3")};
    model::write_case(out, bm);
  }

  const std::string transcript = drive(
      "verify " + case_path("unstable3") +
          " 0 LMIa newton-ac sylvester 10\nquit\n",
      nullptr);
  const std::string line = result_line(transcript);

  verify::VerifyContext ctx;
  verify::VerifyRequest req;
  req.a = model::close_loop_single_mode(bm.plant, bm.controller.gains[0]).a;
  req.method = lyap::Method::LmiAlpha;
  req.backend = sdp::Backend::NewtonAnalyticCenter;
  req.engine = smt::Engine::Sylvester;
  req.digits = 10;
  req.budget = verify::SharedBudget{30.0};
  const verify::VerifyOutcome res = verify::run_verify(ctx, req);

  EXPECT_EQ(res.status, verify::Status::SynthFailed);
  EXPECT_FALSE(res.synthesized());
  expect_parity(line, res);
}

TEST_F(VerifyPipelineTest, GoldenParityOnError) {
  // Service error: unreadable case file.  Pipeline error: a degenerate
  // request (empty matrix) makes synthesis throw.  Both classify as
  // status=error with caching off.
  const std::string transcript = drive(
      "verify /nonexistent/case 0 LMIa newton-ac sylvester 10\nquit\n",
      nullptr);
  const std::string line = result_line(transcript);

  verify::VerifyContext ctx;
  verify::VerifyRequest req;
  req.a = numeric::Matrix{};
  req.method = lyap::Method::LmiAlpha;
  req.backend = sdp::Backend::NewtonAnalyticCenter;
  const verify::VerifyOutcome res = verify::run_verify(ctx, req);

  EXPECT_EQ(res.status, verify::Status::Error);
  EXPECT_EQ(res.cache, verify::Cache::Off);
  EXPECT_FALSE(res.message.empty());
  EXPECT_EQ(field(line, "status"), verify::to_string(res.status)) << line;
  EXPECT_EQ(field(line, "cache"), verify::to_string(res.cache)) << line;
}

TEST_F(VerifyPipelineTest, BudgetPolicySemantics) {
  // Regression test for the double-budget bug (examples/verify_case.cpp
  // used to mint a FRESH deadline per stage, letting one --timeout T run
  // burn up to 3T).  Under SharedBudget the stages draw from one deadline;
  // under SplitBudget the validation clock must not start until synthesis
  // has finished.  On the tick clock with one worker, each stage's time is
  // a fixed count of clock reads, so a measured run replays exactly.
  ScopedEnv jobs{"SPIV_JOBS", "1"};
  ScopedTickClock clock;
  verify::VerifyContext ctx;
  verify::VerifyRequest req;
  req.a = closed_a("size5");
  req.method = lyap::Method::EqSmt;
  req.engine = smt::Engine::SmtZ3Style;
  req.digits = 0;
  req.budget = verify::SharedBudget{600.0};
  const verify::VerifyOutcome calib = verify::run_verify(ctx, req);
  ASSERT_EQ(calib.status, verify::Status::Valid);
  const double s = calib.synth_seconds;
  const double v = calib.validate_seconds;
  // Room for the few reads between and around the stages.
  ASSERT_GE(s, 0.02);
  ASSERT_GE(v, 0.01);

  // SharedBudget{s + v/2}: synthesis spends s, validation gets only v/2 of
  // the v it needs and must time out — and the whole request stays under
  // s + v (the old per-stage deadlines ran to completion).
  req.budget = verify::SharedBudget{s + 0.5 * v};
  const auto t0 = time_source::now();
  const verify::VerifyOutcome shared = verify::run_verify(ctx, req);
  const double elapsed = time_source::seconds_since(t0);
  EXPECT_EQ(shared.status, verify::Status::Timeout)
      << "budget " << s + 0.5 * v;
  EXPECT_EQ(shared.timeout_stage, verify::Stage::Validation);
  EXPECT_LT(elapsed, s + v);

  // SplitBudget{2s, v + s/2}: if the validation deadline were minted at
  // request start, synthesis would eat s of it and leave v - s/2 < v —
  // a timeout.  Minted after synthesis (the Table I semantics), validation
  // holds v + s/2 > v and completes.
  req.budget = verify::SplitBudget{2.0 * s + 1.0, v + 0.5 * s};
  const verify::VerifyOutcome split = verify::run_verify(ctx, req);
  EXPECT_EQ(split.status, verify::Status::Valid)
      << "validation clock started ticking during synthesis?";
}

TEST_F(VerifyPipelineTest, NegativeCacheRepaysSynthFailedWithoutRerunning) {
  // An unstable closed loop has no Lyapunov function: the first request
  // burns a real synthesis attempt (cache=miss, synth-failed), the retry
  // answers from the store's negative tier (cache=neg-hit) without
  // touching a kernel.  synth-failed is budget-independent, so even a
  // much larger retry budget is shielded.
  store::CertStore store{(dir_ / "cache").string()};
  verify::VerifyContext ctx;
  ctx.store = &store;
  ctx.negative_ttl_seconds = 60.0;
  verify::VerifyRequest req;
  req.a = closed_a("size3");
  for (std::size_t i = 0; i < req.a.rows(); ++i) req.a(i, i) += 100.0;
  req.method = lyap::Method::LmiAlpha;
  req.backend = sdp::Backend::NewtonAnalyticCenter;
  req.engine = smt::Engine::Sylvester;
  req.digits = 10;
  req.budget = verify::SharedBudget{30.0};

  const verify::VerifyOutcome cold = verify::run_verify(ctx, req);
  ASSERT_EQ(cold.status, verify::Status::SynthFailed);
  EXPECT_EQ(cold.cache, verify::Cache::Miss);

  req.budget = verify::SharedBudget{300.0};  // bigger budget, same answer
  const verify::VerifyOutcome warm = verify::run_verify(ctx, req);
  EXPECT_EQ(warm.status, verify::Status::SynthFailed);
  EXPECT_EQ(warm.cache, verify::Cache::NegativeHit);
  EXPECT_EQ(std::string{verify::to_string(warm.cache)}, "neg-hit");

  const store::StoreStats s = store.stats();
  EXPECT_EQ(s.negative_writes, 1u);
  EXPECT_EQ(s.negative_hits, 1u);
  EXPECT_EQ(s.writes, 0u);  // a failure never becomes a certificate

  // TTL 0 (the default) opts out entirely: the same retry re-runs.
  verify::VerifyContext off = ctx;
  off.negative_ttl_seconds = 0.0;
  const verify::VerifyOutcome rerun = verify::run_verify(off, req);
  EXPECT_EQ(rerun.status, verify::Status::SynthFailed);
  EXPECT_EQ(rerun.cache, verify::Cache::Miss);
}

}  // namespace
}  // namespace spiv
