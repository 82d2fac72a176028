#include "workload.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "model/reduction.hpp"
#include "model/serialize.hpp"

namespace spivbench {

std::string GridEntry::tail() const {
  std::ostringstream os;
  os << "cases/" << case_name << ".spivcase " << mode << " " << method << " "
     << backend << " " << engine << " " << digits << " " << kRequestTimeout;
  return os.str();
}

bool GridEntry::small_case() const {
  return case_name == "size3" || case_name == "size3i" ||
         case_name == "size5" || case_name == "size5i";
}

std::vector<GridEntry> candidate_grid() {
  std::vector<GridEntry> out;
  for (const char* name :
       {"size3", "size3i", "size5", "size5i", "size10i", "size10"}) {
    GridEntry base;
    base.set = "cold";
    base.case_name = name;
    const bool small = base.small_case();
    std::vector<std::pair<std::string, std::string>> synth = {
        {"eq-num", "-"}, {"modal", "-"}};
    for (const char* method : {"LMI", "LMIa", "LMIa+"}) {
      synth.emplace_back(method, "newton-ac");
      synth.emplace_back(method, "fast-ipm");
      if (small) synth.emplace_back(method, "short-ipm");
    }
    if (small || base.case_name == "size10i") synth.emplace_back("eq-smt", "-");
    std::vector<std::string> engines = {"sylvester", "sympy-gauss", "ldlt",
                                        "smt-cvc5"};
    if (small) engines.push_back("smt-z3");
    for (std::size_t mode = 0; mode < 2; ++mode)
      for (const auto& [method, backend] : synth)
        for (const std::string& engine : engines)
          for (int digits : {6, 8, 10, 12}) {
            GridEntry e = base;
            e.mode = mode;
            e.method = method;
            e.backend = backend;
            e.engine = engine;
            e.digits = digits;
            out.push_back(std::move(e));
          }
  }
  return out;
}

std::vector<GridEntry> eqsmt_entries() {
  std::vector<GridEntry> out;
  for (std::size_t mode = 0; mode < 2; ++mode) {
    GridEntry e;
    e.set = "eqsmt";
    e.case_name = "size15";
    e.mode = mode;
    e.method = "eq-smt";
    e.backend = "-";
    e.engine = "sylvester";
    e.digits = 10;
    out.push_back(std::move(e));
  }
  return out;
}

namespace {
constexpr const char* kHeader =
    "set\tcase\tmode\tmethod\tbackend\tengine\tdigits\tkey\tstatus\tseconds";
}

std::vector<GridEntry> read_reference(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open reference table " + path);
  std::vector<GridEntry> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (lineno == 1 || line.empty()) continue;
    std::istringstream is{line};
    GridEntry e;
    if (!(is >> e.set >> e.case_name >> e.mode >> e.method >> e.backend >>
          e.engine >> e.digits >> e.key >> e.status >> e.seconds))
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": malformed reference row");
    out.push_back(std::move(e));
  }
  return out;
}

void write_reference(const std::string& path,
                     const std::vector<GridEntry>& entries) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write " + path);
  out << kHeader << "\n";
  for (const GridEntry& e : entries) {
    char seconds[32];
    std::snprintf(seconds, sizeof seconds, "%.4f", e.seconds);
    out << e.set << "\t" << e.case_name << "\t" << e.mode << "\t" << e.method
        << "\t" << e.backend << "\t" << e.engine << "\t" << e.digits << "\t"
        << e.key << "\t" << e.status << "\t" << seconds << "\n";
  }
}

ExpectMap expectations(const std::vector<GridEntry>& entries) {
  ExpectMap out;
  for (const GridEntry& e : entries) out[e.tail()] = {e.key, e.status};
  return out;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) {
  // Rejection sampling keeps the draw exactly uniform.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  for (;;) {
    const std::uint64_t x = next();
    if (x < limit) return x % n;
  }
}

void write_cases(const std::string& dir,
                 const std::vector<GridEntry>& entries) {
  std::set<std::string> names;
  for (const GridEntry& e : entries) names.insert(e.case_name);
  const std::filesystem::path cases = std::filesystem::path{dir} / "cases";
  std::filesystem::create_directories(cases);
  for (const spiv::model::BenchmarkModel& bm :
       spiv::model::benchmark_family()) {
    if (!names.count(bm.name)) continue;
    std::ofstream out{cases / (bm.name + ".spivcase")};
    spiv::model::write_case(out, bm);
    if (!out) throw std::runtime_error("cannot write case " + bm.name);
  }
}

namespace {

/// Fisher-Yates under the benchmark's own Rng.
template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

std::vector<const GridEntry*> select(const std::vector<GridEntry>& reference,
                                     const std::string& set, bool small_only) {
  std::vector<const GridEntry*> out;
  for (const GridEntry& e : reference)
    if (e.set == set && (!small_only || e.small_case())) out.push_back(&e);
  return out;
}

/// A seeded order of `grid` in which the members of each cost class
/// (case, method, backend, engine) are spread evenly over the sequence:
/// member j of a class of n sits at (j + u) / n of the way through, u
/// uniform in [0, 1).  A run completes only a prefix of the grid; this
/// gives every prefix close to the whole grid's mix of cheap and costly
/// requests, which a plain shuffle leaves to chance.
std::vector<const GridEntry*> stratified_order(
    const std::vector<const GridEntry*>& grid, Rng& rng) {
  std::map<std::string, std::vector<const GridEntry*>> classes;
  for (const GridEntry* e : grid)
    classes[e->case_name + " " + e->method + " " + e->backend + " " +
            e->engine]
        .push_back(e);
  std::vector<std::pair<double, const GridEntry*>> keyed;
  for (auto& [name, members] : classes) {
    shuffle(members, rng);
    const double n = static_cast<double>(members.size());
    for (std::size_t j = 0; j < members.size(); ++j) {
      const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
      keyed.emplace_back((static_cast<double>(j) + u) / n, members[j]);
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<const GridEntry*> out;
  for (const auto& k : keyed) out.push_back(k.second);
  return out;
}

// Length of serve-warm's request list; the client cycles through it when a
// run completes more requests than this.
constexpr std::size_t kWarmDraws = 1 << 16;
// Length of exact-eqsmt's request list (each request takes seconds).
constexpr std::size_t kEqsmtRequests = 64;

}  // namespace

Generated generate(const std::string& workload, std::uint64_t seed,
                   const std::vector<GridEntry>& reference) {
  Rng rng{seed};
  Generated g;
  if (workload == kServeWarm) {
    std::vector<const GridEntry*> pool = select(reference, "cold", true);
    if (pool.size() < kWarmWorkingSet)
      throw std::runtime_error("reference grid too small for serve-warm");
    shuffle(pool, rng);
    pool.resize(kWarmWorkingSet);
    for (const GridEntry* e : pool) g.prime.push_back(e->tail());
    g.requests.reserve(kWarmDraws);
    for (std::size_t i = 0; i < kWarmDraws; ++i)
      g.requests.push_back(g.prime[rng.below(g.prime.size())]);
    g.cycle = true;
    // Microsecond requests with four thread hand-offs each: a busy spell
    // of the shared host moves them far more than the program does, so
    // each statistic is the best of five slices.
    g.windows = 5;
  } else if (workload == kServeCold) {
    for (const GridEntry* e :
         stratified_order(select(reference, "cold", false), rng))
      g.requests.push_back(e->tail());
  } else if (workload == kExactEqsmt) {
    const std::vector<const GridEntry*> pair =
        select(reference, "eqsmt", false);
    if (pair.size() != 2)
      throw std::runtime_error("reference table needs two eqsmt rows");
    // Modes alternate; the seed picks which one goes first.
    const std::size_t first = seed % 2;
    for (std::size_t i = 0; i < kEqsmtRequests; ++i)
      g.requests.push_back(pair[(first + i) % 2]->tail());
    g.use_store = false;
    g.connections = 1;
    g.unit = 2;  // a mode-0/mode-1 pair, so every run solves both modes
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return g;
}

void write_generated(const std::string& dir, const std::string& workload,
                     const Generated& g,
                     const std::vector<GridEntry>& reference) {
  std::filesystem::create_directories(dir);
  const auto write_list = [&dir](const char* name,
                                 const std::vector<std::string>& lines) {
    std::ofstream out{std::filesystem::path{dir} / name};
    for (const std::string& line : lines) out << line << "\n";
    if (!out) throw std::runtime_error(std::string{"cannot write "} + name);
  };
  write_list("requests.txt", g.requests);
  write_list("prime.txt", g.prime);
  write_list("workload.txt",
             {workload, std::to_string(g.cycle), std::to_string(g.use_store),
              std::to_string(g.connections), std::to_string(g.unit),
              std::to_string(g.windows)});
  std::vector<GridEntry> used;
  for (const GridEntry& e : reference)
    if ((workload == kExactEqsmt) == (e.set == "eqsmt")) used.push_back(e);
  write_cases(dir, used);
}

Generated read_generated(const std::string& dir) {
  const std::filesystem::path d{dir};
  Generated g;
  g.requests = read_lines((d / "requests.txt").string());
  g.prime = read_lines((d / "prime.txt").string());
  const std::vector<std::string> props =
      read_lines((d / "workload.txt").string());
  if (props.size() != 6) throw std::runtime_error("malformed workload.txt");
  g.cycle = props[1] == "1";
  g.use_store = props[2] == "1";
  g.connections = std::stoul(props[3]);
  g.unit = std::stoul(props[4]);
  g.windows = std::stoul(props[5]);
  return g;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

}  // namespace spivbench
