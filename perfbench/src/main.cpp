// nnqs_perfbench: the end-to-end benchmark's measuring program.  See
// ../README.md for the workloads, metrics and how run.py drives it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "chem/basis_set.hpp"
#include "chem/geometry_library.hpp"
#include "common/logging.hpp"
#include "ops/jordan_wigner.hpp"
#include "scf/rhf.hpp"
#include "trace.hpp"

namespace perfbench {

// ---------------------------------------------------------------- Outcome ---

void Outcome::check(bool ok, const std::string& what) {
  op(ok);
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Outcome::require(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "INVARIANT FAILED: %s\n", what.c_str());
  }
}

void Outcome::knownFault(bool ok, const std::string& what) {
  op(ok);
  std::fprintf(stderr, "%s: %s\n", ok ? "known fault no longer shows" : "known fault",
               what.c_str());
}

void Outcome::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    require(false, "metric " + name + " is finite");
    return;
  }
  metrics_.push_back({name, unit, value});
}

std::string Outcome::json() const {
  std::string s = "{\"correct\": ";
  s += correct_ ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
    s += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return s + "}}";
}

void reportLayers(const std::vector<LayerRow>& rows, Outcome& out) {
  std::printf("%-26s %16s %-6s %s\n", "layer metric", "value", "unit", "should move");
  for (const LayerRow& r : rows) {
    std::printf("%-26s %16.6g %-6s %s\n", r.name.c_str(), r.value, r.unit, r.moves);
    out.metric(r.name, r.value, r.unit);
  }
}

// ------------------------------------------------------------- statistics ---

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double nowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------------ setup ---

Problem buildProblem(const std::string& molecule, Tracer* tracer) {
  using namespace nnqs;
  Problem p;
  const auto step = [&](const char* name, double& seconds, const auto& fn) {
    const ScopedSpan span(tracer, 0, name, -1);
    const double t0 = nowSeconds();
    fn();
    seconds = nowSeconds() - t0;
  };
  chem::Molecule mol;
  scf::AoIntegrals ao;
  scf::ScfResult hf;
  ops::SpinHamiltonian ham;
  step("setup.integrals", p.integralsS, [&] {
    mol = chem::makeMolecule(molecule);
    ao = scf::computeAoIntegrals(mol, chem::buildBasis(mol, "sto-3g"));
  });
  step("setup.scf", p.scfS, [&] { hf = scf::runHartreeFock(ao, mol); });
  step("setup.mo", p.moS, [&] { p.mo = scf::transformToMo(ao, hf); });
  step("setup.jw", p.jwS, [&] { ham = ops::jordanWigner(p.mo); });
  step("setup.pack", p.packS,
       [&] { p.packed = ops::PackedHamiltonian::fromHamiltonian(ham); });
  p.pauliTerms = ham.nTerms();
  p.nQubits = ham.nQubits;
  return p;
}

nnqs::nqs::QiankunNetConfig paperNetConfig(int nQubits, int nAlpha, int nBeta,
                                           std::uint64_t seed) {
  nnqs::nqs::QiankunNetConfig cfg;  // two decoders, d_model 16, 4 heads, 512-wide phase MLP
  cfg.nQubits = nQubits;
  cfg.nAlpha = nAlpha;
  cfg.nBeta = nBeta;
  cfg.dModel = 16;
  cfg.nHeads = 4;
  cfg.nDecoders = 2;
  cfg.phaseHidden = 512;
  cfg.phaseHiddenLayers = 2;
  cfg.seed = seed;
  return cfg;
}

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> w = {
      {"c2h4o-r4", "C2H4O/STO-3G VMC, Ns=16384, 4 thread-ranks x 1 thread, then serving"},
      {"h2o-table1", "H2O/STO-3G VMC at the Table 1 settings, FCI-checked, then serving"},
  };
  return w;
}

}  // namespace perfbench

namespace {

void usage(std::FILE* f) {
  std::fprintf(f,
               "usage: nnqs_perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]\n"
               "                      [--work-dir DIR]\n"
               "       nnqs_perfbench --help\n\n"
               "Runs one workload for about S seconds (default 30), checks its outputs\n"
               "and prints one JSON line {correct, attempted, failed, metrics} last.\n"
               "--trace 1 runs the traced replay and prints per-layer metrics instead\n"
               "of end-to-end ones.  Workloads:\n");
  for (const auto& w : perfbench::workloads())
    std::fprintf(f, "  %-12s %s\n", w.name, w.summary);
}

[[noreturn]] void badUsage(const std::string& msg) {
  std::fprintf(stderr, "nnqs_perfbench: %s\n\n", msg.c_str());
  usage(stderr);
  std::exit(2);
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos || v.size() > 19)
    badUsage(flag + " expects a non-negative integer, got '" + v + "'");
  return std::stoull(v);
}

perfbench::RunArgs parseArgs(int argc, char** argv) {
  perfbench::RunArgs a;
  bool haveWorkload = false, haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      usage(stdout);
      std::exit(0);
    }
    if (i + 1 >= argc) badUsage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      haveWorkload = true;
    } else if (flag == "--seed") {
      a.seed = parseUnsigned(flag, v);
      haveSeed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parseUnsigned(flag, v);
      if (s < 1 || s > 3600) badUsage("--seconds must be in [1, 3600]");
      a.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") badUsage("--trace expects 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.workDir = v;
    } else {
      badUsage("unknown flag " + flag);
    }
  }
  if (!haveWorkload) badUsage("--workload is required");
  if (!haveSeed) badUsage("--seed is required");
  const auto& ws = perfbench::workloads();
  if (std::none_of(ws.begin(), ws.end(), [&](const auto& w) { return a.workload == w.name; }))
    badUsage("unknown workload '" + a.workload + "'");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = parseArgs(argc, argv);
  nnqs::log::setLevel(nnqs::log::Level::kWarn);
  perfbench::nowSeconds();  // pin the span epoch
  perfbench::Outcome out;
  try {
    std::filesystem::create_directories(args.workDir);
    perfbench::runVmcWorkload(args, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nnqs_perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  // A run whose checks failed still exits 0: "correct": false in the result
  // line is how it reports them.
  std::printf("%s\n", out.json().c_str());
  return 0;
}
