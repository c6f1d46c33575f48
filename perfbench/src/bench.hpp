#pragma once

// Shared declarations of the end-to-end benchmark (see ../README.md).
//
// A run executes one workload for a requested number of seconds, checks its
// outputs against computations made apart from the code being timed, and
// prints one JSON line: {"correct", "attempted", "failed", "metrics"}.

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "nqs/ansatz.hpp"
#include "ops/packed_hamiltonian.hpp"
#include "scf/mo_integrals.hpp"
#include "serve/amplitude_server.hpp"

namespace perfbench {

class Tracer;

using nnqs::Bits128;
using nnqs::Complex;
using nnqs::Real;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 30;
  bool trace = false;
  /// Scratch directory for checkpoints and span files (created if missing).
  std::string workDir = ".bench_build/run";
};

/// Operation accounting, output checks and metrics of one run.
class Outcome {
 public:
  /// One attempted operation of the program (a VMC iteration, a served
  /// request); a failure is counted.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// An output check: an attempted operation whose failure means the program
  /// produced a wrong result.
  void check(bool ok, const std::string& what);
  /// An invariant of the run itself (not an operation of the program), e.g.
  /// that the traced spans cover the iteration: failure marks the run
  /// incorrect without changing the operation counts.
  void require(bool ok, const std::string& what);
  /// A known fault of the program, counted as a failed operation while the
  /// outputs stay correct.
  void knownFault(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);

  /// The result line (last line of stdout).
  [[nodiscard]] std::string json() const;

  [[nodiscard]] bool correct() const { return correct_; }

 private:
  struct Metric {
    std::string name, unit;
    double value;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::vector<Metric> metrics_;
};

/// One row of a traced run's per-layer table: the metric and the end-to-end
/// metric it should move.
struct LayerRow {
  std::string name;
  double value;
  const char* unit;
  const char* moves;
};
/// Print the per-layer table and record every row as a metric.
void reportLayers(const std::vector<LayerRow>& rows, Outcome& out);

// ------------------------------------------------------------- statistics ---

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]) of a non-empty sample.
double percentile(std::vector<double> v, double p);
/// Peak resident set size of this process, MiB (getrusage ru_maxrss).
double peakRssMib();
/// Seconds on the steady clock since an arbitrary process-wide epoch.
double nowSeconds();
/// Independent 64-bit streams from one workload seed (splitmix64 finalizer).
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

// ------------------------------------------------------------------ setup ---

/// The molecular problem a VMC workload runs on: integrals -> SCF -> MO ->
/// Jordan-Wigner -> packed Hamiltonian, with the time of each step.
struct Problem {
  nnqs::scf::MoIntegrals mo;
  nnqs::ops::PackedHamiltonian packed;
  std::size_t pauliTerms = 0;
  int nQubits = 0;
  double integralsS = 0, scfS = 0, moS = 0, jwS = 0, packS = 0;
  [[nodiscard]] double totalS() const { return integralsS + scfS + moS + jwS + packS; }
};

/// `tracer` (may be null) receives one rank-0 span per step.
Problem buildProblem(const std::string& molecule, Tracer* tracer = nullptr);

/// VMC set-up is repeated and its median reported: at least 5 times, and
/// until half a second has been spent, so that millisecond set-ups are not
/// one noisy sample.
inline bool repeatSetup(int done, double secondsSpent) {
  return done < 5 || (secondsSpent < 0.5 && done < 100);
}

/// The paper's §4.1 network shape for a problem.
nnqs::nqs::QiankunNetConfig paperNetConfig(int nQubits, int nAlpha, int nBeta,
                                           std::uint64_t seed);

// ------------------------------------------------------------ serve phase ---

/// The electron sector served queries are drawn from.
struct Sector {
  int nOrb, nAlpha, nBeta;
};

/// What one serve phase measured.
struct ServeResult {
  std::vector<double> setupSeconds;  ///< checkpoint parse + server start, per repetition
  std::vector<double> loadSeconds, startSeconds;
  std::vector<double> latencySeconds;  ///< client-measured, closed-loop requests
  double latencyWindowSeconds = 0;     ///< closed-loop part, first submit to last answer
  double burstSeconds = 0;             ///< throughput part, first submit to last answer
  double burstRowsPerSecond = 0;       ///< throughput part, median over equal slices
  double evaluateBatchMs = 0;          ///< traced phase only
  nnqs::serve::ServeStats stats;       ///< of the closed-loop part
};

/// Serve the net of `checkpointPath`: two closed-loop clients send a fixed
/// number of valid queries of `sector` one at a time (latency), then two
/// clients keep several queries in flight (throughput); every answer is
/// checked (one operation per request).  With a tracer, set-up steps carry
/// spans and evaluateInto is timed at the closed-loop batch size.
ServeResult servePhase(const std::string& checkpointPath, const Sector& sector,
                       std::uint64_t seed, Tracer* tracer, Outcome& out);

// ------------------------------------------------------------- workloads ---

struct WorkloadInfo {
  const char* name;
  const char* summary;
};
const std::vector<WorkloadInfo>& workloads();

void runVmcWorkload(const RunArgs& args, Outcome& out);

}  // namespace perfbench
