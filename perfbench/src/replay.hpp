#pragma once

// The six-stage VMC loop of vmc::runVmc, replayed from the benchmark through
// the layers' public functions (BasSweepEngine, QiankunNet, Comm,
// WavefunctionLut, TermCostModel + partitionTiles*, localEnergies, AdamW,
// CheckpointWriter) so each call can carry a span.  At the same options and
// seed its energy history equals runVmc's bit for bit; the traced run checks
// that equality, which is what ties the per-layer numbers to the program.

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"
#include "vmc/driver.hpp"

namespace perfbench {

/// Per-(rank, iteration) counters read from the layers' public stats.
struct IterCounters {
  std::uint64_t sweepRowsCopied = 0;  ///< DecodeState::sweepStats.rowsCopied
  std::uint64_t termsEnumerated = 0;  ///< ElocStats
  std::uint64_t lutHits = 0;
  std::uint64_t lutProbes = 0;
  std::uint64_t dedupedProbes = 0;
  std::uint64_t commBytes = 0;        ///< bytes this rank received in Stages 1-6
  std::size_t gradTapeHighWater = 0;  ///< gradTapeStats().highWater (Reals)
};

struct ReplayOutput {
  std::vector<Real> energyHistory;
  std::vector<std::size_t> nUnique;       ///< gathered N_u per iteration
  std::vector<double> rankTermImbalance;  ///< realized max/min rank term work
  std::vector<std::vector<IterCounters>> counters;  ///< [rank][iteration]

  // Rank 0's gathered set of the last replayed iteration, for output checks.
  std::uint64_t nSamplesDrawn = 0;  ///< N_s of that iteration's sweep
  std::vector<Bits128> samples;
  std::vector<std::uint64_t> weights;
  std::vector<Complex> psi;
  std::vector<Complex> eloc;  ///< localEnergies, in gathered order
  Real variance = 0;
};

/// Replay opts.iterations iterations.  `tracer` (may be null) receives one
/// span per call; `energyOnly` stops the last iteration after Stage 4, which
/// is all the output checks need.
ReplayOutput replayVmc(const nnqs::ops::PackedHamiltonian& hamiltonian,
                       const nnqs::nqs::QiankunNetConfig& netConfig,
                       const nnqs::vmc::VmcOptions& opts, Tracer* tracer,
                       bool energyOnly = false);

}  // namespace perfbench
