#include "replay.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <stdexcept>

#include "io/checkpoint.hpp"
#include "nqs/sampler.hpp"
#include "parallel/comm.hpp"
#include "vmc/local_energy.hpp"
#include "vmc/repartition.hpp"

namespace perfbench {

namespace {

using namespace nnqs;

/// runVmc's Allgather record, byte for byte (so comm byte counts match).
struct GatherRecord {
  Bits128 sample;
  std::uint64_t weight;
  Real psiRe, psiIm;
};

}  // namespace

ReplayOutput replayVmc(const ops::PackedHamiltonian& hamiltonian,
                       const nqs::QiankunNetConfig& netConfig,
                       const vmc::VmcOptions& opts, Tracer* tracer,
                       bool energyOnly) {
  if (!opts.resumeFrom.empty())
    throw std::invalid_argument("replayVmc: resuming is not replayed");
  const exec::ExecutionPolicy ex = opts.exec;
  const auto world = parallel::makeWorld(ex.comm, opts.nRanks, opts.threadsPerRank);
  const int nRanks = world->size();
  const std::size_t nIter = static_cast<std::size_t>(opts.iterations);

  ReplayOutput out;
  out.energyHistory.assign(nIter, 0.0);
  out.nUnique.assign(nIter, 0);
  out.rankTermImbalance.assign(nIter, 1.0);
  out.counters.assign(static_cast<std::size_t>(nRanks),
                      std::vector<IterCounters>(nIter));

  world->run([&](parallel::Comm& comm) {
    const int rank = comm.rank();
    std::vector<IterCounters>& counters = out.counters[static_cast<std::size_t>(rank)];
    nqs::QiankunNet net(netConfig);
    net.setEvalPolicy(ex);
    nqs::BasSweepEngine sampler(net);
    nn::AdamWOptions adamOpts;
    adamOpts.lr = opts.learningRate;
    adamOpts.weightDecay = opts.weightDecay;
    nn::AdamW optimizer(net.parameters(), adamOpts);
    const nn::NoamSchedule schedule(netConfig.dModel, opts.warmupSteps);
    std::vector<Real> grads, logAmp, phase;
    vmc::TermCostModel costModel;
    std::uint64_t nsCurrent = opts.nSamplesInitial;
    std::uint64_t bytesAllIterations = 0;
    const auto span = [&](const char* name, int iter) {
      return ScopedSpan(tracer, rank, name, iter);
    };

    for (int iter = 0; iter < opts.iterations; ++iter) {
      const bool last = iter + 1 == opts.iterations;
      IterCounters& ctr = counters[static_cast<std::size_t>(iter)];
      ScopedSpan iterSpan(tracer, rank, "iteration", iter);
      comm.resetByteCounter();

      // --- Stage 1: BAS sampling + psi of the local samples ---------------
      std::optional<ScopedSpan> stage;
      stage.emplace(tracer, rank, "stage.sample", iter);
      nqs::SamplerOptions sOpts;
      sOpts.nSamples = nsCurrent;
      sOpts.seed = opts.seed + static_cast<std::uint64_t>(iter) * 0x9E37u;
      sOpts.exec = ex;
      const nqs::SampleSet* localPtr = nullptr;
      {
        const auto s = span("nqs.sweep", iter);
        localPtr = &sampler.sweep(
            sOpts, rank, nRanks,
            opts.uniqueThresholdPerRank * static_cast<std::uint64_t>(nRanks));
      }
      const nqs::SampleSet& local = *localPtr;
      ctr.sweepRowsCopied =
          static_cast<std::uint64_t>(sampler.decodeState().sweepStats.rowsCopied);
      if (local.logAmp.size() == local.samples.size()) {
        logAmp.assign(local.logAmp.begin(), local.logAmp.end());
        const auto s = span("nqs.phases", iter);
        net.phases(local.samples, phase);
      } else {
        const auto s = span("nn.evaluate", iter);
        net.evaluate(local.samples, logAmp, phase, nn::GradMode::kInference);
      }

      // --- Stage 2: Allgather + lookup table -----------------------------
      stage.emplace(tracer, rank, "stage.gather", iter);
      std::vector<GatherRecord> records(local.nUnique());
      for (std::size_t i = 0; i < local.nUnique(); ++i) {
        const Complex p = nqs::QiankunNet::psiValue(logAmp[i], phase[i]);
        records[i] = {local.samples[i], local.weights[i], p.real(), p.imag()};
      }
      std::vector<std::size_t> gatherCounts;
      std::vector<GatherRecord> all;
      {
        const auto s = span("comm.allgather", iter);
        all = comm.allGatherV(records.data(), records.size(), &gatherCounts);
      }
      std::size_t ownOffset = 0;
      for (int r = 0; r < rank; ++r) ownOffset += gatherCounts[static_cast<std::size_t>(r)];
      std::vector<Bits128> allSamples(all.size());
      std::vector<Complex> allPsi(all.size());
      std::uint64_t totalWeight = 0;
      for (std::size_t i = 0; i < all.size(); ++i) {
        allSamples[i] = all[i].sample;
        allPsi[i] = Complex{all[i].psiRe, all[i].psiIm};
        totalWeight += all[i].weight;
      }
      std::optional<vmc::WavefunctionLut> lutHolder;
      {
        const auto s = span("vmc.lut_build", iter);
        lutHolder.emplace(vmc::WavefunctionLut::build(allSamples, allPsi));
      }
      const vmc::WavefunctionLut& lut = *lutHolder;
      const std::uint64_t nsDrawn = nsCurrent;
      if (iter + 1 > opts.pretrainIterations && nsCurrent < opts.nSamples &&
          (iter + 1 - opts.pretrainIterations) % std::max(1, opts.growEvery) == 0 &&
          (opts.maxUniqueSamples == 0 || 2 * lut.size() <= opts.maxUniqueSamples))
        nsCurrent = std::min(nsCurrent * 2, opts.nSamples);

      // --- Stage 3: local energies of a term-balanced chunk ---------------
      stage.emplace(tracer, rank, "stage.eloc", iter);
      const std::size_t nAll = allSamples.size();
      const std::size_t tileSz = std::max<std::size_t>(1, opts.rankTileSize);
      const std::size_t nTiles = (nAll + tileSz - 1) / tileSz;
      vmc::RankPartition part;
      {
        const auto s = span("vmc.partition", iter);
        if (opts.rankSplit == vmc::RankSplit::kTermBalanced && !costModel.empty()) {
          std::vector<std::uint64_t> tileCosts(nTiles, 0);
          for (std::size_t i = 0; i < nAll; ++i)
            tileCosts[i / tileSz] += costModel.estimate(allSamples[i]);
          part = vmc::partitionTilesByCost(tileCosts, nRanks);
        } else {
          part = vmc::partitionTilesEqual(nTiles, nRanks);
        }
      }
      std::vector<Bits128> chunk;
      for (const std::uint32_t t : part.tiles[static_cast<std::size_t>(rank)]) {
        const std::size_t lo = static_cast<std::size_t>(t) * tileSz;
        const std::size_t hi = std::min(nAll, lo + tileSz);
        chunk.insert(chunk.end(), allSamples.begin() + static_cast<std::ptrdiff_t>(lo),
                     allSamples.begin() + static_cast<std::ptrdiff_t>(hi));
      }
      vmc::ElocStats elocStats;
      std::vector<std::uint64_t> chunkTerms(chunk.size(), 0);
      std::vector<Complex> chunkEloc;
      {
        const auto s = span("vmc.eloc", iter);
        chunkEloc = vmc::localEnergies(hamiltonian, chunk, lut, ex.eloc, nullptr,
                                       nullptr, &elocStats, chunkTerms.data());
      }
      ctr.termsEnumerated = elocStats.termsEnumerated;
      ctr.lutHits = elocStats.lutHits;
      ctr.lutProbes = elocStats.lutProbes;
      ctr.dedupedProbes = elocStats.dedupedProbes;
      std::vector<Complex> gatheredEloc;
      std::vector<std::uint64_t> gatheredTerms;
      {
        const auto s = span("comm.allgather", iter);
        gatheredEloc = comm.allGatherV(chunkEloc.data(), chunkEloc.size());
      }
      {
        const auto s = span("comm.allgather", iter);
        gatheredTerms = comm.allGatherV(chunkTerms.data(), chunkTerms.size());
      }
      std::vector<Complex> globalEloc(nAll);
      std::vector<std::uint64_t> globalTerms(nAll);
      {
        const auto s = span("vmc.cost_model", iter);
        std::size_t pos = 0;
        for (int r = 0; r < nRanks; ++r)
          for (const std::uint32_t t : part.tiles[static_cast<std::size_t>(r)]) {
            const std::size_t lo = static_cast<std::size_t>(t) * tileSz;
            const std::size_t hi = std::min(nAll, lo + tileSz);
            for (std::size_t i = lo; i < hi; ++i, ++pos) {
              globalEloc[i] = gatheredEloc[pos];
              globalTerms[i] = gatheredTerms[pos];
            }
          }
        costModel.update(allSamples, globalTerms);
        std::vector<std::uint64_t> realizedTile(nTiles, 0);
        for (std::size_t i = 0; i < nAll; ++i) realizedTile[i / tileSz] += globalTerms[i];
        const std::vector<std::uint64_t> rankTerms = vmc::realizedRankCosts(part, realizedTile);
        const std::uint64_t lo = *std::min_element(rankTerms.begin(), rankTerms.end());
        const std::uint64_t hi = *std::max_element(rankTerms.begin(), rankTerms.end());
        if (rank == 0)
          out.rankTermImbalance[static_cast<std::size_t>(iter)] =
              lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 1.0;
      }
      const Complex* eloc = globalEloc.data() + ownOffset;

      // --- Stage 4: Allreduce the energy estimate -------------------------
      stage.emplace(tracer, rank, "stage.energy", iter);
      std::array<Real, 3> acc{0, 0, 0};
      for (std::size_t i = 0; i < local.nUnique(); ++i) {
        const Real w = static_cast<Real>(local.weights[i]);
        acc[0] += w * eloc[i].real();
        acc[1] += w * eloc[i].imag();
        acc[2] += w * std::norm(eloc[i]);
      }
      {
        const auto s = span("comm.allreduce", iter);
        comm.allReduceSum(std::span<Real>(acc));
      }
      const Real wTot = static_cast<Real>(totalWeight);
      const Complex eMean{acc[0] / wTot, acc[1] / wTot};
      const Real variance = acc[2] / wTot - std::norm(eMean);
      if (rank == 0) {
        out.energyHistory[static_cast<std::size_t>(iter)] = eMean.real();
        out.nUnique[static_cast<std::size_t>(iter)] = lut.size();
        if (last) {
          out.nSamplesDrawn = nsDrawn;
          out.samples = allSamples;
          out.psi = allPsi;
          out.eloc = globalEloc;
          out.weights.resize(all.size());
          for (std::size_t i = 0; i < all.size(); ++i) out.weights[i] = all[i].weight;
          out.variance = variance;
        }
      }
      if (last && energyOnly) break;

      // --- Stage 5: backward on the own samples ---------------------------
      stage.emplace(tracer, rank, "stage.grad", iter);
      std::vector<Real> dLogAmp(local.nUnique()), dPhase(local.nUnique());
      for (std::size_t i = 0; i < local.nUnique(); ++i) {
        const Complex delta = eloc[i] - eMean;
        const Real w = static_cast<Real>(local.weights[i]) / wTot;
        dLogAmp[i] = 2.0 * w * delta.real();
        dPhase[i] = 2.0 * w * delta.imag();
      }
      {
        const auto s = span("nn.grad", iter);
        net.evaluateGrad(local.samples, dLogAmp, dPhase);
      }
      ctr.gradTapeHighWater = net.gradTapeStats().highWater;

      // --- Stage 6: Allreduce gradients + AdamW ---------------------------
      stage.emplace(tracer, rank, "stage.update", iter);
      {
        const auto s = span("nn.optimizer", iter);
        net.flattenGradients(grads);
      }
      {
        const auto s = span("comm.allreduce", iter);
        comm.allReduceSum(grads.data(), grads.size());
      }
      {
        const auto s = span("nn.optimizer", iter);
        net.loadGradients(grads);
        optimizer.step(schedule.lr(iter + 1));
      }

      // runVmc's bookkeeping exchange (outside the byte window).
      stage.emplace(tracer, rank, "stage.bookkeeping", iter);
      ctr.commBytes = comm.bytesCommunicated();
      std::vector<std::uint64_t> rankBytes;
      {
        const auto s = span("comm.allgather", iter);
        rankBytes = comm.allGather(&ctr.commBytes, 1);
      }
      for (const std::uint64_t b : rankBytes) bytesAllIterations += b;
      if (opts.checkpointEvery > 0 && rank == 0 && (iter + 1) % opts.checkpointEvery == 0) {
        // runVmc's checkpoint, section for section.
        const auto s = span("io.ckpt_save", iter);
        io::CheckpointWriter w;
        io::addNet(w, net);
        io::addOptimizer(w, optimizer);
        w.addU64("vmc.seed", opts.seed);
        w.addU64("vmc.iterNext", static_cast<std::uint64_t>(iter) + 1);
        w.addU64("vmc.nsCurrent", nsCurrent);
        w.addU64("vmc.commBytes", bytesAllIterations);
        w.addRealArray("vmc.energyHistory", out.energyHistory.data(),
                       static_cast<std::size_t>(iter) + 1);
        w.addBitsArray("vmc.costKeys", costModel.keys());
        w.addU64Array("vmc.costCosts", costModel.costs());
        w.addU64("vmc.costDefault", costModel.defaultCost());
        w.save(opts.checkpointPath);
      }
      if (last) {
        const auto s = span("comm.bcast", iter);
        comm.bcast(&elocStats, 1);
      }
      stage.reset();
    }
  });
  return out;
}

}  // namespace perfbench
