// The two workloads (c2h4o-r4, h2o-table1): each round trains with
// vmc::runVmc, which checkpoints its last iteration, and then serves that
// checkpoint (serve_phase.cpp).  Untraced runs give the end-to-end metrics,
// the traced replay the per-layer ones.  Output checks run outside the
// timed sections.

#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "fci/fci.hpp"
#include "io/checkpoint.hpp"
#include "replay.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace nnqs;

struct VmcWorkload {
  const char* name;
  const char* molecule;
  int ranks;  ///< thread-ranks of 1 thread each
  int roundIterations;  ///< iterations of one untraced round (iteration 0 is warm-up)
  int traceIterations;  ///< iterations of the traced run (and its runVmc reference)
  bool table1;          ///< H2O Table 1 settings: pinned seeds, N_s schedule, FCI checks
};

constexpr VmcWorkload kVmcWorkloads[] = {
    {"c2h4o-r4", "C2H4O", 4, 10, 3, false},
    {"h2o-table1", "H2O", 1, 400, 400, true},
};

constexpr std::size_t kElocCheckSamples = 64;
constexpr double kElocTolerance = 1e-9;        ///< Ha
constexpr double kElementTolerance = 1e-10;    ///< Ha, per Hamiltonian element
constexpr double kNormTolerance = 1e-10;
constexpr double kVariationalSlack = 1e-9;     ///< Ha
constexpr double kChemicalAccuracyMha = 1.6;   ///< 1 kcal/mol

const VmcWorkload& lookup(const std::string& name) {
  for (const VmcWorkload& w : kVmcWorkloads)
    if (name == w.name) return w;
  throw std::invalid_argument("not a VMC workload: " + name);
}

vmc::VmcOptions vmcOptions(const VmcWorkload& w, std::uint64_t seed, int iterations,
                           const std::string& checkpointPath) {
  vmc::VmcOptions o;
  o.iterations = iterations;
  o.nRanks = w.ranks;
  if (w.table1) {
    // bench/table1_energies.cpp's settings at a 400-iteration budget.  The
    // seed is pinned: this workload's failing operation (chemical accuracy)
    // must not depend on --seed.
    o.nSamples = std::uint64_t{1} << 30;
    o.nSamplesInitial = 8192;
    o.pretrainIterations = 10;
    o.growEvery = 3;
    o.maxUniqueSamples = 60000;
    o.warmupSteps = 100;
    o.seed = 11;
  } else {
    // bench/fig11_strong_scaling's shape: N_s fixed from iteration 0 and the
    // sampling tree split at N*_u = 256 per rank.
    o.nSamples = o.nSamplesInitial = std::uint64_t{1} << 14;
    o.pretrainIterations = 0;
    o.uniqueThresholdPerRank = 256;
    o.seed = deriveSeed(seed, 2);
  }
  // The last iteration's checkpoint is what the serve phase serves and, on
  // H2O, what the FCI checks read.
  o.checkpointEvery = iterations;
  o.checkpointPath = checkpointPath;
  return o;
}

/// The initial weights are part of the workload, like the molecule: the
/// bench/ binaries' net seed 7.  Across init seeds N_u at N_s = 16384 ranges
/// over 10-15k and the iteration time with it, which would swamp any change
/// worth measuring; --seed varies the sampling streams instead.
nqs::QiankunNetConfig netConfig(const Problem& p) {
  return paperNetConfig(p.nQubits, p.mo.nAlpha, p.mo.nBeta, 7);
}

/// One timed runVmc call; the per-iteration wall times are the gaps between
/// successive observer calls (iteration 0, the warm-up, is dropped).
struct Round {
  vmc::VmcResult res;
  std::vector<double> iterSeconds;
  double seconds = 0;
};

Round timedRun(const Problem& p, const nqs::QiankunNetConfig& net, vmc::VmcOptions opts) {
  Round r;
  const double start = nowSeconds();
  double last = start;
  opts.observer = [&](int iter, Real, std::size_t) {
    const double t = nowSeconds();
    if (iter > 0) r.iterSeconds.push_back(t - last);
    last = t;
  };
  r.res = vmc::runVmc(p.packed, net, opts);
  r.seconds = nowSeconds() - start;
  return r;
}

bool sameBits(Real a, Real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// One operation per iteration: a finite energy and, when a replay is given,
/// the same bits as the replay's.
void iterationOps(Outcome& out, const vmc::VmcResult& res,
                  const std::vector<Real>* replayed) {
  for (std::size_t i = 0; i < res.energyHistory.size(); ++i) {
    const Real e = res.energyHistory[i];
    const bool equal = replayed == nullptr || sameBits(e, (*replayed)[i]);
    out.check(std::isfinite(e) && equal,
              "iteration " + std::to_string(i) + " energy finite" +
                  (replayed ? " and replayed bit for bit" : ""));
  }
  out.check(std::isfinite(res.variance) && res.variance >= 0,
            "final variance finite and >= 0");
}

/// Sampling properties and the Slater-Condon recomputation of E_loc on rank
/// 0's gathered set of one replayed iteration.
void checkSampleSet(Outcome& out, const ReplayOutput& rep, const Problem& p,
                    std::uint64_t seed) {
  const int nOrb = p.mo.nOrb;
  bool electronsOk = true;
  for (const Bits128 x : rep.samples) {
    int up = 0, down = 0;
    for (int o = 0; o < nOrb; ++o) {
      up += x.get(2 * o) ? 1 : 0;
      down += x.get(2 * o + 1) ? 1 : 0;
    }
    electronsOk = electronsOk && up == p.mo.nAlpha && down == p.mo.nBeta &&
                  x.popcount() == up + down;
  }
  out.check(electronsOk && !rep.samples.empty(),
            "every sample has n_alpha/n_beta electrons");
  std::uint64_t weight = 0;
  for (const std::uint64_t w : rep.weights) weight += w;
  out.check(weight == rep.nSamplesDrawn, "sample weights sum to N_s (" +
                                             std::to_string(weight) + " vs " +
                                             std::to_string(rep.nSamplesDrawn) + ")");

  // E_loc(x) = sum_{x' in S} <x|H|x'> psi(x')/psi(x) + E_core, with <x|H|x'>
  // from the determinant Slater-Condon rules instead of the Pauli strings.
  // The two Hamiltonians agree element by element only to rounding (about
  // 1e-14 Ha), and E_loc amplifies an element's difference by
  // |psi(x')/psi(x)|, which reaches 1e5 on rare samples.  So the elements
  // are compared first, and E_loc's tolerance is 1e-9 Ha plus twice the
  // element differences propagated through those ratios.
  const ops::PackedHamiltonian& h = p.packed;
  std::unordered_map<Bits128, std::size_t, Bits128Hash> where;
  for (std::size_t j = 0; j < rep.samples.size(); ++j) where.emplace(rep.samples[j], j);
  std::unordered_map<Bits128, std::size_t, Bits128Hash> group;
  for (std::size_t g = 0; g < h.nGroups(); ++g) group.emplace(h.xyUnique[g], g);
  const auto pauliElement = [&](Bits128 x, Bits128 xp) {
    const auto it = group.find(x ^ xp);
    const Real c = it == group.end() ? 0.0 : h.groupCoefficient(it->second, x);
    return x == xp ? c + h.constant : c;
  };
  const auto slaterElement = [&](Bits128 x, Bits128 xp) {
    const Real e = fci::slaterCondon(p.mo, x, xp);
    return x == xp ? e + p.mo.coreEnergy : e;
  };

  const std::size_t n = rep.samples.size();
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  Rng rng(deriveSeed(seed, 3));
  const std::size_t k = std::min(kElocCheckSamples, n);
  for (std::size_t i = 0; i < k; ++i) std::swap(idx[i], idx[i + rng.below(n - i)]);
  double maxElementDiff = 0, maxErr = 0, worst = 0;
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t i = idx[c];
    const Bits128 x = rep.samples[i];
    Complex acc{0, 0};
    double propagated = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const Bits128 xp = rep.samples[j];
      const Real hs = slaterElement(x, xp);
      if (hs != 0) acc += hs * rep.psi[j];
      // Pauli strings couple at most 4 flipped spin-orbitals, as do the
      // Slater-Condon rules.
      if ((x ^ xp).popcount() > 4) continue;
      const double d = std::abs(pauliElement(x, xp) - hs);
      maxElementDiff = std::max(maxElementDiff, d);
      propagated += d * std::abs(rep.psi[j] / rep.psi[i]);
    }
    const double err = std::abs(acc / rep.psi[i] - rep.eloc[i]);
    maxErr = std::max(maxErr, err);
    worst = std::max(worst, err / (kElocTolerance + 2 * propagated));
  }
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "Pauli vs Slater-Condon elements: max diff %.3g Ha; E_loc of %zu samples over "
                "%zu-entry LUT: max |dE| %.3g Ha, %.3g of tolerance",
                maxElementDiff, k, n, maxErr, worst);
  std::fprintf(stderr, "%s\n", buf);
  out.check(maxElementDiff <= kElementTolerance, buf);
  out.check(k == std::min(kElocCheckSamples, n) && worst <= 1.0, buf);
}

struct FciReference {
  Real energy = 0;
  bool converged = false;
  std::vector<Bits128> basis;
};

/// Exact <psi|H|psi> of the checkpointed final net over the FCI sector, and
/// its error against FCI as the known-fault operation.
void checkTable1(Outcome& out, const Problem& p, const FciReference& fci,
                   const std::string& checkpointPath) {
  out.check(fci.converged, "FCI reference converged");
  const io::CheckpointReader reader(checkpointPath);
  const std::unique_ptr<nqs::QiankunNet> net = io::makeNet(reader);
  std::vector<Real> logAmp, phase;
  net->evaluate(fci.basis, logAmp, phase, nn::GradMode::kInference);
  const std::size_t n = fci.basis.size();
  std::vector<Complex> psi(n);
  Real norm = 0;
  for (std::size_t i = 0; i < n; ++i) {
    psi[i] = nqs::QiankunNet::psiValue(logAmp[i], phase[i]);
    norm += std::norm(psi[i]);
  }
  out.check(std::abs(norm - 1.0) <= kNormTolerance,
            "sum |psi|^2 over the FCI sector is 1 (" + std::to_string(norm) + ")");
  Complex e{0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    Complex hPsi{0, 0};
    for (std::size_t j = 0; j < n; ++j) {
      Real h = fci::slaterCondon(p.mo, fci.basis[i], fci.basis[j]);
      if (i == j) h += p.mo.coreEnergy;
      if (h != 0) hPsi += h * psi[j];
    }
    e += std::conj(psi[i]) * hPsi;
  }
  const Real energy = e.real() / norm;
  out.check(std::isfinite(energy) && energy >= fci.energy - kVariationalSlack,
            "variational bound <psi|H|psi> >= E_FCI");
  const double errMha = (energy - fci.energy) * 1e3;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "reach chemical accuracy on H2O: <psi|H|psi> - E_FCI = %.3f mHa (target < %.1f)",
                errMha, kChemicalAccuracyMha);
  out.knownFault(errMha < kChemicalAccuracyMha, buf);
}

FciReference fciReference(const Problem& p) {
  const fci::FciResult r = fci::runFci(p.mo);
  return {r.energy, r.converged, r.basis};
}

std::string runFile(const RunArgs& args, const VmcWorkload& w, const char* suffix) {
  return args.workDir + "/" + w.name + "-" + std::to_string(getpid()) + suffix;
}

Sector sector(const Problem& p) { return {p.mo.nOrb, p.mo.nAlpha, p.mo.nBeta}; }

// ------------------------------------------------------------ untraced run ---

void runUntraced(const VmcWorkload& w, const RunArgs& args, Outcome& out) {
  std::vector<double> setupSeconds;
  Problem p;
  double spent = 0;
  while (repeatSetup(static_cast<int>(setupSeconds.size()), spent)) {
    p = buildProblem(w.molecule);
    setupSeconds.push_back(p.totalS());
    spent += p.totalS();
  }
  const nqs::QiankunNetConfig net = netConfig(p);
  const std::string ckpt = runFile(args, w, ".ckpt");
  const vmc::VmcOptions opts = vmcOptions(w, args.seed, w.roundIterations, ckpt);
  std::optional<FciReference> fci;
  if (w.table1) fci = fciReference(p);

  // Whole rounds until the measured time is used up; each round is one
  // runVmc from the same initial state, its output checks, and a serve
  // phase on its final checkpoint with the same number of requests.
  std::vector<double> iterSeconds, serveSetupSeconds, latencySeconds, rowsPerSecond;
  double measured = 0, lastRound = 0, peakMib = 0;
  std::uint64_t round = 0;
  do {
    const Round r = timedRun(p, net, opts);
    iterSeconds.insert(iterSeconds.end(), r.iterSeconds.begin(), r.iterSeconds.end());

    iterationOps(out, r.res, nullptr);
    if (w.table1) {
      checkTable1(out, p, *fci, ckpt);
    } else {
      // Replay iteration 0 to recover its gathered set; its energy must
      // equal runVmc's bit for bit.
      vmc::VmcOptions first = opts;
      first.iterations = 1;
      const ReplayOutput rep = replayVmc(p.packed, net, first, nullptr, /*energyOnly=*/true);
      out.check(sameBits(rep.energyHistory[0], r.res.energyHistory[0]),
                "replayed iteration 0 energy equals runVmc's bit for bit");
      checkSampleSet(out, rep, p, args.seed);
    }

    const ServeResult sv = servePhase(ckpt, sector(p), deriveSeed(args.seed, 20 + round), nullptr, out);
    serveSetupSeconds.insert(serveSetupSeconds.end(), sv.setupSeconds.begin(), sv.setupSeconds.end());
    latencySeconds.insert(latencySeconds.end(), sv.latencySeconds.begin(), sv.latencySeconds.end());
    rowsPerSecond.push_back(sv.burstRowsPerSecond);
    if (peakMib == 0) peakMib = peakRssMib();
    lastRound = r.seconds + sv.latencyWindowSeconds + sv.burstSeconds;
    measured += lastRound;
    ++round;
  } while (measured + lastRound <= args.seconds);
  std::remove(ckpt.c_str());

  out.metric("iter_s", median(iterSeconds), "s");
  out.metric("setup_s", median(setupSeconds) + median(serveSetupSeconds), "s");
  out.metric("peak_rss_mib", peakMib, "MiB");
  out.metric("serve_rows_per_s", median(rowsPerSecond), "1/s");
  out.metric("serve_p50_ms", 1e3 * percentile(latencySeconds, 50), "ms");
  // No tail metric: latencies are bimodal (a request evaluated alone, or
  // coalesced with the other client's into one batch at twice the cost, for
  // 5-15 % of requests depending on how fast the workers wake), so p90-p99
  // and the mean swing between runs.  They are printed for inspection.
  double latencySum = 0;
  for (const double l : latencySeconds) latencySum += l;
  std::fprintf(stderr, "serve latency ms: p50 %.3f p90 %.3f p95 %.3f p99 %.3f max %.3f mean %.3f\n",
               1e3 * percentile(latencySeconds, 50), 1e3 * percentile(latencySeconds, 90),
               1e3 * percentile(latencySeconds, 95), 1e3 * percentile(latencySeconds, 99),
               1e3 * percentile(latencySeconds, 100),
               1e3 * latencySum / static_cast<double>(latencySeconds.size()));
}

// -------------------------------------------------------------- traced run ---

/// Per (rank, iteration) sums of span durations by name, plus the split of
/// every collective into waiting (entry until the last rank enters) and
/// transfer (last entry until this rank leaves).
struct IterSpans {
  std::map<std::string, double> seconds;
  std::map<std::string, double> self;
  std::map<std::string, double> transfer;
  double wait = 0;
};

std::vector<std::vector<IterSpans>> analyse(const Tracer& t, int nIter) {
  const int nRanks = t.nRanks();
  std::vector<std::vector<IterSpans>> table(
      static_cast<std::size_t>(nRanks), std::vector<IterSpans>(static_cast<std::size_t>(nIter)));
  // comm[i][r] = rank r's collectives of iteration i, in call order.
  std::vector<std::vector<std::vector<const Span*>>> comm(
      static_cast<std::size_t>(nIter), std::vector<std::vector<const Span*>>(static_cast<std::size_t>(nRanks)));
  for (int r = 0; r < nRanks; ++r) {
    const std::vector<Span>& spans = t.spans(r);
    for (std::size_t id = 0; id < spans.size(); ++id) {
      const Span& s = spans[id];
      if (s.iteration < 0) continue;
      IterSpans& cell = table[static_cast<std::size_t>(r)][static_cast<std::size_t>(s.iteration)];
      cell.seconds[s.name] += s.seconds();
      cell.self[s.name] += t.selfSeconds(r, static_cast<int>(id));
      if (std::strncmp(s.name, "comm.", 5) == 0)
        comm[static_cast<std::size_t>(s.iteration)][static_cast<std::size_t>(r)].push_back(&s);
    }
  }
  for (int i = 0; i < nIter; ++i) {
    const auto& perRank = comm[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < perRank[0].size(); ++k) {
      double lastEntry = 0;
      for (int r = 0; r < nRanks; ++r)
        lastEntry = std::max(lastEntry, perRank[static_cast<std::size_t>(r)].at(k)->start);
      for (int r = 0; r < nRanks; ++r) {
        const Span& s = *perRank[static_cast<std::size_t>(r)][k];
        IterSpans& cell = table[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
        cell.wait += lastEntry - s.start;
        cell.transfer[s.name] += s.end - lastEntry;
      }
    }
  }
  return table;
}

double lookupOr0(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

void printStages(const std::vector<std::vector<IterSpans>>& table, int nIter) {
  static const char* kStages[] = {"stage.sample", "stage.gather", "stage.eloc",
                                  "stage.energy", "stage.grad",   "stage.update",
                                  "stage.bookkeeping"};
  std::printf("%-18s %14s %14s %16s\n", "stage", "rank0 total_s", "rank0 self_s",
              "max-over-ranks_s");
  for (const char* st : kStages) {
    std::vector<double> tot, self, mx;
    for (int i = 1; i < nIter; ++i) {
      tot.push_back(lookupOr0(table[0][static_cast<std::size_t>(i)].seconds, st));
      self.push_back(lookupOr0(table[0][static_cast<std::size_t>(i)].self, st));
      double m = 0;
      for (const auto& rank : table)
        m = std::max(m, lookupOr0(rank[static_cast<std::size_t>(i)].seconds, st));
      mx.push_back(m);
    }
    std::printf("%-18s %14.6f %14.6f %16.6f\n", st, median(tot), median(self), median(mx));
  }
}

void runTraced(const VmcWorkload& w, const RunArgs& args, Outcome& out) {
  Tracer tracer(w.ranks);
  std::map<std::string, std::vector<double>> setup;
  Problem p;
  double spent = 0;
  for (int k = 0; repeatSetup(k, spent); ++k) {
    p = buildProblem(w.molecule, &tracer);
    spent += p.totalS();
    setup["setup.integrals_s"].push_back(p.integralsS);
    setup["setup.scf_s"].push_back(p.scfS);
    setup["setup.mo_s"].push_back(p.moS);
    setup["setup.jw_s"].push_back(p.jwS);
    setup["setup.pack_s"].push_back(p.packS);
  }
  const nqs::QiankunNetConfig net = netConfig(p);
  const std::string ckpt = runFile(args, w, ".ckpt");
  const vmc::VmcOptions opts = vmcOptions(w, args.seed, w.traceIterations, ckpt);

  // The untraced reference, then the traced replay of the same iterations.
  const Round ref = timedRun(p, net, opts);
  vmc::VmcOptions replayOpts = opts;
  replayOpts.checkpointPath = runFile(args, w, ".replay.ckpt");
  const ReplayOutput rep = replayVmc(p.packed, net, replayOpts, &tracer);

  iterationOps(out, ref.res, &rep.energyHistory);
  if (w.table1)
    checkTable1(out, p, fciReference(p), ckpt);
  else
    checkSampleSet(out, rep, p, args.seed);
  const ServeResult sv = servePhase(ckpt, sector(p), deriveSeed(args.seed, 20), &tracer, out);
  const double p50Ms = 1e3 * percentile(sv.latencySeconds, 50);
  const double batches = static_cast<double>(std::max<std::uint64_t>(1, sv.stats.batches));

  const int nIter = w.traceIterations;
  const auto table = analyse(tracer, nIter);
  const int nRanks = w.ranks;
  const auto perIter = [&](const auto& f) {
    std::vector<double> v;
    for (int i = 1; i < nIter; ++i) v.push_back(f(i));
    return median(v);
  };
  const auto maxOverRanks = [&](const auto& f) {
    return perIter([&](int i) {
      double m = 0;
      for (int r = 0; r < nRanks; ++r) m = std::max(m, f(table[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)], r, i));
      return m;
    });
  };
  const auto spanMax = [&](const char* name) {
    return maxOverRanks([&](const IterSpans& c, int, int) { return lookupOr0(c.seconds, name); });
  };
  const auto counterSum = [&](auto field) {
    return perIter([&](int i) {
      double s = 0;
      for (int r = 0; r < nRanks; ++r)
        s += static_cast<double>(rep.counters[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)].*field);
      return s;
    });
  };
  double tapePeak = 0;
  for (const auto& rank : rep.counters)
    for (const IterCounters& c : rank)
      tapePeak = std::max(tapePeak, static_cast<double>(c.gradTapeHighWater));
  const double hits = counterSum(&IterCounters::lutHits);
  const double terms = counterSum(&IterCounters::termsEnumerated);
  const double probes = counterSum(&IterCounters::lutProbes);
  const double deduped = counterSum(&IterCounters::dedupedProbes);
  const double tracedIter = perIter([&](int i) { return lookupOr0(table[0][static_cast<std::size_t>(i)].seconds, "iteration"); });
  const double coverage = perIter([&](int i) {
    const IterSpans& c = table[0][static_cast<std::size_t>(i)];
    double stages = 0;
    for (const auto& [name, s] : c.seconds)
      if (name.rfind("stage.", 0) == 0) stages += s;
    return stages / lookupOr0(c.seconds, "iteration");
  });
  const double untracedIter = median(ref.iterSeconds);

  std::vector<LayerRow> rows = {
      {"setup.integrals_s", median(setup["setup.integrals_s"]), "s", "setup_s"},
      {"setup.scf_s", median(setup["setup.scf_s"]), "s", "setup_s"},
      {"setup.mo_s", median(setup["setup.mo_s"]), "s", "setup_s"},
      {"setup.jw_s", median(setup["setup.jw_s"]), "s", "setup_s"},
      {"setup.pack_s", median(setup["setup.pack_s"]), "s", "setup_s"},
      {"ops.pauli_terms", static_cast<double>(p.pauliTerms), "count", "setup_s, vmc.eloc_s"},
      {"nqs.sweep_s", spanMax("nqs.sweep"), "s", "iter_s"},
      {"nqs.phases_s", spanMax("nqs.phases"), "s", "iter_s"},
      {"nqs.unique_samples", perIter([&](int i) { return static_cast<double>(rep.nUnique[static_cast<std::size_t>(i)]); }), "count", "iter_s"},
      {"nqs.sweep_rows_copied", counterSum(&IterCounters::sweepRowsCopied), "count", "nqs.sweep_s"},
      {"nn.grad_s", spanMax("nn.grad"), "s", "iter_s"},
      {"nn.grad_tape_peak_mib", tapePeak * sizeof(Real) / (1024.0 * 1024.0), "MiB", "peak_rss_mib"},
      {"nn.optimizer_s", spanMax("nn.optimizer"), "s", "iter_s (h2o-table1)"},
      {"vmc.lut_build_s", spanMax("vmc.lut_build"), "s", "iter_s (h2o-table1)"},
      {"vmc.eloc_s", spanMax("vmc.eloc"), "s", "iter_s"},
      {"vmc.eloc_terms", terms, "count", "vmc.eloc_s"},
      {"vmc.eloc_useful_ratio", terms > 0 ? hits / terms : 0.0, "ratio", "vmc.eloc_s"},
      {"vmc.eloc_dedup_ratio", probes + deduped > 0 ? deduped / (probes + deduped) : 0.0, "ratio", "vmc.eloc_s"},
      {"vmc.rank_term_imbalance", perIter([&](int i) { return rep.rankTermImbalance[static_cast<std::size_t>(i)]; }), "ratio", "vmc.eloc_s (c2h4o-r4)"},
      {"comm.allgather_s", maxOverRanks([](const IterSpans& c, int, int) { return lookupOr0(c.transfer, "comm.allgather"); }), "s", "iter_s (c2h4o-r4)"},
      {"comm.allreduce_s", maxOverRanks([](const IterSpans& c, int, int) { return lookupOr0(c.transfer, "comm.allreduce"); }), "s", "iter_s (c2h4o-r4)"},
      {"comm.in_collective_s", maxOverRanks([](const IterSpans& c, int, int) {
         double s = c.wait;
         for (const auto& [name, t] : c.transfer) s += t;
         return s;
       }), "s", "iter_s (c2h4o-r4: mostly waiting for the slowest rank)"},
      {"comm.bytes_per_iter", counterSum(&IterCounters::commBytes), "bytes", "iter_s (c2h4o-r4)"},
  };
  static const std::pair<const char*, const char*> kStageMetrics[] = {
      {"stage.sample_s", "stage.sample"}, {"stage.gather_s", "stage.gather"},
      {"stage.eloc_s", "stage.eloc"},     {"stage.energy_s", "stage.energy"},
      {"stage.grad_s", "stage.grad"},     {"stage.update_s", "stage.update"}};
  for (const auto& [metricName, span] : kStageMetrics)
    rows.push_back({metricName, spanMax(span), "s", "iter_s"});
  // The last iteration's checkpoint is the only one the workload writes.
  double save = 0;
  for (const Span& s : tracer.spans(0))
    if (std::strcmp(s.name, "io.ckpt_save") == 0) save = s.seconds();
  const std::vector<LayerRow> ioServe = {
      {"io.ckpt_save_s", save, "s", "iter_s (last iteration)"},
      {"io.ckpt_load_s", median(sv.loadSeconds), "s", "setup_s"},
      {"io.ckpt_bytes", static_cast<double>(std::filesystem::file_size(ckpt)), "bytes",
       "io.ckpt_save_s, io.ckpt_load_s"},
      {"serve.start_s", median(sv.startSeconds), "s", "setup_s"},
      {"nn.evaluate_batch_ms", sv.evaluateBatchMs, "ms", "serve_p50_ms, serve_rows_per_s"},
      {"serve.rows_per_batch", static_cast<double>(sv.stats.rowsServed) / batches, "count",
       "serve_p50_ms"},
      {"serve.deadline_flush_ratio", static_cast<double>(sv.stats.deadlineFlushes) / batches,
       "ratio", "serve_p50_ms"},
      {"serve.queue_wait_ms", p50Ms - sv.evaluateBatchMs, "ms", "serve_p50_ms"},
  };
  rows.insert(rows.end(), ioServe.begin(), ioServe.end());
  rows.push_back({"trace.stage_coverage", coverage, "ratio", "-"});
  rows.push_back({"trace.overhead_ratio", tracedIter / untracedIter, "ratio", "-"});
  out.require(coverage >= 0.95 && coverage <= 1.0 + 1e-9,
              "stage spans cover the iteration within 5%");

  const std::string spanFile = args.workDir + "/trace-" + w.name + "-seed" +
                               std::to_string(args.seed) + ".json";
  tracer.writeJson(spanFile);
  std::remove(ckpt.c_str());
  std::remove(replayOpts.checkpointPath.c_str());

  std::printf("== traced run: %s, seed %llu, %d iterations (%d timed), %d rank(s) x 1 thread\n",
              w.name, static_cast<unsigned long long>(args.seed), nIter, nIter - 1, w.ranks);
  std::printf("replay energy history equals runVmc's bit for bit: %s\n",
              std::equal(ref.res.energyHistory.begin(), ref.res.energyHistory.end(),
                         rep.energyHistory.begin(), sameBits) ? "yes" : "NO");
  std::printf("iteration wall: traced %.6f s, untraced %.6f s; stage coverage %.4f\n",
              tracedIter, untracedIter, coverage);
  std::printf("collective wait (entry until the last rank enters), max over ranks: %.6f s\n",
              maxOverRanks([](const IterSpans& c, int, int) { return c.wait; }));
  std::printf("serve: %zu closed-loop requests in %.3f s, %llu batches (full %llu, deadline %llu, "
              "drain %llu), client p50 %.3f ms; throughput part %.0f rows/s\n",
              sv.latencySeconds.size(), sv.latencyWindowSeconds,
              static_cast<unsigned long long>(sv.stats.batches),
              static_cast<unsigned long long>(sv.stats.fullFlushes),
              static_cast<unsigned long long>(sv.stats.deadlineFlushes),
              static_cast<unsigned long long>(sv.stats.drainFlushes), p50Ms,
              sv.burstRowsPerSecond);
  printStages(table, nIter);
  reportLayers(rows, out);
  std::printf("spans: %s\n", spanFile.c_str());
}

}  // namespace

void runVmcWorkload(const RunArgs& args, Outcome& out) {
  const VmcWorkload& w = lookup(args.workload);
  // The workload's thread budget also bounds the OpenMP team of set-up and
  // checks on this thread: a 4-thread team on H2O's millisecond set-up
  // spends most of its time waking threads, 15x more on a busy host.
  omp_set_num_threads(w.ranks);
  if (args.trace)
    runTraced(w, args, out);
  else
    runUntraced(w, args, out);
}

}  // namespace perfbench
