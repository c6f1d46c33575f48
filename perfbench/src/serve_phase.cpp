// The serve phase of every workload: an AmplitudeServer on the checkpoint
// the workload's VMC round just wrote.  First closed-loop clients that each
// wait for every answer before sending the next query (latency), then
// clients that keep several queries in flight (throughput).

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "io/checkpoint.hpp"
#include "serve/amplitude_server.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace nnqs;

constexpr std::size_t kPoolSize = 4096;  ///< configurations queried (drawn with repetition)
constexpr std::size_t kRowsPerRequest = 64;
constexpr int kClients = 2;
/// Every round sends the same number of requests, so the operation counts
/// repeat exactly; 2 x 1000 leaves 20 requests beyond the 99th percentile.
constexpr std::size_t kRequestsPerClient = 1000;
/// Mean of each client's exponential pause between an answer and its next
/// query.  Without it the two clients fall into lock-step or staggered
/// phases at random and stay there, and the served batch size (and p50
/// with it) swings between runs; random pauses keep mixing the phases.
constexpr double kThinkSeconds = 1e-3;
/// Throughput part: each client keeps kBurstWindow queries in flight, so
/// the queue always holds a full maxBatch of rows for both workers.
constexpr std::size_t kBurstWindow = 4;
constexpr std::size_t kBurstRequestsPerClient = 1500;
/// The throughput part's rate is the median over this many slices of equal
/// request counts, so that a second of stolen CPU moves one slice, not the
/// whole figure.
constexpr std::size_t kBurstSlices = 10;
constexpr int kEvalRepeats = 30;
constexpr int kSetupRepeats = 5;

serve::ServeOptions serveOptions() {
  serve::ServeOptions o;
  o.nWorkers = 2;
  o.maxBatch = 256;
  o.maxDelayUs = 200;
  return o;
}

/// Number-conserving configurations of the sector, uniformly at random.
std::vector<Bits128> configPool(const Sector& sec, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Bits128> pool(kPoolSize);
  std::vector<int> orb(static_cast<std::size_t>(sec.nOrb));
  for (Bits128& x : pool) {
    for (int spin = 0; spin < 2; ++spin) {
      for (int o = 0; o < sec.nOrb; ++o) orb[static_cast<std::size_t>(o)] = o;
      const int n = spin == 0 ? sec.nAlpha : sec.nBeta;
      for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        std::swap(orb[ui], orb[ui + rng.below(static_cast<std::uint64_t>(sec.nOrb - i))]);
        x.set(2 * orb[ui] + spin);
      }
    }
  }
  return pool;
}

struct ClientLog {
  std::vector<double> latencySeconds;
  std::vector<std::uint32_t> rows;  ///< pool index of every served row
  std::vector<Real> logAmp, phase;  ///< served values, aligned with rows
  std::vector<double> answeredAt;   ///< throughput part: nowSeconds() of every answer
  std::uint64_t refused = 0;

  void drawRequest(Rng& rng, const std::vector<Bits128>& pool, std::vector<Bits128>& configs,
                   std::vector<std::uint32_t>& idx) const {
    for (std::size_t i = 0; i < kRowsPerRequest; ++i) {
      idx[i] = static_cast<std::uint32_t>(rng.below(pool.size()));
      configs[i] = pool[idx[i]];
    }
  }
  void record(const std::vector<std::uint32_t>& idx, const std::vector<Real>& la,
              const std::vector<Real>& ph) {
    rows.insert(rows.end(), idx.begin(), idx.end());
    logAmp.insert(logAmp.end(), la.begin(), la.end());
    phase.insert(phase.end(), ph.begin(), ph.end());
  }
};

void runClient(serve::AmplitudeServer& server, const std::vector<Bits128>& pool,
               std::uint64_t seed, ClientLog& log) {
  Rng rng(seed);
  std::vector<Bits128> configs(kRowsPerRequest);
  std::vector<std::uint32_t> idx(kRowsPerRequest);
  std::vector<Real> la(kRowsPerRequest), ph(kRowsPerRequest);
  for (std::size_t q = 0; q < kRequestsPerClient; ++q) {
    log.drawRequest(rng, pool, configs, idx);
    const double t0 = nowSeconds();
    const serve::QueryStatus st = server.query(configs.data(), configs.size(), la.data(), ph.data());
    const double t1 = nowSeconds();
    if (st != serve::QueryStatus::kOk) {
      ++log.refused;
      continue;
    }
    log.latencySeconds.push_back(t1 - t0);
    log.record(idx, la, ph);
    std::this_thread::sleep_for(std::chrono::duration<double>(
        -kThinkSeconds * std::log(1.0 - rng.uniform())));
  }
}

/// Keeps kBurstWindow queries in flight: waits for the oldest, then submits
/// the next in its place.
void runBurstClient(serve::AmplitudeServer& server, const std::vector<Bits128>& pool,
                    std::uint64_t seed, ClientLog& log) {
  struct InFlight {
    serve::AmplitudeServer::Ticket ticket;
    std::vector<Bits128> configs = std::vector<Bits128>(kRowsPerRequest);
    std::vector<std::uint32_t> idx = std::vector<std::uint32_t>(kRowsPerRequest);
    std::vector<Real> la = std::vector<Real>(kRowsPerRequest);
    std::vector<Real> ph = std::vector<Real>(kRowsPerRequest);
    bool live = false;
  };
  Rng rng(seed);
  std::array<InFlight, kBurstWindow> window;
  for (std::size_t q = 0; q < kBurstRequestsPerClient + kBurstWindow; ++q) {
    InFlight& f = window[q % kBurstWindow];
    if (f.live) {
      f.live = false;
      if (server.wait(f.ticket) == serve::QueryStatus::kOk) {
        log.answeredAt.push_back(nowSeconds());
        log.record(f.idx, f.la, f.ph);
      } else {
        ++log.refused;
      }
    }
    if (q >= kBurstRequestsPerClient) continue;
    log.drawRequest(rng, pool, f.configs, f.idx);
    f.live = server.submit(f.configs.data(), kRowsPerRequest, f.la.data(), f.ph.data(),
                           f.ticket) == serve::QueryStatus::kOk;
    if (!f.live) ++log.refused;
  }
}

/// Rows per second, median over kBurstSlices slices of the answers in
/// time order.
double sliceMedianRate(const std::vector<ClientLog>& logs, double start) {
  std::vector<double> at;
  for (const ClientLog& c : logs) at.insert(at.end(), c.answeredAt.begin(), c.answeredAt.end());
  std::sort(at.begin(), at.end());
  std::vector<double> rates;
  double sliceStart = start;
  for (std::size_t k = 1; k <= kBurstSlices; ++k) {
    const std::size_t first = (k - 1) * at.size() / kBurstSlices, last = k * at.size() / kBurstSlices;
    if (last == first) continue;
    rates.push_back(static_cast<double>((last - first) * kRowsPerRequest) / (at[last - 1] - sliceStart));
    sliceStart = at[last - 1];
  }
  return median(rates);
}

/// Runs `client` on kClients threads with per-client seeds, starting at
/// `start`; returns the wall time until the last one finished.
template <class Client>
double runClients(const Client& client, std::uint64_t seed, std::vector<ClientLog>& logs,
                  double start = nowSeconds()) {
  logs.assign(kClients, ClientLog{});
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        client(deriveSeed(seed, static_cast<std::uint64_t>(c)), logs[static_cast<std::size_t>(c)]);
      });
  }
  return nowSeconds() - start;
}

/// Served rows must equal the full-forward evaluate of the same rows bit for
/// bit, on a net loaded from the same checkpoint: a separate engine from the
/// served teacher-forced decode path.  One operation per request.
void checkRequests(const std::vector<ClientLog>& clients, const std::vector<Bits128>& pool,
                   nqs::QiankunNet& net, std::uint64_t rowsServed, Outcome& out) {
  exec::ExecutionPolicy fullForward;
  fullForward.decode = exec::DecodePolicy::kFullForward;
  net.setEvalPolicy(fullForward);
  std::vector<Real> refLa, refPh;
  net.evaluate(pool, refLa, refPh, nn::GradMode::kInference);
  std::uint64_t mismatched = 0, refused = 0;
  for (const ClientLog& c : clients) {
    refused += c.refused;
    for (std::uint64_t r = 0; r < c.refused; ++r) out.op(false);
    for (std::size_t q = 0; q < c.rows.size() / kRowsPerRequest; ++q) {
      bool same = true;
      for (std::size_t i = q * kRowsPerRequest; i < (q + 1) * kRowsPerRequest; ++i)
        same = same && std::memcmp(&c.logAmp[i], &refLa[c.rows[i]], sizeof(Real)) == 0 &&
               std::memcmp(&c.phase[i], &refPh[c.rows[i]], sizeof(Real)) == 0;
      mismatched += same ? 0 : 1;
      out.op(same);
    }
  }
  out.require(mismatched == 0, std::to_string(mismatched) +
                                   " requests differ from the full-forward reference");
  const std::uint64_t rowsSubmitted =
      kClients * (kRequestsPerClient + kBurstRequestsPerClient) * kRowsPerRequest;
  out.require(rowsServed + refused * kRowsPerRequest == rowsSubmitted,
              "rows served equal rows submitted");
}

}  // namespace

ServeResult servePhase(const std::string& checkpointPath, const Sector& sector,
                       std::uint64_t seed, Tracer* tracer, Outcome& out) {
  ServeResult s;
  std::unique_ptr<serve::AmplitudeServer> server;
  std::unique_ptr<io::CheckpointReader> reader;
  for (int k = 0; k < kSetupRepeats; ++k) {
    server.reset();
    const double t0 = nowSeconds();
    {
      const ScopedSpan span(tracer, 0, "io.ckpt_load", -1);
      reader = std::make_unique<io::CheckpointReader>(checkpointPath);
    }
    const double t1 = nowSeconds();
    {
      const ScopedSpan span(tracer, 0, "serve.start", -1);
      server = std::make_unique<serve::AmplitudeServer>(*reader, serveOptions());
    }
    const double t2 = nowSeconds();
    s.setupSeconds.push_back(t2 - t0);
    s.loadSeconds.push_back(t1 - t0);
    s.startSeconds.push_back(t2 - t1);
  }
  const std::vector<Bits128> pool = configPool(sector, deriveSeed(seed, 4));
  const std::unique_ptr<nqs::QiankunNet> net = io::makeNet(*reader);

  std::vector<ClientLog> clients, burst;
  s.latencyWindowSeconds = runClients(
      [&](std::uint64_t cs, ClientLog& log) { runClient(*server, pool, cs, log); },
      deriveSeed(seed, 10), clients);
  s.stats = server->stats();
  const double burstStart = nowSeconds();
  s.burstSeconds = runClients(
      [&](std::uint64_t cs, ClientLog& log) { runBurstClient(*server, pool, cs, log); },
      deriveSeed(seed, 11), burst, burstStart);
  server->shutdown();
  const serve::ServeStats total = server->stats();
  server.reset();
  for (const ClientLog& c : clients)
    s.latencySeconds.insert(s.latencySeconds.end(), c.latencySeconds.begin(),
                            c.latencySeconds.end());
  if (s.latencySeconds.empty() || total.rowsServed == s.stats.rowsServed)
    throw std::runtime_error("the server answered no request");
  s.burstRowsPerSecond = sliceMedianRate(burst, burstStart);

  if (tracer != nullptr) {
    // evaluateInto on one EvalSlot at the served batch size.
    const double batches = static_cast<double>(std::max<std::uint64_t>(1, s.stats.batches));
    const auto batchRows = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(static_cast<double>(s.stats.rowsServed) / batches)),
        1, pool.size());
    net->prepareConcurrent();
    nqs::QiankunNet::EvalSlot slot;
    const std::vector<Bits128> batch(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(batchRows));
    std::vector<Real> la, ph;
    const serve::ServeOptions so = serveOptions();
    net->evaluateInto(slot, batch, la, ph, so.kernel, so.tileRows);  // warm
    std::vector<double> evalMs;
    for (int k = 0; k < kEvalRepeats; ++k) {
      const double t0 = nowSeconds();
      {
        const ScopedSpan span(tracer, 0, "nn.evaluate_batch", -1);
        net->evaluateInto(slot, batch, la, ph, so.kernel, so.tileRows);
      }
      evalMs.push_back(1e3 * (nowSeconds() - t0));
    }
    s.evaluateBatchMs = median(evalMs);
  }
  clients.insert(clients.end(), burst.begin(), burst.end());
  checkRequests(clients, pool, *net, total.rowsServed, out);
  return s;
}

}  // namespace perfbench
