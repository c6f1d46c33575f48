#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/modules.hpp"
#include "nn/optimizer.hpp"
#include "nn/transformer.hpp"

using namespace nnqs;
using namespace nnqs::nn;

namespace {

/// Full-sequence logits [B*window, 4] of `net` via the tape forward.
std::vector<Real> logitsOf(const TransformerAR& net, const std::vector<int>& tokens,
                           Index window) {
  Tape tape;
  tape.reset();
  TransformerAR::TapeFrame f;
  const auto rows = static_cast<Index>(tokens.size());
  const Real* y = net.forwardTape(tape, f, tokens.data(), rows, window);
  return {y, y + rows * TransformerAR::kOutcomes};
}

}  // namespace

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  Linear lin(3, 2, rng, "t");
  lin.w.value.setZero();
  lin.b.value.data = {1.5, -0.5};
  const std::vector<Real> x(2 * 3, 0.0);
  std::vector<Real> y(2 * 2, -1.0);
  lin.forwardInto(x.data(), 2, y.data());
  EXPECT_DOUBLE_EQ(y[0], 1.5);
  EXPECT_DOUBLE_EQ(y[1], -0.5);
  EXPECT_DOUBLE_EQ(y[2], 1.5);
  EXPECT_DOUBLE_EQ(y[3], -0.5);
}

TEST(Linear, LinearityProperty) {
  Rng rng(2);
  Linear lin(4, 3, rng, "t");
  Tensor x1({1, 4}), x2({1, 4});
  x1.randn(rng, 1.0);
  x2.randn(rng, 1.0);
  Tensor sum({1, 4});
  for (int i = 0; i < 4; ++i) sum.data[i] = x1.data[i] + x2.data[i];
  auto apply = [&](const Tensor& x) {
    std::vector<Real> y(3);
    lin.forwardInto(x.data.data(), 1, y.data());
    return y;
  };
  const auto y1 = apply(x1), y2 = apply(x2), ys = apply(sum);
  // f(a+b) = f(a) + f(b) - f(0) for affine maps.
  const auto y0 = apply(Tensor({1, 4}));
  for (int i = 0; i < 3; ++i)
    EXPECT_NEAR(ys[i], y1[i] + y2[i] - y0[i], 1e-12);
}

TEST(LayerNorm, OutputNormalized) {
  Rng rng(3);
  LayerNorm ln(8, "t");
  Tensor x({4, 8});
  x.randn(rng, 3.0);
  Tape tape;
  tape.reset();
  LayerNorm::TapeFrame f;
  const Real* y = ln.forwardTape(tape, f, x.data.data(), 4);
  for (int r = 0; r < 4; ++r) {
    Real mean = 0, var = 0;
    for (int i = 0; i < 8; ++i) mean += y[r * 8 + i];
    mean /= 8;
    for (int i = 0; i < 8; ++i) var += std::pow(y[r * 8 + i] - mean, 2);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Gelu, KnownValues) {
  Gelu g;
  const std::vector<Real> x = {0.0, 100.0, -100.0};
  Tape tape;
  tape.reset();
  Gelu::TapeFrame f;
  const Real* y = g.forwardTape(tape, f, x.data(), 3);
  EXPECT_NEAR(y[0], 0.0, 1e-12);
  EXPECT_NEAR(y[1], 100.0, 1e-6);
  EXPECT_NEAR(y[2], 0.0, 1e-6);
}

TEST(Embedding, LookupAddsPosition) {
  Rng rng(4);
  Embedding emb(5, 3, 2, rng, "t");
  const std::vector<int> tokens = {1, 0, 2};  // one sequence of length 3
  Tape tape;
  tape.reset();
  const Real* y = emb.forwardTape(tape, tokens.data(), 3, 3);
  for (int d = 0; d < 2; ++d) {
    EXPECT_NEAR(y[0 * 2 + d],
                emb.token.value.data[1 * 2 + d] + emb.position.value.data[0 * 2 + d],
                1e-14);
    EXPECT_NEAR(y[2 * 2 + d],
                emb.token.value.data[2 * 2 + d] + emb.position.value.data[2 * 2 + d],
                1e-14);
  }
}

TEST(TransformerAR, CausalityOfLogits) {
  // Changing a later token must not change earlier positions' logits.
  Rng rng(5);
  TransformerAR net(6, 16, 4, 2, rng);
  std::vector<int> tokens = {4, 1, 2, 0, 3, 1};
  const auto base = logitsOf(net, tokens, 6);
  tokens[5] = 0;  // mutate the last token
  const auto mut = logitsOf(net, tokens, 6);
  for (int pos = 0; pos < 5; ++pos)
    for (int t = 0; t < 4; ++t)
      EXPECT_NEAR(base[pos * 4 + t], mut[pos * 4 + t], 1e-12) << pos;
  // But the final position generally changes.
  Real diff = 0;
  for (int t = 0; t < 4; ++t) diff += std::abs(base[5 * 4 + t] - mut[5 * 4 + t]);
  EXPECT_GT(diff, 1e-8);
}

TEST(TransformerAR, PrefixWindowConsistency) {
  // Logits at position s computed from a window of length s+1 must equal the
  // same positions computed from the full window (the sampler relies on it).
  Rng rng(6);
  TransformerAR net(5, 16, 4, 2, rng);
  const std::vector<int> full = {4, 0, 3, 1, 2};
  const auto all = logitsOf(net, full, 5);
  for (int w = 1; w <= 5; ++w) {
    const std::vector<int> prefix(full.begin(), full.begin() + w);
    const auto part = logitsOf(net, prefix, w);
    for (int t = 0; t < 4; ++t)
      EXPECT_NEAR(part[(w - 1) * 4 + t], all[(w - 1) * 4 + t], 1e-10);
  }
}

TEST(TransformerAR, ForwardTapeRejectsBadWindow) {
  // A window longer than the sequence would read past the positional
  // embedding; rows that do not cover whole windows have no batch shape.
  Rng rng(7);
  TransformerAR net(4, 8, 2, 1, rng);
  Tape tape;
  tape.reset();
  TransformerAR::TapeFrame f;
  const std::vector<int> tokens(10, TransformerAR::kBos);
  EXPECT_THROW(net.forwardTape(tape, f, tokens.data(), 10, 5), std::invalid_argument);
  EXPECT_THROW(net.forwardTape(tape, f, tokens.data(), 10, 4), std::invalid_argument);
  EXPECT_THROW(net.forwardTape(tape, f, tokens.data(), 10, 0), std::invalid_argument);
  EXPECT_NO_THROW(net.forwardTape(tape, f, tokens.data(), 10, 2));
}

// ---- never-recorded frames: backwardTape on a frame no forwardTape filled
// throws the typed StaleTapeError naming the module, instead of reading
// through null activation pointers.

TEST(TapeFrame, BackwardOnNeverRecordedFrameThrowsNamingTheModule) {
  Rng rng(21);
  Tape tape;
  tape.reset();
  std::vector<Real> dy(64, 0.5);
  auto expectError = [](const auto& call, const char* name) {
    try {
      call();
      FAIL() << "expected StaleTapeError for " << name;
    } catch (const StaleTapeError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  };
  Linear lin(3, 2, rng, "enc.ff1");
  Linear::TapeFrame lf;
  lf.rows = 2;
  expectError([&] { lin.backwardTape(tape, lf, dy.data()); }, "enc.ff1");
  LayerNorm ln(4, "enc.ln1");
  LayerNorm::TapeFrame nf;
  nf.rows = 2;
  expectError([&] { ln.backwardTape(tape, nf, dy.data()); }, "enc.ln1");
  Gelu g("enc.gelu");
  Gelu::TapeFrame gf;
  gf.n = 4;
  expectError([&] { g.backwardTape(tape, gf, dy.data()); }, "enc.gelu");
  TanhAct t("phase.tanh0");
  TanhAct::TapeFrame tf;
  tf.n = 4;
  expectError([&] { t.backwardTape(tape, tf, dy.data()); }, "phase.tanh0");
  CausalSelfAttention attn(8, 2, rng, "blk0.attn");
  CausalSelfAttention::TapeFrame af;
  af.batch = 2;
  af.window = 3;
  expectError([&] { attn.backwardTape(tape, af, dy.data()); }, "blk0.attn");
}

// ---- empty-batch regression: a recorded zero-row frame is valid (empty
// batches occur on ranks with no local samples); its backward is a no-op,
// not a logic_error.

TEST(EmptyBatch, EmbeddingEmptyTapeBackwardIsNoOp) {
  Rng rng(27);
  Embedding emb(5, 4, 3, rng, "t");
  Tape tape;
  tape.reset();
  emb.forwardTape(tape, nullptr, 0, 4);
  EXPECT_NO_THROW(emb.backwardTape(nullptr, 0, 4, nullptr));
  for (Real v : emb.token.grad.data) EXPECT_EQ(v, 0.0);
}

TEST(EmptyBatch, LinearEmptyTapeBackwardIsNoOp) {
  Rng rng(28);
  Linear lin(3, 2, rng, "t");
  Tape tape;
  tape.reset();
  Linear::TapeFrame f;
  const std::vector<Real> none(1);
  lin.forwardTape(tape, f, none.data(), 0);
  EXPECT_NO_THROW(lin.backwardTape(tape, f, none.data()));
  for (Real v : lin.w.grad.data) EXPECT_EQ(v, 0.0);
  for (Real v : lin.b.grad.data) EXPECT_EQ(v, 0.0);
}

TEST(AdamW, ConvergesOnQuadratic) {
  // Minimize ||x - c||^2 with AdamW (weight decay off).
  Parameter p({4}, "x");
  const Real target[4] = {1.0, -2.0, 0.5, 3.0};
  AdamWOptions opts;
  opts.lr = 0.05;
  opts.weightDecay = 0.0;
  AdamW opt({&p}, opts);
  for (int it = 0; it < 2000; ++it) {
    for (int i = 0; i < 4; ++i) p.grad.data[i] = 2.0 * (p.value.data[i] - target[i]);
    opt.step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(p.value.data[i], target[i], 1e-3);
}

TEST(NoamSchedule, WarmupShape) {
  NoamSchedule sched(16, 100);
  // Rises during warmup, falls after.
  EXPECT_LT(sched.lr(1), sched.lr(50));
  EXPECT_LT(sched.lr(50), sched.lr(100));
  EXPECT_GT(sched.lr(100), sched.lr(400));
  // Peak value = dModel^-0.5 * warmup^-0.5.
  EXPECT_NEAR(sched.lr(100), 0.25 / 10.0, 1e-12);
}
