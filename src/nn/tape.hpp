#pragma once

#include <stdexcept>
#include <string>

#include "nn/workspace.hpp"

namespace nnqs::nn {

/// Mode of a QiankunNet::evaluate call.  Evaluation is inference only: the
/// network's modules hold no activations between calls, and training runs
/// through QiankunNet::evaluateGrad, which records and consumes its own
/// activations tile by tile on a Tape.
enum class GradMode {
  kInference,
};

/// Thrown when a module's backwardTape() is handed a frame that no
/// forwardTape() has recorded.  The message names the module instance, in
/// the typed-error style of io/checkpoint.hpp.  Derives from std::logic_error
/// because it reports a caller bug.
class StaleTapeError : public std::logic_error {
 public:
  explicit StaleTapeError(const std::string& module)
      : std::logic_error(module +
                         ": backwardTape frame was never recorded by forwardTape") {}
};

/// Caller-owned activation store of the full-sequence forward/backward: one
/// bump-carve arena (nn::Workspace) holding a single tile's forward
/// activations plus its backward scratch.  Callers reset the tape between
/// tiles, so peak activation memory is the high-water mark of ONE tile,
/// O(tile * L * d), whatever the batch size.  A warm tile (same shapes as the
/// last) carves without touching the heap.
///
/// Recording convention: each module's forwardTape() carves its outputs (and
/// any backward caches, e.g. LayerNorm's xhat/invStd) from the tape and
/// stores the span pointers in a caller-held per-module frame struct;
/// backwardTape() consumes the frame.  Spans stay valid until the next
/// reset().  In particular a module may record its *input* span zero-copy,
/// because that span is the previous module's tape-carved output.  Modules
/// themselves keep no activations, so concurrent forwards on distinct tapes
/// only read shared state (the parameters).
class Tape {
 public:
  /// Drop every recorded span (start the next tile's carve cycle).
  void reset() { ws_.reset(); }
  /// Pre-size the arena for `n` more Reals; only valid directly after
  /// reset(), like Workspace::reserve.
  void reserve(Index n) { ws_.reserve(n); }
  /// Carve `n` uninitialized Reals, 64-byte aligned, valid until reset().
  Real* alloc(Index n) { return ws_.alloc(n); }
  /// Arena accounting: highWater is the peak Reals live in any one tile —
  /// the "peak activation memory" number BM_BackwardTiled reports.
  [[nodiscard]] const Workspace::Stats& stats() const { return ws_.stats(); }

 private:
  Workspace ws_;
};

}  // namespace nnqs::nn
