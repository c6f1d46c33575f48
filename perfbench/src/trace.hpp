#pragma once

// In-memory span recorder of the traced run.  The benchmark opens a span
// around each call it makes into a layer's public API; spans are kept in
// per-rank vectors (each rank thread writes only its own) and written out as
// JSON when the run ends.  Nothing inside the library is instrumented.

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;  ///< static string, e.g. "nqs.sweep"
  int rank;
  int iteration;     ///< -1 outside the iteration loop
  int parent;        ///< index into the same rank's spans, -1 for a root
  double start, end; ///< nowSeconds()
  [[nodiscard]] double seconds() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(int nRanks) : ranks_(static_cast<std::size_t>(nRanks)) {}

  /// Open a span on `rank`; its parent is the rank's innermost open span.
  int open(int rank, const char* name, int iteration);
  void close(int rank, int id);

  [[nodiscard]] int nRanks() const { return static_cast<int>(ranks_.size()); }
  [[nodiscard]] const std::vector<Span>& spans(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].spans;
  }
  /// A span's duration minus the time its direct children cover.
  [[nodiscard]] double selfSeconds(int rank, int id) const;

  /// All spans as a JSON array (start/end in seconds).
  void writeJson(const std::string& path) const;

 private:
  struct RankLog {
    std::vector<Span> spans;
    std::vector<int> stack;
  };
  std::vector<RankLog> ranks_;
};

/// RAII span; a null tracer records nothing (the check replay runs untraced).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, int rank, const char* name, int iteration)
      : t_(t), rank_(rank), id_(t != nullptr ? t->open(rank, name, iteration) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->close(rank_, id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  int rank_, id_;
};

}  // namespace perfbench
