#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

int Tracer::open(int rank, const char* name, int iteration) {
  RankLog& log = ranks_[static_cast<std::size_t>(rank)];
  const int parent = log.stack.empty() ? -1 : log.stack.back();
  log.spans.push_back({name, rank, iteration, parent, nowSeconds(), 0.0});
  const int id = static_cast<int>(log.spans.size()) - 1;
  log.stack.push_back(id);
  return id;
}

void Tracer::close(int rank, int id) {
  RankLog& log = ranks_[static_cast<std::size_t>(rank)];
  if (log.stack.empty() || log.stack.back() != id)
    throw std::logic_error("Tracer: spans closed out of order");
  log.spans[static_cast<std::size_t>(id)].end = nowSeconds();
  log.stack.pop_back();
}

double Tracer::selfSeconds(int rank, int id) const {
  const std::vector<Span>& s = spans(rank);
  double self = s[static_cast<std::size_t>(id)].seconds();
  // Children follow their parent in open order and precede its next sibling.
  for (std::size_t j = static_cast<std::size_t>(id) + 1; j < s.size(); ++j) {
    if (s[j].start >= s[static_cast<std::size_t>(id)].end) break;
    if (s[j].parent == id) self -= s[j].seconds();
  }
  return self;
}

void Tracer::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write span file " + path);
  std::fprintf(f, "[\n");
  bool first = true;
  for (const RankLog& log : ranks_)
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
      const Span& s = log.spans[i];
      std::fprintf(f,
                   "%s{\"id\": %zu, \"name\": \"%s\", \"rank\": %d, \"iteration\": %d, "
                   "\"parent\": %d, \"start\": %.9f, \"end\": %.9f}",
                   first ? "" : ",\n", i, s.name, s.rank, s.iteration, s.parent,
                   s.start, s.end);
      first = false;
    }
  std::fprintf(f, "\n]\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write span file " + path);
}

}  // namespace perfbench
