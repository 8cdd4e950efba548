#ifndef CPGAN_PERFBENCH_CHECKS_H_
#define CPGAN_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "tensor/matrix.h"

namespace perfbench {

/// Records the outcome of every correctness check of a run. A failed check
/// makes the run incorrect; the first few reasons go to stderr.
class Verdict {
 public:
  void Expect(bool ok, const std::string& what);
  bool correct() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

/// How many edges a generated graph must have.
enum class EdgeRule {
  kExact,   // flat assembly: exactly the requested count
  kAtMost,  // hierarchical assembly: more than zero, at most the request
};

/// Checks a generated graph against properties every output must have:
/// the requested node count, endpoints in range, no self-loops, no
/// duplicate edges, a degree total (counted here from the edge list) of
/// twice the edge count that agrees with the graph's own degrees, and the
/// edge count `rule` asks for. Returns an empty string when all hold.
std::string CheckGraph(const cpgan::graph::Graph& g, int nodes,
                       int64_t requested_edges, EdgeRule rule);

/// Bitwise equality of two latent stacks.
bool BitwiseEqual(const std::vector<cpgan::tensor::Matrix>& a,
                  const std::vector<cpgan::tensor::Matrix>& b);

/// Canonical (u < v, sorted) copy of an edge list.
std::vector<std::pair<int, int>> Canonical(
    std::vector<std::pair<int, int>> edges);

/// Reads an edge list written as one "u v" pair per line. Returns false
/// when the file cannot be read or a line does not parse.
bool ReadEdgePairs(const std::string& path,
                   std::vector<std::pair<int, int>>* edges);

}  // namespace perfbench

#endif  // CPGAN_PERFBENCH_CHECKS_H_
