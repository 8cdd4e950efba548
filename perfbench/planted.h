#ifndef CPGAN_PERFBENCH_PLANTED_H_
#define CPGAN_PERFBENCH_PLANTED_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct PlantedGraph {
  int num_nodes = 0;
  std::vector<std::pair<int, int>> edges;  // u < v, sorted, no duplicates
  std::vector<int> labels;                 // planted community per node id
  std::vector<int> community_sizes;        // in planted (descending) order
};

/// Builds the benchmark's input graph from `seed` alone, with its own
/// generator (it shares no code with the program's generators): a
/// degree-corrected planted partition of 3000 nodes, 9000 edges and 12
/// communities. Community sizes follow a Zipf law, node weights a Pareto
/// tail, and community ids are scattered over node ids by a seeded random
/// permutation, so no method can profit from id order.
PlantedGraph MakePlanted(uint64_t seed);

/// Writes a text edge list with a `# nodes N` header. Returns false on an
/// I/O error.
bool WriteEdgeList(const PlantedGraph& g, const std::string& path);

/// Share of edges whose endpoints carry the same label.
double SameLabelShare(const std::vector<std::pair<int, int>>& edges,
                      const std::vector<int>& labels);

/// Normalized mutual information (arithmetic-mean normalization) of two
/// labelings of the same nodes, computed from their contingency table.
double Nmi(const std::vector<int>& a, const std::vector<int>& b);

}  // namespace perfbench

#endif  // CPGAN_PERFBENCH_PLANTED_H_
