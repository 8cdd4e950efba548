#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

void Verdict::Expect(bool ok, const std::string& what) {
  if (ok) return;
  if (++failures_ <= 5) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string CheckGraph(const cpgan::graph::Graph& g, int nodes,
                       int64_t requested_edges, EdgeRule rule) {
  if (g.num_nodes() != nodes) {
    return "node count " + std::to_string(g.num_nodes()) + " != requested " +
           std::to_string(nodes);
  }
  std::vector<std::pair<int, int>> edges = g.Edges();
  std::vector<int64_t> degree(nodes, 0);
  for (auto& [u, v] : edges) {
    if (u < 0 || v < 0 || u >= nodes || v >= nodes) return "endpoint out of range";
    if (u == v) return "self-loop at " + std::to_string(u);
    ++degree[u];
    ++degree[v];
    if (u > v) std::swap(u, v);
  }
  std::sort(edges.begin(), edges.end());
  if (std::adjacent_find(edges.begin(), edges.end()) != edges.end()) {
    return "duplicate edge";
  }
  const int64_t m = static_cast<int64_t>(edges.size());
  int64_t degree_total = 0;
  for (int v = 0; v < nodes; ++v) {
    degree_total += degree[v];
    if (degree[v] != g.degree(v)) return "degree mismatch at " + std::to_string(v);
  }
  if (degree_total != 2 * m || m != g.num_edges()) {
    return "degree total " + std::to_string(degree_total) + " != 2 x " +
           std::to_string(g.num_edges());
  }
  if (rule == EdgeRule::kExact && m != requested_edges) {
    return "edge count " + std::to_string(m) + " != requested " +
           std::to_string(requested_edges);
  }
  if (rule == EdgeRule::kAtMost && (m == 0 || m > requested_edges)) {
    return "edge count " + std::to_string(m) + " outside (0, " +
           std::to_string(requested_edges) + "]";
  }
  return "";
}

bool BitwiseEqual(const std::vector<cpgan::tensor::Matrix>& a,
                  const std::vector<cpgan::tensor::Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t l = 0; l < a.size(); ++l) {
    if (a[l].rows() != b[l].rows() || a[l].cols() != b[l].cols()) return false;
    for (int r = 0; r < a[l].rows(); ++r) {
      if (std::memcmp(a[l].Row(r), b[l].Row(r),
                      sizeof(float) * static_cast<size_t>(a[l].cols())) != 0) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::pair<int, int>> Canonical(
    std::vector<std::pair<int, int>> edges) {
  for (auto& [u, v] : edges) {
    if (u > v) std::swap(u, v);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

bool ReadEdgePairs(const std::string& path,
                   std::vector<std::pair<int, int>>* edges) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  edges->clear();
  int u = 0;
  int v = 0;
  int got = 0;
  while ((got = std::fscanf(f, "%d %d", &u, &v)) == 2) edges->push_back({u, v});
  const bool at_end = got == EOF;
  std::fclose(f);
  return at_end;
}

}  // namespace perfbench
