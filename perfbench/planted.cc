#include "planted.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <unordered_set>

namespace perfbench {
namespace {

// SplitMix64: a self-contained generator, so the input depends on the seed
// and this file only.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int Below(int n) { return static_cast<int>(Uniform() * n); }

 private:
  uint64_t state_;
};

// Draws an index with probability proportional to its weight.
class WeightedPicker {
 public:
  explicit WeightedPicker(const std::vector<double>& weights)
      : cumulative_(weights.size()) {
    std::partial_sum(weights.begin(), weights.end(), cumulative_.begin());
  }
  int Pick(Rng& rng) const {
    const double target = rng.Uniform() * cumulative_.back();
    auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), target);
    return static_cast<int>(
        std::min<size_t>(it - cumulative_.begin(), cumulative_.size() - 1));
  }

 private:
  std::vector<double> cumulative_;
};

constexpr int kNodes = 3000;
constexpr int kCommunities = 12;
constexpr int64_t kEdges = 9000;
constexpr double kSizeZipf = 0.8;       // community c gets a share ~ (c+1)^-0.8
constexpr double kIntraFraction = 0.9;  // share of edge draws kept inside a community
constexpr double kDegreeAlpha = 2.5;    // Pareto tail index of the node weights
constexpr double kMaxWeight = 40.0;     // cap on a node weight (minimum weight is 1)

}  // namespace

PlantedGraph MakePlanted(uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 0x1234567ULL);
  const int n = kNodes;
  const int k = kCommunities;

  // Zipf community sizes by largest remainder, each at least 2 nodes.
  std::vector<double> share(k);
  for (int c = 0; c < k; ++c) share[c] = std::pow(c + 1.0, -kSizeZipf);
  const double total_share = std::accumulate(share.begin(), share.end(), 0.0);
  PlantedGraph g;
  g.num_nodes = n;
  g.community_sizes.assign(k, 2);
  int assigned = 2 * k;
  std::vector<std::pair<double, int>> remainder;
  for (int c = 0; c < k; ++c) {
    const double exact = share[c] / total_share * (n - 2 * k);
    g.community_sizes[c] += static_cast<int>(exact);
    assigned += static_cast<int>(exact);
    remainder.push_back({exact - std::floor(exact), c});
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (int i = 0; assigned < n; ++i, ++assigned) {
    ++g.community_sizes[remainder[i % k].second];
  }

  // Planted order: community c owns a contiguous block. A random
  // permutation then maps planted positions to node ids.
  std::vector<int> community_of(n);
  std::vector<int> block_start(k + 1, 0);
  for (int c = 0; c < k; ++c) {
    block_start[c + 1] = block_start[c] + g.community_sizes[c];
    for (int i = block_start[c]; i < block_start[c + 1]; ++i) {
      community_of[i] = c;
    }
  }
  std::vector<int> id_of(n);
  std::iota(id_of.begin(), id_of.end(), 0);
  for (int i = n - 1; i > 0; --i) std::swap(id_of[i], id_of[rng.Below(i + 1)]);

  // Pareto node weights (x_min = 1), capped.
  std::vector<double> weight(n);
  for (int i = 0; i < n; ++i) {
    const double u = 1.0 - rng.Uniform();  // (0, 1]
    weight[i] = std::min(kMaxWeight, std::pow(u, -1.0 / kDegreeAlpha));
  }
  const WeightedPicker global(weight);
  std::vector<WeightedPicker> inside;
  for (int c = 0; c < k; ++c) {
    inside.emplace_back(std::vector<double>(weight.begin() + block_start[c],
                                            weight.begin() + block_start[c + 1]));
  }

  std::unordered_set<uint64_t> seen;
  const int64_t max_edges = static_cast<int64_t>(n) * (n - 1) / 2;
  const int64_t target = std::min(kEdges, max_edges / 2);
  while (static_cast<int64_t>(g.edges.size()) < target) {
    const int a = global.Pick(rng);
    const int c = community_of[a];
    const int b = rng.Uniform() < kIntraFraction
                      ? block_start[c] + inside[c].Pick(rng)
                      : global.Pick(rng);
    if (a == b) continue;
    int u = id_of[a];
    int v = id_of[b];
    if (u > v) std::swap(u, v);
    if (!seen.insert(static_cast<uint64_t>(u) << 32 | static_cast<uint32_t>(v))
             .second) {
      continue;
    }
    g.edges.push_back({u, v});
  }
  std::sort(g.edges.begin(), g.edges.end());
  g.labels.assign(n, 0);
  for (int i = 0; i < n; ++i) g.labels[id_of[i]] = community_of[i];
  return g;
}

bool WriteEdgeList(const PlantedGraph& g, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f, "# nodes %d\n", g.num_nodes) > 0;
  for (const auto& [u, v] : g.edges) {
    ok = ok && std::fprintf(f, "%d %d\n", u, v) > 0;
  }
  return std::fclose(f) == 0 && ok;
}

double SameLabelShare(const std::vector<std::pair<int, int>>& edges,
                      const std::vector<int>& labels) {
  if (edges.empty()) return 0.0;
  int64_t same = 0;
  for (const auto& [u, v] : edges) same += labels[u] == labels[v];
  return static_cast<double>(same) / static_cast<double>(edges.size());
}

double Nmi(const std::vector<int>& a, const std::vector<int>& b) {
  const double n = static_cast<double>(a.size());
  if (a.empty() || a.size() != b.size()) return 0.0;
  std::map<std::pair<int, int>, double> joint;
  std::map<int, double> pa;
  std::map<int, double> pb;
  for (size_t i = 0; i < a.size(); ++i) {
    joint[{a[i], b[i]}] += 1.0;
    pa[a[i]] += 1.0;
    pb[b[i]] += 1.0;
  }
  auto entropy = [n](const std::map<int, double>& counts) {
    double h = 0.0;
    for (const auto& [label, count] : counts) h -= count / n * std::log(count / n);
    return h;
  };
  double mi = 0.0;
  for (const auto& [key, count] : joint) {
    mi += count / n * std::log(count * n / (pa[key.first] * pb[key.second]));
  }
  const double denom = 0.5 * (entropy(pa) + entropy(pb));
  return denom > 0.0 ? mi / denom : 0.0;
}

}  // namespace perfbench
