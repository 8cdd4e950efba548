#include "pipeline.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "data/loader.h"
#include "train/checkpoint.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace core = cpgan::core;
namespace serve = cpgan::serve;

namespace {

// Whole rounds every measured run completes, whatever the time budget.
constexpr int kMinRounds = 2;

/// A run's value for a timing measured in cells (an input, or an input and
/// request kind): the median of each cell's samples, averaged over the
/// cells with equal weight, so every graph weighs the same however many
/// rounds fit in the run. The per-cell quartiles go to stderr.
double MeanOfMedians(const char* name, const std::vector<std::vector<double>>& v) {
  double sum = 0.0;
  for (size_t k = 0; k < v.size(); ++k) {
    std::fprintf(stderr, "stat %s[%zu] n=%zu q1=%.6g med=%.6g q3=%.6g\n", name, k,
                 v[k].size(), Quantile(v[k], 0.25), Median(v[k]),
                 Quantile(v[k], 0.75));
    sum += Median(v[k]);
  }
  return sum / static_cast<double>(v.size());
}

bool AllFinite(const std::vector<float>& losses) {
  for (float x : losses) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

EdgeRule RuleFor(const GenCase& c) {
  return c.hierarchical ? EdgeRule::kAtMost : EdgeRule::kExact;
}

std::string Describe(const GenCase& c) {
  return std::string(c.hierarchical ? "hier" : "flat") + " n=" +
         std::to_string(c.nodes) + " m=" + std::to_string(c.edges) +
         " seed=" + std::to_string(c.seed);
}

void CheckThreadInvariance(Bench& b, const core::Cpgan& model, const GenCase& c) {
  const auto at_one = GenerateChecked(b, model, c).Edges();
  SetThreads(b.nproc);
  const auto at_nproc = GenerateChecked(b, model, c).Edges();
  SetThreads(kThreads);
  b.verdict.Expect(at_one == at_nproc,
                   Describe(c) + ": edges differ between 1 and " +
                       std::to_string(b.nproc) + " threads");
}

serve::Request ToRequest(const GenCase& c, const std::string& model,
                         const std::string& out) {
  serve::Request r;
  r.verb = serve::Verb::kGenerate;
  r.model = model;
  r.nodes = c.nodes;
  r.edges = c.edges;
  r.seed = c.seed;
  r.deadline_ms = 0.0;  // unlimited: a deadline would make failures timing-dependent
  r.hierarchical = c.hierarchical;
  r.out = out;
  return r;
}

}  // namespace

GenCase Bench::Flat() const {
  const cpgan::graph::Graph& g = inputs[0].observed;
  return {false, g.num_nodes(), g.num_edges(), 101};
}
GenCase Bench::Hier() const {
  const cpgan::graph::Graph& g = inputs[0].observed;
  return {true, g.num_nodes(), g.num_edges(), 102};
}
GenCase Bench::Scaleup() const {
  const cpgan::graph::Graph& g = inputs[0].observed;
  return {true, 4 * g.num_nodes(), 4 * g.num_edges(), 103};
}

std::array<GenCase, kServeKinds> Bench::ServeMix() const {
  const cpgan::graph::Graph& observed = inputs[0].observed;
  std::array<GenCase, kServeKinds> mix;
  const double factors[4] = {0.5, 1.0, 2.0, 4.0};
  for (int i = 0; i < kServeKinds; ++i) {
    const double f = factors[i / 2];
    mix[i].hierarchical = i % 2 == 1;
    mix[i].nodes = static_cast<int>(std::lround(f * observed.num_nodes()));
    mix[i].edges = std::llround(f * static_cast<double>(observed.num_edges()));
    mix[i].seed = 201 + static_cast<uint64_t>(i);
  }
  return mix;
}

void SetThreads(int threads) { cpgan::util::ThreadPool::SetGlobalThreads(threads); }

std::unique_ptr<core::Cpgan> TrainOnce(Bench& b, const Input& input,
                                       const core::CpganConfig& config,
                                       double* seconds) {
  const std::string checkpoint =
      cpgan::train::CheckpointPath(config.checkpoint_dir, config.epochs);
  std::error_code ignored;
  std::filesystem::remove(checkpoint, ignored);
  auto model = std::make_unique<core::Cpgan>(config);
  const Clock::time_point start = Clock::now();
  const core::TrainStats s = model->Fit(input.observed);
  *seconds = SecondsSince(start);
  b.verdict.Expect(AllFinite(s.d_loss) && AllFinite(s.g_loss) &&
                       AllFinite(s.clus_loss),
                   "a training loss is not finite");
  b.verdict.Expect(s.checkpoints_written >= 1 && std::filesystem::exists(checkpoint),
                   "Fit wrote no final checkpoint");
  return model;
}

cpgan::graph::Graph GenerateChecked(Bench& b, const core::Cpgan& model,
                                    const GenCase& c) {
  core::GenerateControls controls;
  controls.num_nodes = c.nodes;
  controls.num_edges = c.edges;
  controls.hierarchical = c.hierarchical;
  cpgan::util::Rng rng(c.seed);
  cpgan::graph::Graph g = model.GenerateWith(controls, rng);
  const std::string why = CheckGraph(g, c.nodes, c.edges, RuleFor(c));
  b.verdict.Expect(why.empty(), Describe(c) + ": " + why);
  return g;
}

namespace {

// Makes input `k` from the seed: writes the planted graph and loads it
// through the program's public loader.
bool AddInput(Bench& b, int k) {
  Input& in = b.inputs.emplace_back();
  const std::string dir = b.work_dir + "/g" + std::to_string(k);
  std::filesystem::create_directories(dir);
  in.name = "g" + std::to_string(k);
  in.graph_path = dir + "/graph.txt";
  in.planted = MakePlanted(b.options.seed * kGraphs + k);
  if (!WriteEdgeList(in.planted, in.graph_path)) {
    std::fprintf(stderr, "cannot write %s\n", in.graph_path.c_str());
    return false;
  }
  in.observed = cpgan::data::LoadGraph(in.graph_path);
  b.verdict.Expect(in.observed.num_nodes() == in.planted.num_nodes &&
                       in.observed.Edges() == in.planted.edges,
                   "loaded graph differs from the written one");
  in.config.epochs = kEpochs;
  in.config.num_threads = kThreads;
  in.config.checkpoint_dir = dir + "/ckpt";
  in.config.checkpoint_every = kEpochs;
  in.checkpoint = cpgan::train::CheckpointPath(in.config.checkpoint_dir, kEpochs);
  return true;
}

// Trains the model of every input, then warms up every generation call on
// every model (the first call on a model is the slowest) and checks that a
// model warm-started from the written checkpoint reproduces the trained
// model's latents bit for bit.
void TrainModels(Bench& b) {
  for (Input& in : b.inputs) {
    double train_s = 0.0;
    in.model = TrainOnce(b, in, in.config, &train_s);
    std::fprintf(stderr, "set-up: %s trained in %.2f s\n", in.name.c_str(), train_s);
  }
  b.setup_rss_mb = ReadUsage().max_rss_mb;
  for (const Input& in : b.inputs) {
    for (const GenCase& c : {b.Flat(), b.Hier(), b.Scaleup()}) {
      GenerateChecked(b, *in.model, c);
    }
  }
  b.gen_rss_mb = ReadUsage().max_rss_mb;
  const Input& in = b.inputs[0];

  core::Cpgan warm(in.config);
  std::string error;
  const bool loaded = warm.WarmStart(in.observed, in.checkpoint, &error);
  b.verdict.Expect(loaded, "WarmStart failed: " + error);
  if (loaded) {
    b.verdict.Expect(BitwiseEqual(warm.PosteriorMeanLatents(),
                                  in.model->PosteriorMeanLatents()),
                     "warm-started latents differ from the trained model's");
  }
}

// Warm-loads every model into the registry from its checkpoint and starts
// a two-worker server. Warm-up: every request kind once on the first
// model, written through the request's `out` path; flat at 0.5x and 1x
// (cached latents against recomputed ones) and hierarchical at 1x and 2x
// are compared with a direct GenerateWith call.
bool StartServer(Bench& b) {
  for (const Input& in : b.inputs) {
    serve::ModelSpec spec;
    spec.name = in.name;
    spec.config = in.config;
    spec.graph = in.observed;
    spec.checkpoint = in.checkpoint;
    std::string error;
    if (!b.registry.AddModel(spec, &error)) {
      std::fprintf(stderr, "registry warm-load failed: %s\n", error.c_str());
      return false;
    }
  }
  serve::ServerOptions server_options;
  server_options.num_workers = 2;
  b.server = std::make_unique<serve::Server>(&b.registry, server_options);
  b.server->Start();

  const std::array<GenCase, kServeKinds> mix = b.ServeMix();
  for (int i = 0; i < kServeKinds; ++i) {
    const std::string out = b.work_dir + "/served_" + std::to_string(i) + ".txt";
    const serve::Response r =
        b.server->Submit(ToRequest(mix[i], b.inputs[0].name, out));
    b.verdict.Expect(r.status == serve::ResponseStatus::kOk,
                     Describe(mix[i]) + ": warm-up request not ok: " +
                         serve::StatusName(r.status) + " " + r.detail);
    if (i != 0 && i != 2 && i != 3 && i != 5) continue;
    std::vector<std::pair<int, int>> served;
    b.verdict.Expect(ReadEdgePairs(out, &served), "cannot read " + out);
    const auto direct = GenerateChecked(b, *b.inputs[0].model, mix[i]).Edges();
    b.verdict.Expect(Canonical(served) == direct,
                     Describe(mix[i]) + ": served graph differs from GenerateWith");
  }
  return true;
}

}  // namespace

bool SetUp(Bench& b) {
  const int graphs = b.options.trace ? 1 : kGraphs;
  for (int k = 0; k < graphs; ++k) {
    if (!AddInput(b, k)) return false;
  }
  const std::string& w = b.options.workload;
  if (w == "train" && !b.options.trace) {
    // Warm-up: one untimed Fit per input (first-touch page faults, kernel
    // autotuning).
    for (const Input& in : b.inputs) {
      double train_s = 0.0;
      TrainOnce(b, in, in.config, &train_s);
    }
    b.setup_rss_mb = ReadUsage().max_rss_mb;
    return true;
  }
  TrainModels(b);
  // Generation at 1 thread and at nproc threads must give identical edges.
  CheckThreadInvariance(b, *b.inputs[0].model, b.Flat());
  CheckThreadInvariance(b, *b.inputs[0].model, b.Hier());
  if (w == "generate" && !b.options.trace) return true;
  return StartServer(b);
}

ServeResult ServeRound(Bench& b, const std::string& model) {
  const std::array<GenCase, kServeKinds> mix = b.ServeMix();
  // Each client gets one flat and one hierarchical request of each pair of
  // sizes: client 0 takes entries 0, 3, 4, 7; client 1 takes 1, 2, 5, 6.
  const int parts[2][4] = {{0, 3, 4, 7}, {1, 2, 5, 6}};
  std::mutex mutex;  // guards outcome counters and the verdict
  ServeResult result;
  const Usage before = ReadUsage();
  const Clock::time_point start = Clock::now();
  auto client = [&](int id) {
    for (int i : parts[id]) {
      const GenCase& c = mix[i];
      const Clock::time_point sent = Clock::now();
      const serve::Response r = b.server->Submit(ToRequest(c, model, ""));
      const double ms = SecondsSince(sent) * 1e3;
      std::lock_guard<std::mutex> lock(mutex);
      ++b.outcome.attempted;
      if (r.status != serve::ResponseStatus::kOk) {
        ++b.outcome.failed;
        result.latency_ms[i] = -1.0;
        continue;
      }
      const bool sized = r.nodes == c.nodes &&
                         (c.hierarchical ? r.edges > 0 && r.edges <= c.edges
                                         : r.edges == c.edges);
      b.verdict.Expect(sized, Describe(c) + ": served size n=" +
                                  std::to_string(r.nodes) + " m=" +
                                  std::to_string(r.edges));
      result.latency_ms[i] = ms;
    }
  };
  std::thread first(client, 0);
  std::thread second(client, 1);
  first.join();
  second.join();
  result.wall_s = SecondsSince(start);
  result.cpu_s = ReadUsage().cpu_s - before.cpu_s;
  return result;
}

void MeasureEndToEnd(Bench& b) {
  const std::string& w = b.options.workload;
  const size_t graphs = b.inputs.size();
  // Samples per input (train, generate) or per input and request kind
  // (serve) of the workload's operation, in ms.
  std::vector<std::vector<double>> samples(
      w == "serve" ? graphs * kServeKinds : graphs);
  int64_t operations = 0;
  const GenCase cases[3] = {b.Flat(), b.Hier(), b.Scaleup()};
  const Clock::time_point start = Clock::now();
  // Whole rounds only: every input gets the same number of operations.
  int rounds = 0;
  for (; rounds < kMinRounds || SecondsSince(start) < b.options.seconds; ++rounds) {
    for (size_t k = 0; k < graphs; ++k) {
      const Input& in = b.inputs[k];
      if (w == "train") {
        // A fresh model trained to its checkpoint.
        double s = 0.0;
        TrainOnce(b, in, in.config, &s);
        samples[k].push_back(s * 1e3);
        ++b.outcome.attempted;
        ++operations;
      } else if (w == "generate") {
        // Flat, hierarchical and 4x hierarchical GenerateWith.
        const Clock::time_point call = Clock::now();
        for (const GenCase& c : cases) {
          GenerateChecked(b, *in.model, c);
          ++b.outcome.attempted;
        }
        samples[k].push_back(SecondsSince(call) * 1e3);
        ++operations;
      } else {
        // Every request kind once, from two closed-loop clients.
        const ServeResult r = ServeRound(b, in.name);
        for (int i = 0; i < kServeKinds; ++i) {
          if (r.latency_ms[i] < 0.0) continue;
          samples[k * kServeKinds + i].push_back(r.latency_ms[i]);
          ++operations;
        }
      }
    }
  }
  const double wall_s = SecondsSince(start);

  Metrics& m = b.outcome.metrics;
  m["op_ms"] = {MeanOfMedians("op_ms", samples), "ms"};
  m["ops_per_s"] = {static_cast<double>(operations) / wall_s, "1/s"};
  std::fprintf(stderr, "measured: %d rounds over %zu graphs, %lld operations in %.1f s\n",
               rounds, graphs, static_cast<long long>(operations), wall_s);
}

void TearDown(Bench& b) {
  if (b.server != nullptr) b.server->Stop();
  std::error_code ignored;
  std::filesystem::remove_all(b.work_dir, ignored);
  // The parent goes too once no other run is using it.
  std::filesystem::remove(std::filesystem::path(b.work_dir).parent_path(), ignored);
}

}  // namespace perfbench
