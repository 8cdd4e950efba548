#ifndef CPGAN_PERFBENCH_PIPELINE_H_
#define CPGAN_PERFBENCH_PIPELINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "core/config.h"
#include "core/cpgan.h"
#include "graph/graph.h"
#include "measure.h"
#include "planted.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace perfbench {

/// Epochs of every Fit the benchmark runs (the only training setting it
/// changes besides the thread count).
constexpr int kEpochs = 60;

/// Size of the program's thread pool for every timed operation except the
/// explicit nproc-thread measurements of the traced run. At nproc threads
/// each parallel region wakes every virtual CPU, and on a shared host the
/// wake-ups are where the hypervisor takes CPU time away: the same
/// hierarchical generation spread 0.92 (interquartile range over median)
/// at 4 threads against 0.13 at 1 thread (see README.md). Thread scaling
/// is reported by the traced run instead.
constexpr int kThreads = 1;

/// Input graphs of a measured run. The cost of an operation depends on the
/// graph (a hierarchical generation took 113-153 ms, a 4x one 220-326 ms,
/// on the graphs of seeds 1-6), so a run measures every operation on
/// several graphs and weighs them equally. The traced run uses one.
constexpr int kGraphs = 4;

struct Options {
  std::string workload;  // "train", "generate" or "serve"
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What a run prints: the operations it attempted, how many failed, whether
/// every check on the others held, and the metrics.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
};

/// One generation call: mode, size and the fixed RNG seed of its stream.
struct GenCase {
  bool hierarchical = false;
  int nodes = 0;
  int64_t edges = 0;
  uint64_t seed = 0;
};

/// One input graph and, outside the train workload, the model trained on
/// it during set-up.
struct Input {
  std::string name;  // registry model name
  PlantedGraph planted;
  cpgan::graph::Graph observed{0};
  std::string graph_path;
  cpgan::core::CpganConfig config;  // its own checkpoint_dir
  std::string checkpoint;           // the final checkpoint of its Fit
  std::unique_ptr<cpgan::core::Cpgan> model;
};

/// The served request mix: flat and hierarchical at 0.5x, 1x, 2x and 4x the
/// observed size.
constexpr int kServeKinds = 8;

/// State shared by the set-up, the measured loop and the traced run.
struct Bench {
  Options options;
  int nproc = 1;
  std::string work_dir;

  std::vector<Input> inputs;

  cpgan::serve::ModelRegistry registry;
  std::unique_ptr<cpgan::serve::Server> server;

  /// Peak RSS after loading the graphs and training (train: the warm-up
  /// Fits; generate, serve: the models kept for generation), before any
  /// generation call or second thread: 16.2-17.3 MiB over seeds 1-20.
  double setup_rss_mb = 0.0;
  /// Peak RSS after the generation warm-up, still single-threaded. It is
  /// not steady enough for a bound: the flat call sets it, and how high
  /// depends on the heap's history, not only on the graph. Over seeds
  /// 11-20 it read 41-65 MiB, and seed 11 read 43.9 MiB in one process and
  /// 64.3 in six others; three flat calls per graph still left two of ten
  /// processes at 48-49 MiB against 64-65 (with the same 20.9 MiB main
  /// malloc arena after the calls in both cases). Reported by the traced
  /// run as gen.peak_rss_mb.
  double gen_rss_mb = 0.0;

  Verdict verdict;
  Outcome outcome;

  // All inputs have the same size, so the calls are the same for each.
  GenCase Flat() const;
  GenCase Hier() const;
  GenCase Scaleup() const;
  /// Every kind of served request, each with its own fixed seed.
  std::array<GenCase, kServeKinds> ServeMix() const;
};

/// Everything before measuring, timed as setup_s: the input graphs and, as
/// the workload needs them, the models trained on them, the started server,
/// untimed warm-up calls of every measured operation and the output checks
/// that need extra calls. Returns false when the benchmark cannot run.
bool SetUp(Bench& b);

/// The measured loop of the workload (tracing and the run log off). Fills
/// every end-to-end metric except setup_s and peak_rss_mb.
void MeasureEndToEnd(Bench& b);

/// The traced run: per-layer metrics measured by timing calls into each
/// module's public functions, plus the program's own trace spans and run
/// log. Defined in layers.cc.
void MeasureLayers(Bench& b);

/// Stops the server and removes the run's scratch directory.
void TearDown(Bench& b);

// Operations shared by the measured loop and the traced run.

/// A fresh model trained on the observed graph with `config`, writing its
/// final checkpoint (removed beforehand, so the check below sees this
/// Fit's file); checks that every loss is finite and the checkpoint
/// exists. `seconds` is the Fit wall time (checkpoint included).
std::unique_ptr<cpgan::core::Cpgan> TrainOnce(
    Bench& b, const Input& input, const cpgan::core::CpganConfig& config,
    double* seconds);

/// GenerateWith for `c` on `model`, checked against the output properties.
cpgan::graph::Graph GenerateChecked(Bench& b, const cpgan::core::Cpgan& model,
                                    const GenCase& c);

struct ServeResult {
  /// Client-side latency of each request kind; negative when the response
  /// was not ok (counted as a failed operation).
  std::array<double, kServeKinds> latency_ms{};
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// One closed-loop round against the in-process server: two client threads
/// each send their half of the request mix to `model`, the next request
/// only after the previous response.
ServeResult ServeRound(Bench& b, const std::string& model);

/// Resizes the program's thread pool.
void SetThreads(int threads);

}  // namespace perfbench

#endif  // CPGAN_PERFBENCH_PIPELINE_H_
