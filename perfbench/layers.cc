// The traced run: every per-layer metric, measured from outside the program
// by timing calls into each module's public functions, plus the program's
// existing trace spans (obs::CollectSpanStats) and its run log
// (CpganConfig::metrics_out). Nothing is added inside the program.

#include <functional>
#include <sstream>

#include "community/louvain.h"
#include "data/loader.h"
#include "graph/spectral.h"
#include "nn/gru.h"
#include "obs/json.h"
#include "obs/run_logger.h"
#include "obs/trace.h"
#include "pipeline.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "util/fileio.h"

namespace perfbench {

namespace core = cpgan::core;
namespace obs = cpgan::obs;
namespace t = cpgan::tensor;

namespace {

// Repetitions of each timed call; each layer metric is a median over them.
constexpr int kReps = 5;
constexpr int kKernelReps = 30;

/// Median wall time in ms of `reps` calls of `fn`, after one untimed call.
double MedianMs(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    ms.push_back(SecondsSince(start) * 1e3);
  }
  return Median(ms);
}

/// Wall time, CPU time and minor faults over `reps` calls of `fn` (after
/// one untimed call).
struct Cost {
  double median_ms = 0.0;
  double cores_busy = 0.0;  // process CPU time over wall time
  double minflt_per_op = 0.0;
};

Cost Measure(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  double wall_s = 0.0;
  const Usage before = ReadUsage();
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    const double s = SecondsSince(start);
    wall_s += s;
    ms.push_back(s * 1e3);
  }
  const Usage after = ReadUsage();
  return {Median(ms), (after.cpu_s - before.cpu_s) / wall_s,
          static_cast<double>(after.minor_faults - before.minor_faults) / reps};
}

/// Spans recorded while `fn` runs with tracing on.
std::vector<obs::SpanStats> Traced(const std::function<void()>& fn) {
  obs::ResetTraces();
  obs::SetTracingEnabled(true);
  fn();
  obs::SetTracingEnabled(false);
  return obs::CollectSpanStats();
}

/// Exclusive ms of every span called `name`, across all paths.
double SelfMs(const std::vector<obs::SpanStats>& spans, const std::string& name) {
  uint64_t ns = 0;
  for (const auto& s : spans) {
    if (s.name == name) ns += s.exclusive_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

uint64_t Calls(const std::vector<obs::SpanStats>& spans, const std::string& name) {
  uint64_t calls = 0;
  for (const auto& s : spans) {
    if (s.name == name) calls += s.calls;
  }
  return calls;
}

std::vector<obs::EpochRecord> ReadRunLog(const std::string& path) {
  std::vector<obs::EpochRecord> records;
  std::string text;
  if (!cpgan::util::ReadFileToString(path, &text)) return records;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    obs::JsonValue json;
    obs::EpochRecord record;
    if (obs::JsonValue::Parse(line, &json) &&
        obs::EpochRecordFromJson(json, &record)) {
      records.push_back(record);
    }
  }
  return records;
}

t::Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  cpgan::util::Rng rng(seed);
  t::Matrix m(rows, cols);
  m.FillNormal(rng, 1.0f);
  return m;
}

void TrainingLayers(Bench& b, Metrics& m) {
  const Input& in = b.inputs[0];
  // At nproc threads: how many cores Fit keeps busy, and its wall time for
  // the scaling ratio.
  core::CpganConfig wide = in.config;
  wide.num_threads = b.nproc;
  std::vector<double> wide_s;
  const Usage before = ReadUsage();
  for (int i = 0; i < 2; ++i) {
    double s = 0.0;
    TrainOnce(b, in, wide, &s);
    ++b.outcome.attempted;
    wide_s.push_back(s);
  }
  m["train.cores_busy"] = {
      (ReadUsage().cpu_s - before.cpu_s) / (wide_s[0] + wide_s[1]), "cores"};

  // At 1 thread with the run log on: epoch time and checkpoint write time.
  core::CpganConfig logged = in.config;
  logged.metrics_out = b.work_dir + "/run.jsonl";
  std::vector<double> single_s, epoch_ms, checkpoint_ms;
  for (int i = 0; i < 2; ++i) {
    double s = 0.0;
    TrainOnce(b, in, logged, &s);
    ++b.outcome.attempted;
    single_s.push_back(s);
    const auto records = ReadRunLog(logged.metrics_out);
    b.verdict.Expect(static_cast<int>(records.size()) == kEpochs,
                     "run log has " + std::to_string(records.size()) +
                         " records, expected one per epoch");
    for (const auto& r : records) epoch_ms.push_back(r.epoch_ms);
    if (!records.empty()) checkpoint_ms.push_back(records.back().checkpoint_ms);
  }
  m["train.epoch_ms"] = {Median(epoch_ms), "ms"};
  m["train.checkpoint_ms"] = {Median(checkpoint_ms), "ms"};
  m["train.thread_scaling"] = {Median(single_s) / Median(wide_s), "x"};

  // Traced at 1 thread, where span parentage holds (spans opened on pool
  // workers lose their parent at 2 or more threads).
  double traced_s = 0.0;
  const auto spans = Traced([&] { TrainOnce(b, in, in.config, &traced_s); });
  ++b.outcome.attempted;
  const double per_epoch = 1.0 / kEpochs;
  const std::pair<const char*, const char*> epoch_spans[] = {
      {"trace.train_sample_ms", "train/sample"},
      {"trace.train_backward_ms", "train/backward"},
      {"trace.train_optimizer_ms", "train/optimizer"},
      {"trace.encoder_forward_ms", "encoder/forward"},
      {"trace.encoder_pool_ms", "encoder/pool"},
      {"trace.discriminator_forward_ms", "discriminator/forward"},
      {"trace.decoder_decode_ms", "decoder/decode"},
      {"trace.tensor_spmm_ms", "tensor/spmm"},
  };
  for (const auto& [metric, span] : epoch_spans) {
    m[metric] = {SelfMs(spans, span) * per_epoch, "ms"};
  }
  m["trace.tensor_matmul_ms"] = {
      (SelfMs(spans, "tensor/matmul") + SelfMs(spans, "tensor/matmul_nt") +
       SelfMs(spans, "tensor/matmul_tn")) *
          per_epoch,
      "ms"};
  m["obs.trace_overhead_pct"] = {(traced_s / Median(single_s) - 1.0) * 100.0, "%"};
}

void GenerationLayers(Bench& b, Metrics& m) {
  const Input& in = b.inputs[0];
  const core::Cpgan& model = *in.model;
  const GenCase flat = b.Flat();
  const GenCase hier = b.Hier();
  const int n = in.observed.num_nodes();
  const int64_t edges = in.observed.num_edges();

  std::vector<t::Matrix> latents;
  m["core.latents_ms"] = {
      MedianMs(kReps, [&] { latents = model.PosteriorMeanLatents(); }), "ms"};
  std::vector<int> labels;
  m["core.labels_ms"] = {
      MedianMs(kReps, [&] { labels = model.LearnedCommunityLabels(); }), "ms"};
  core::GenerateControls controls;
  m["core.flat_assemble_ms"] = {MedianMs(3, [&] {
                                  cpgan::util::Rng rng(flat.seed);
                                  model.GenerateFromLatents(latents, n, edges,
                                                            controls, rng);
                                }),
                                "ms"};
  m["core.hier_assemble_ms"] = {
      MedianMs(kReps, [&] {
        cpgan::util::Rng rng(hier.seed);
        model.GenerateHierarchicalFromLatents(latents, labels, n, edges,
                                              controls, rng);
      }),
      "ms"};

  auto count = [&](const GenCase& c) {
    GenerateChecked(b, model, c);
    ++b.outcome.attempted;
  };
  const Cost flat_one = Measure(3, [&] { count(flat); });
  const Cost hier_one = Measure(kReps, [&] { count(hier); });
  m["gen.flat_minflt_per_op"] = {flat_one.minflt_per_op, "count"};
  m["gen.hier_minflt_per_op"] = {hier_one.minflt_per_op, "count"};
  // Traced hierarchical generation at 1 thread, where span parentage holds.
  constexpr int kTracedHier = 3;
  const auto spans = Traced([&] {
    for (int i = 0; i < kTracedHier; ++i) count(hier);
  });

  SetThreads(b.nproc);
  const Cost flat_wide = Measure(3, [&] { count(flat); });
  const Cost hier_wide = Measure(kReps, [&] { count(hier); });
  SetThreads(kThreads);
  m["gen.flat_cores_busy"] = {flat_wide.cores_busy, "cores"};
  m["gen.hier_cores_busy"] = {hier_wide.cores_busy, "cores"};
  m["gen.flat_thread_scaling"] = {flat_one.median_ms / flat_wide.median_ms, "x"};
  m["gen.hier_thread_scaling"] = {hier_one.median_ms / hier_wide.median_ms, "x"};

  const GenCase scaleup = b.Scaleup();
  const auto big = GenerateChecked(b, model, scaleup);
  ++b.outcome.attempted;
  m["gen.scaleup_edge_yield"] = {static_cast<double>(big.num_edges()) /
                                     static_cast<double>(scaleup.edges),
                                 "fraction"};

  m["trace.decoder_decode_calls"] = {
      static_cast<double>(Calls(spans, "decoder/decode")) / kTracedHier, "count"};
  m["trace.hier_probe_ms"] = {SelfMs(spans, "hier/probe") / kTracedHier, "ms"};
  m["trace.hier_intra_wave_ms"] = {SelfMs(spans, "hier/intra_wave") / kTracedHier,
                                   "ms"};
  m["trace.hier_stitch_wave_ms"] = {
      SelfMs(spans, "hier/stitch_wave") / kTracedHier, "ms"};
  uint64_t decode_ns = 0;
  uint64_t matmul_in_decode_ns = 0;
  for (const auto& s : spans) {
    const bool in_decode = s.path.find("decoder/decode;") != std::string::npos;
    if (s.name == "decoder/decode" && !in_decode) decode_ns += s.inclusive_ns;
    if (in_decode && s.name.rfind("tensor/matmul", 0) == 0) {
      matmul_in_decode_ns += s.inclusive_ns;
    }
  }
  m["trace.decode_matmul_share"] = {
      decode_ns > 0 ? static_cast<double>(matmul_in_decode_ns) / decode_ns : 0.0,
      "fraction"};

  // Quality of the set-up model against the planted partition. It depends
  // on the input graph far more than the timings do, so it is reported
  // here rather than gated (see README.md).
  m["quality.label_nmi"] = {Nmi(labels, in.planted.labels), "nmi"};
  const auto flat_graph = GenerateChecked(b, model, flat);
  m["quality.flat_community_share"] = {
      SameLabelShare(flat_graph.Edges(), in.planted.labels), "fraction"};
}

void KernelLayers(Bench& b, Metrics& m) {
  const Input& in = b.inputs[0];
  const int hidden = in.config.hidden_dim;
  // Flat edge logits: one assembly chunk of 1024 nodes scored against itself.
  const t::Matrix e = RandomMatrix(1024, hidden, 1);
  const double nt_ms = MedianMs(kKernelReps, [&] { t::MatmulNT(e, e); });
  m["tensor.matmul_nt_gflops"] = {2.0 * 1024 * 1024 * hidden / (nt_ms * 1e6),
                                  "GFLOP/s"};
  // Training: a sampled subgraph's dense adjacency times its features.
  const int ns = in.config.subgraph_size;
  const t::Matrix a = RandomMatrix(ns, ns, 2);
  const t::Matrix x = RandomMatrix(ns, hidden, 3);
  const double mm_ms = MedianMs(kKernelReps, [&] { t::Matmul(a, x); });
  m["tensor.matmul_gflops"] = {2.0 * ns * ns * hidden / (mm_ms * 1e6), "GFLOP/s"};
  // Encoder propagation over the full normalized adjacency.
  const t::SparseMatrix adj =
      t::NormalizedAdjacency(in.observed.num_nodes(), in.observed.Edges());
  const t::Matrix h = RandomMatrix(in.observed.num_nodes(), hidden, 4);
  const double spmm_ms = MedianMs(kKernelReps, [&] { adj.Multiply(h); });
  m["tensor.spmm_gflops"] = {
      2.0 * static_cast<double>(adj.nnz()) * hidden / (spmm_ms * 1e6), "GFLOP/s"};
  m["tensor.matmul_tile_cols"] = {
      static_cast<double>(t::kernels::MatmulTileCols()), "count"};

  // GRU cell at decode shape: one assembly chunk of 1024 nodes.
  cpgan::util::Rng rng(5);
  const cpgan::nn::GruCell gru(in.config.latent_dim, hidden, rng);
  const t::Tensor z(RandomMatrix(1024, in.config.latent_dim, 6), true);
  const t::Tensor h0 = gru.InitialState(1024);
  std::vector<double> fwd_us, bwd_us;
  for (int i = 0; i <= kKernelReps; ++i) {
    const Clock::time_point start = Clock::now();
    const t::Tensor out = gru.Forward(z, h0);
    const Clock::time_point mid = Clock::now();
    t::Backward(t::SumAll(out));
    if (i == 0) continue;  // warm-up
    fwd_us.push_back(std::chrono::duration<double, std::micro>(mid - start).count());
    bwd_us.push_back(SecondsSince(mid) * 1e6);
  }
  m["nn.gru_fwd_us"] = {Median(fwd_us), "us"};
  m["nn.gru_bwd_us"] = {Median(bwd_us), "us"};
}

void ServeLayers(Bench& b, Metrics& m) {
  const Input& in = b.inputs[0];
  std::vector<double> direct_ms;
  for (const GenCase& c : b.ServeMix()) {
    const Clock::time_point start = Clock::now();
    GenerateChecked(b, *in.model, c);
    direct_ms.push_back(SecondsSince(start) * 1e3);
    ++b.outcome.attempted;
  }
  const ServeResult served = ServeRound(b, in.name);
  const std::vector<double> served_ms(served.latency_ms.begin(),
                                      served.latency_ms.end());
  m["serve.direct_ms"] = {Median(direct_ms), "ms"};
  m["serve.overhead_ms"] = {Median(served_ms) - Median(direct_ms), "ms"};
  m["serve.cores_busy"] = {served.cpu_s / served.wall_s, "cores"};
}

}  // namespace

void MeasureLayers(Bench& b) {
  const Input& in = b.inputs[0];
  Metrics& m = b.outcome.metrics;
  m["gen.peak_rss_mb"] = {b.gen_rss_mb, "MiB"};
  m["graph.load_ms"] = {
      MedianMs(kReps, [&] { cpgan::data::LoadGraph(in.graph_path); }), "ms"};
  cpgan::util::Rng rng(b.options.seed);
  m["graph.spectral_ms"] = {MedianMs(kReps, [&] {
                              cpgan::graph::SpectralEmbedding(
                                  in.observed, in.config.feature_dim, rng);
                            }),
                            "ms"};
  m["community.louvain_ms"] = {
      MedianMs(kReps, [&] { cpgan::community::Louvain(in.observed, rng); }), "ms"};
  m["train.warm_start_ms"] = {MedianMs(kReps, [&] {
                                core::Cpgan warm(in.config);
                                std::string error;
                                b.verdict.Expect(
                                    warm.WarmStart(in.observed, in.checkpoint, &error),
                                    "WarmStart failed: " + error);
                              }),
                              "ms"};
  TrainingLayers(b, m);
  GenerationLayers(b, m);
  KernelLayers(b, m);
  ServeLayers(b, m);
}

}  // namespace perfbench
