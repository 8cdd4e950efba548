// End-to-end benchmark of CPGAN: train, generate or serve on seeded
// planted-partition graphs. See README.md for the workloads and metrics.
//
//   cpgan_perfbench --workload train|generate|serve --seed N --seconds S
//                   --trace 0|1
//
// Progress goes to stderr; the last line of stdout is one JSON object with
// the keys correct, attempted, failed and metrics.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pipeline.h"
#include "tensor/kernels.h"
#include "util/logging.h"

namespace {

using perfbench::Clock;

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload train|generate|serve --seed N "
               "--seconds S --trace 0|1\n",
               argv0);
  return 2;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<int>(online) : 1;
}

void PrintResult(const perfbench::Outcome& o) {
  std::string line = "{\"correct\": ";
  line += o.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : o.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    line += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  perfbench::Bench b;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      b.options.workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      b.options.seed = std::strtoull(value, nullptr, 10);
      have[1] = true;
    } else if (key == "--seconds") {
      b.options.seconds = std::atof(value);
      have[2] = b.options.seconds > 0.0;
    } else if (key == "--trace") {
      b.options.trace = std::strcmp(value, "1") == 0;
      have[3] = b.options.trace || std::strcmp(value, "0") == 0;
    } else {
      return PrintUsage(argv[0]);
    }
  }
  const std::string& w = b.options.workload;
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3]) ||
      (w != "train" && w != "generate" && w != "serve")) {
    return PrintUsage(argv[0]);
  }

  cpgan::util::SetLogLevel(cpgan::util::LogLevel::kWarning);
  b.nproc = Nproc();
  b.work_dir = ".bench_work/" + w + "-" + std::to_string(b.options.seed) + "-" +
               std::to_string(getpid());
  std::fprintf(stderr, "perfbench: workload=%s seed=%llu threads=%d\n", w.c_str(),
               static_cast<unsigned long long>(b.options.seed), b.nproc);

  if (!perfbench::SetUp(b)) {
    perfbench::TearDown(b);
    return 1;
  }
  const double setup_s = perfbench::SecondsSince(process_start);
  std::fprintf(stderr,
               "set-up: %.2f s, peak RSS %.1f MiB (after generation %.1f MiB), "
               "matmul tile width %d\n",
               setup_s, b.setup_rss_mb, b.gen_rss_mb,
               cpgan::tensor::kernels::MatmulTileCols());
  if (b.options.trace) {
    perfbench::MeasureLayers(b);
  } else {
    perfbench::MeasureEndToEnd(b);
    b.outcome.metrics["setup_s"] = {setup_s, "s"};
    b.outcome.metrics["peak_rss_mb"] = {b.setup_rss_mb, "MiB"};
    std::fprintf(stderr, "peak RSS at the end of the run: %.1f MiB\n",
                 perfbench::ReadUsage().max_rss_mb);
  }
  perfbench::TearDown(b);
  b.outcome.correct = b.verdict.correct();
  PrintResult(b.outcome);
  return 0;
}
