// perfbench — the end-to-end benchmark of uap2p, split by layer.
//
//   perfbench --workload gnutella-lab|oracle-open|coldstart --seed N
//             --seconds S --trace 0|1 [--small] [--out-dir DIR]
//
// Prints the host fingerprint, a steadiness table of every metric the run
// measured (median, quartiles and sample count across repetitions), and
// as its last line one JSON object: {"correct", "attempted", "failed",
// "measured"}, where "measured" holds every metric the run measured, by
// name with value and unit. run.py picks BENCHMARK.json's metrics out of
// it. With --trace 1 the run also keeps spans and writes them to
// DIR/<workload>-seed<N>.{spans.tsv,folded}. perfbench/README.md maps
// every metric to its layer and workload.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c >= 0x20) out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload gnutella-lab|oracle-open|coldstart"
               " --seed N --seconds S --trace 0|1 [--small] [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    const bool has_value = i + 1 < argc;
    if (arg == "--small") {
      options.small = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string_view(argv[++i]) == "1";
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  using Runner = Outcome (*)(const Options&, Report&, Tracer&);
  Runner runner = nullptr;
  if (options.workload == "gnutella-lab") runner = run_gnutella_lab;
  if (options.workload == "oracle-open") runner = run_oracle_open;
  if (options.workload == "coldstart") runner = run_coldstart;
  if (runner == nullptr || !(options.seconds > 0.0)) return usage();

  const bool release = std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
  std::printf(
      "{\"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"release\": %s}}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_CXX_COMPILER, PERFBENCH_BUILD_TYPE, release ? "true" : "false");
  if (!release) {
    std::fprintf(stderr,
                 "warning: perfbench built as %s, not Release; its timings "
                 "are not comparable\n",
                 PERFBENCH_BUILD_TYPE);
  }

  Report report;
  Tracer tracer(options.trace);
  const std::uint64_t start = now_ns();
  Outcome outcome = runner(options, report, tracer);
  report.finish();
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.set("perfbench.wall_s", seconds_since(start), "s");
  if (options.trace) {
    for (const auto& [layer, ms] : tracer.layer_self_ms()) {
      report.set(layer + ".self_ms", ms, "ms");
    }
    report.set("trace.spans", double(tracer.spans().size()), "count");
    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed);
    outcome.check(tracer.write(stem), "cannot write spans to " + stem);
    std::printf("spans: %s.spans.tsv, folded stacks: %s.folded\n",
                stem.c_str(), stem.c_str());
  }
  report.print_table(stdout);
  for (const std::string& problem : outcome.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"measured\": %s}\n",
              outcome.correct ? "true" : "false",
              (unsigned long long)std::max<std::uint64_t>(outcome.attempted, 1),
              (unsigned long long)outcome.failed,
              report.json_metrics().c_str());
  return 0;
}
