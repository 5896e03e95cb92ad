// fmtk benchmark binary. Usage:
//   fmtk_perfbench --workload serve_mix|engine_mix|toolbox --seed N
//                  --seconds S --trace 0|1
// Prints one line per metric (name, value, unit, sample count) and notes,
// then, as the last line, one JSON object with every metric. With --trace 1
// the spans go to trace_<workload>.jsonl next to the binary.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else {
      std::fprintf(stderr, "fmtk_perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.seconds <= 0) {
    std::fprintf(stderr, "fmtk_perfbench: --seconds must be positive\n");
    return 2;
  }
  perfbench::Report report;
  if (workload == "serve_mix") {
    perfbench::RunServeMix(config, report);
  } else if (workload == "engine_mix") {
    perfbench::RunEngineMix(config, report);
  } else if (workload == "toolbox") {
    perfbench::RunToolbox(config, report);
  } else {
    std::fprintf(stderr, "fmtk_perfbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (!config.trace) {
    report.Set("failed_ratio",
               report.attempted == 0
                   ? 0.0
                   : static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
               "ratio", report.attempted);
  }
  if (config.trace) {
    const std::string path = (std::filesystem::path(argv[0]).parent_path() /
                              ("trace_" + workload + ".jsonl"))
                                 .string();
    const bool written = perfbench::WriteJsonLines(report.spans, path);
    report.Note(std::to_string(report.spans.size()) + " spans " +
                (written ? "written to " : "NOT written to ") + path);
  }
  for (const std::string& note : report.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& [name, metric] : report.metrics) {
    std::printf("metric %-36s %14.6g %-6s n=%zu\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.n);
  }
  std::printf("%s\n", perfbench::ReportJson(report).c_str());
  return 0;
}
