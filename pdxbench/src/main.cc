// The layered serving benchmark.
//
//   pdxbench --workload <ann-ivf|exact-flat-large|live-http> --seed <n>
//            --seconds <s> --trace <0|1> [--git-sha <sha>] [--out-dir <dir>]
//
// Untraced (--trace 0) the last stdout line carries the end-to-end metrics;
// traced (--trace 1) it carries the per-layer metrics, and the spans are
// written to <out-dir>/spans-<workload>.jsonl. The line before it is the
// run's stamp (environment, shapes, sample counts). Exit code 0 only when
// every check passed: the helper self-tests first, then every exact result
// against the brute-force oracle.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "env.h"
#include "selftest.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "pdxbench: " << problem
            << "\nusage: pdxbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--git-sha <sha>] [--out-dir <dir>]\n";
  std::exit(2);
}

bool ParseOptions(int argc, char** argv, pdxbench::RunOptions* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad seed " + value);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) Usage("bad seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options->trace = value == "1";
    } else if (flag == "--git-sha") {
      options->git_sha = value;
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  return have_workload;
}

std::string Line(const pdxbench::RunResult& r) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const pdxbench::MetricValue& m = r.metrics[i];
    out << (i == 0 ? "" : ", ") << pdxbench::JsonString(m.name)
        << ": {\"value\": " << pdxbench::JsonNumber(m.value)
        << ", \"unit\": " << pdxbench::JsonString(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

std::string StampLine(const pdxbench::RunResult& r) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < r.stamp.size(); ++i) {
    out << (i == 0 ? "" : ", ") << pdxbench::JsonString(r.stamp[i].first)
        << ": " << r.stamp[i].second;
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  pdxbench::RunOptions options;
  if (!ParseOptions(argc, argv, &options)) Usage("--workload is required");
  bool known = false;
  for (const std::string& name : pdxbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) Usage("unknown workload " + options.workload);

  if (pdxbench::RunSelfTests(std::cerr) != 0) {
    std::cerr << "pdxbench: helper self-tests failed; not measuring\n";
    return 2;
  }
  ::mkdir(options.out_dir.c_str(), 0755);

  pdxbench::RunResult result = pdxbench::RunWorkload(options);
  pdxbench::StampEnvironment(options, result);

  const std::string stamp = StampLine(result);
  const std::string line = Line(result);
  const std::string path = options.out_dir + "/result-" + options.workload +
                           (options.trace ? "-traced" : "") + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"stamp\": %s, \"result\": %s}\n", stamp.c_str(),
                 line.c_str());
    std::fclose(f);
  }
  std::cout << "stamp " << stamp << "\n" << line << std::endl;
  return result.correct ? 0 : 1;
}
