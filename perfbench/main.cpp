// perfbench — the repository's end-to-end benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --data-dir <dir> --work-dir <dir> [--git-sha <sha>]
//
// Prints two lines on stdout: the detailed report (environment, details,
// failures) and, last, the result object {"correct", "attempted",
// "failed", "metrics"}. Exits 1 when an output check failed, 2 on a usage
// or runtime error (no result line then). perfbench/run.py builds this
// binary and runs it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--data-dir") opt.data_dir = v;
    else if (a == "--work-dir") opt.work_dir = v;
    else if (a == "--git-sha") opt.git_sha = v;
    else usage("unknown option " + a);
  }
  if (opt.workload.empty() || opt.data_dir.empty() || opt.work_dir.empty())
    usage("--workload, --data-dir and --work-dir are required");
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  perfbench::Report report;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (opt.workload == "batch_freeboard") perfbench::run_batch_freeboard(opt, report);
    else if (opt.workload == "serve_cold") perfbench::run_serve_cold(opt, report);
    else if (opt.workload == "serve_zipf") perfbench::run_serve_zipf(opt, report);
    else if (opt.workload == "train_dist") perfbench::run_train_dist(opt, report);
    else usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 2;
  }
  if (report.attempted == 0) report.fail("no operation was attempted");
  if (opt.trace)
    report.metric("bench.failed_fraction",
                  report.attempted ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 1.0,
                  "ratio");
  std::printf("%s\n%s\n", report.detail_json(opt).c_str(), report.result_json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
