// xbench: run one benchmark workload and print its metrics.
//
//   xbench --workload <paper_figs|cluster_churn|cluster_gray>
//          --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
// With --trace 0 the metrics are the gated end-to-end set (plus the raw
// fidelity values run.py scores); with --trace 1 the per-layer set.  A
// failed output check prints {"correct": false, ...} with no metrics and
// exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::cerr << "usage: xbench --workload <paper_figs|cluster_churn|"
               "cluster_gray> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke]\n";
}

bool parse(int argc, char** argv, xbench::Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
    } else {
      return false;
    }
  }
  return !opts.workload.empty() && std::isfinite(opts.seconds) &&
         opts.seconds > 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_result(bool correct, const xbench::Outcome& out) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& e : out.metrics.entries()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", e.value);
    std::cout << sep << '"' << json_escape(e.name) << "\": {\"value\": "
              << value << ", \"unit\": \"" << json_escape(e.unit) << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  xbench::Options opts;
  if (!parse(argc, argv, opts)) {
    usage();
    return 2;
  }
  xbench::Outcome out;
  try {
    if (opts.workload == "paper_figs") {
      out = xbench::run_paper_figs(opts);
    } else if (opts.workload == "cluster_churn") {
      out = xbench::run_cluster(opts, /*gray=*/false);
    } else if (opts.workload == "cluster_gray") {
      out = xbench::run_cluster(opts, /*gray=*/true);
    } else {
      std::cerr << "xbench: unknown workload '" << opts.workload << "'\n";
      usage();
      return 2;
    }
    for (const auto& e : out.metrics.entries()) {
      xbench::check(std::isfinite(e.value),
                    "metric " + e.name + " is not a finite number");
    }
    xbench::check(out.attempted >= 1, "no job was attempted");
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(out.digest));
    std::cerr << "xbench: digest " << digest << "\n";
  } catch (const xbench::CheckFailed& e) {
    std::cerr << "xbench: output check failed: " << e.what() << "\n";
    print_result(false, xbench::Outcome{out.attempted, out.failed, 0, {}});
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "xbench: " << e.what() << "\n";
    print_result(false, xbench::Outcome{out.attempted, out.failed, 0, {}});
    return 1;
  }
  print_result(true, out);
  return 0;
}
