// servebench: the serving benchmark's measuring binary (run.py builds and
// invokes it; see run.py for the workloads and metrics).

#include <cmath>
#include <iostream>

#include "bench.h"
#include "support/argparse.h"

namespace {

int main_impl(int argc, const char* const* argv) {
  pbmg::ArgParser parser(
      "servebench",
      "Serving benchmark over frozen tuned tables: one workload per run, "
      "end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).");
  parser.add_string("workload", "", "poisson_fmg | jump_batch | routed_churn");
  parser.add_int("seed", 1, "workload seed (inputs are generated from it)");
  parser.add_double("seconds", 10.0, "measured duration of the run");
  parser.add_int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics");
  parser.add_string("tables", "", "directory holding the frozen tables");
  parser.add_string("commit", "", "source revision label for the metadata");
  parser.add_flag("regenerate", "retrain every frozen table and exit");
  if (!parser.parse(argc, argv)) {
    std::cout << parser.help_text();
    return 0;
  }
  const std::string tables = parser.get_string("tables");
  if (tables.empty()) throw pbmg::InvalidArgument("--tables is required");
  if (parser.get_flag("regenerate")) {
    return servebench::regenerate_tables(tables, parser.get_string("commit"));
  }

  servebench::RunOptions options;
  options.workload = parser.get_string("workload");
  options.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  options.seconds = parser.get_double("seconds");
  options.trace = parser.get_int("trace") != 0;
  options.tables_dir = tables;
  options.commit = parser.get_string("commit");
  if (!(options.seconds > 0.0)) {
    throw pbmg::InvalidArgument("--seconds must be positive");
  }

  const servebench::Outcome outcome = servebench::run_workload(options);
  for (const servebench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      throw pbmg::Error("servebench: metric " + m.name + " is not finite");
    }
  }
  servebench::print_outcome(outcome, outcome.failed == 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "servebench: error: " << e.what() << std::endl;
    return 2;
  }
}
