#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid/problem.h"
#include "support/json.h"
#include "tune/table.h"

/// \file bench.h
/// Shared declarations of the serving benchmark (see run.py for usage).

namespace servebench {

/// One named metric of the final result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: request counts, the metrics of the
/// selected mode (end-to-end or per-layer), and human-readable lines
/// printed ahead of the JSON result.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Command-line settings of a measured run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tables_dir;
  std::string commit;  ///< source revision label for the host metadata
};

/// Runs one workload (workloads.cpp).  Throws on an unknown workload or a
/// missing/invalid frozen table.
Outcome run_workload(const RunOptions& options);

// ----------------------------------------------------------- tables.cpp --

/// One frozen tuned table the benchmark serves from.
struct TableSpec {
  std::string file;             ///< file name inside the tables directory
  pbmg::OperatorFamily family;  ///< family the table is trained on
  int level = 0;                ///< deepest level the workload solves
  bool fmg = false;             ///< FULL-MULTIGRID cells are served too
};

/// Every table a workload needs, in a fixed order.
const std::vector<TableSpec>& table_specs();

/// The spec named `file`; throws when it is not one of table_specs().
const TableSpec& table_spec(const std::string& file);

/// Loads a frozen table with tune::TunedConfig::load and checks that it is
/// the spec's family, deep enough, and trained in every cell the workload
/// can reach.  Any failure throws pbmg::ConfigError naming the file and
/// the regenerate command: a bad table is never silently retrained.
pbmg::tune::TunedConfig load_table(const std::string& dir,
                                   const TableSpec& spec);

/// Trains every table of table_specs() on the benchmark's engine profile
/// and writes it, with host metadata, into `dir`.  Returns 0 on success.
int regenerate_tables(const std::string& dir, const std::string& commit);

// ----------------------------------------------------------- report.cpp --

/// Host facts every result is tagged with: commit, compiler, CPU model,
/// nproc, last-level cache size, load average.
pbmg::Json host_metadata(const std::string& commit);

/// Size of the last-level cache in bytes (0 when unknown).
std::int64_t llc_bytes();

/// One-minute load average (NaN when unavailable).
double loadavg_1min();

/// getrusage maximum resident set size, in MiB.
double peak_rss_mb();

/// Nearest-rank quantile q in [0, 1] of `samples` (NaN when empty).
double quantile(std::vector<double> samples, double q);

/// Upper end of the 95% Wilson score interval of the failure probability
/// given `failed` out of `attempted` requests.
double wilson_upper(std::int64_t failed, std::int64_t attempted);

/// Prints the notes, then the JSON result as the last line of stdout.
void print_outcome(const Outcome& outcome, bool correct);

}  // namespace servebench
