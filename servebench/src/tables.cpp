// Frozen tuned tables.
//
// Why frozen: the DP trainer picks each cell by racing timed candidates,
// so its choices depend on timing noise.  Four trainings of Poisson up to
// n=257 on one 4-vCPU host produced four different V and FMG tables, and
// two trainings of poisson_L10_fmg.json on a 4-vCPU Xeon differed in 12 V
// and 27 FMG cells.  A benchmark that trained its own tables at start-up
// would measure a
// different plan on every run, so the tables are trained once by
// `run.py --regenerate`, committed beside the benchmark, and measured runs
// only load them.  Training cost is therefore not an end-to-end metric.

#include <filesystem>
#include <iostream>

#include "bench.h"
#include "engine/engine.h"
#include "runtime/machine_profile.h"
#include "support/error.h"
#include "support/timer.h"
#include "tune/trainer.h"

namespace servebench {

namespace {

using pbmg::OperatorFamily;

std::string regenerate_hint() {
  return " (rebuild the tables with `python3 servebench/run.py --regenerate`)";
}

}  // namespace

const std::vector<TableSpec>& table_specs() {
  static const std::vector<TableSpec> specs = {
      {"poisson_L10_fmg.json", OperatorFamily::kPoisson, 10, true},
      {"jump_L8.json", OperatorFamily::kJumpCoefficient, 8, false},
      {"routed_poisson_L6.json", OperatorFamily::kPoisson, 6, false},
      {"routed_smooth_L6.json", OperatorFamily::kSmoothVariable, 6, false},
      {"routed_jump_L6.json", OperatorFamily::kJumpCoefficient, 6, false},
      {"routed_aniso_L6.json", OperatorFamily::kAnisotropic, 6, false},
      {"routed_aniso-t30_L6.json", OperatorFamily::kAnisoTheta30, 6, false},
  };
  return specs;
}

const TableSpec& table_spec(const std::string& file) {
  for (const TableSpec& spec : table_specs()) {
    if (spec.file == file) return spec;
  }
  throw pbmg::InvalidArgument("servebench: no table spec '" + file + "'");
}

pbmg::tune::TunedConfig load_table(const std::string& dir,
                                   const TableSpec& spec) {
  const std::string path = (std::filesystem::path(dir) / spec.file).string();
  const auto fail = [&](const std::string& why) {
    throw pbmg::ConfigError("servebench: frozen table " + path + ": " + why +
                            regenerate_hint());
  };
  if (!std::filesystem::exists(path)) fail("missing");
  pbmg::tune::TunedConfig config;
  try {
    config = pbmg::tune::TunedConfig::load(path);
  } catch (const std::exception& e) {
    fail(std::string("invalid: ") + e.what());
  }
  if (config.op_family != pbmg::to_string(spec.family)) {
    fail("trained on family '" + config.op_family + "', expected '" +
         pbmg::to_string(spec.family) + "'");
  }
  if (config.max_level() < spec.level) {
    fail("too shallow: max_level " + std::to_string(config.max_level()) +
         " < required " + std::to_string(spec.level));
  }
  for (int level = 1; level <= spec.level; ++level) {
    for (int i = 0; i < config.accuracy_count(); ++i) {
      if (!config.v_entry(level, i).trained ||
          (spec.fmg && !config.fmg_entry(level, i).trained)) {
        fail("untrained cell at level " + std::to_string(level) +
             ", accuracy index " + std::to_string(i));
      }
    }
  }
  return config;
}

int regenerate_tables(const std::string& dir, const std::string& commit) {
  std::filesystem::create_directories(dir);
  for (const TableSpec& spec : table_specs()) {
    pbmg::Engine engine(pbmg::rt::harpertown_profile());
    pbmg::tune::TrainerOptions options;
    options.max_level = spec.level;
    options.op_family = spec.family;
    options.train_fmg = spec.fmg;
    const double t0 = pbmg::now_seconds();
    const pbmg::tune::TunedConfig config =
        pbmg::tune::Trainer(options, engine).train();
    const double seconds = pbmg::now_seconds() - t0;

    pbmg::Json doc = config.to_json();
    pbmg::Json meta = host_metadata(commit);
    meta.set("engine_profile", engine.profile().name);
    meta.set("engine_threads", engine.profile().threads);
    meta.set("train_seconds", seconds);
    meta.set("note",
             "frozen: trained once by run.py --regenerate; measured runs "
             "only load this file (the DP trainer's choices depend on "
             "timing races, so retraining changes the plan)");
    doc.set("servebench", std::move(meta));
    const std::string path = (std::filesystem::path(dir) / spec.file).string();
    pbmg::write_text_file(path, doc.dump(1) + "\n");
    load_table(dir, spec);  // the written file must pass the run-time check
    std::cout << "regenerated " << path << " in " << seconds << " s"
              << std::endl;
  }
  return 0;
}

}  // namespace servebench
