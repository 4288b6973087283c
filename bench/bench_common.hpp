// Shared plumbing for the per-figure bench binaries: machine construction
// (simulated by default, --real for the host's BLAS substrate), family
// selection by registry name, ExperimentDriver setup, the standard search /
// traversal flag parsing, report headers and paper-vs-reproduced rows.
//
// Common flags (every bench):
//   --real              time the real lamb::blas kernels instead of the
//                       simulated machine (slower; scales are reduced)
//   --family=NAME       expression family from expr::registry() (each bench
//                       has its per-figure default, e.g. chain4 for Fig. 6)
//   --threads=N         instance-evaluation workers (0 = hardware; parallel
//                       evaluation engages only on the simulated machine)
//   --seed=N            RNG seed for instance sampling
//   --lo=N --hi=N       search-space bounds per dimension
//   --anomalies=N       Experiment-1 target anomaly count
//   --max-samples=N     Experiment-1 sample budget
//   --threshold=X       time-score threshold override
//   --out-dir=PATH      where CSV dumps go (default "results")
//   --atlas-dir=PATH    persistent store::AtlasStore directory; atlases
//                       built by this run are saved there and later runs
//                       (any bench or serve_cli) reuse them instead of
//                       re-scanning
//
// Flags are strict (support::Cli): each bench reads all its flags, then
// calls ctx.cli.reject_unknown_flags() before it runs anything, so a
// misspelt flag, or one its path does not read (--repetitions without
// --real), stops it with the list of the flags it reads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "anomaly/atlas.hpp"
#include "anomaly/driver.hpp"
#include "expr/registry.hpp"
#include "model/machine.hpp"
#include "model/measured_machine.hpp"
#include "model/simulated_machine.hpp"
#include "store/atlas_store.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace lamb::bench {

/// Per-bench defaults for the standard Experiment-1 flags; the --real
/// variants are reduced because real timing is orders of magnitude slower.
struct SearchDefaults {
  int sim_anomalies = 100;
  int real_anomalies = 3;
  long long sim_max_samples = 100000;
  long long real_max_samples = 200;
  int sim_hi = 1200;
  int real_hi = 300;
  double threshold = 0.10;
  /// When true, --threshold overrides the search threshold (the search-only
  /// scatter benches); otherwise the search threshold is --search-threshold,
  /// leaving --threshold to the Experiment-2/3 configs as before.
  bool threshold_from_flag = false;
  std::uint64_t seed = 1;
};

struct BenchContext {
  support::Cli cli;
  std::unique_ptr<model::MachineModel> machine;
  bool real = false;
  std::string out_dir;
  /// Present when --atlas-dir was given.
  std::unique_ptr<store::AtlasStore> atlas_store;

  BenchContext(int argc, const char* const* argv);

  /// Family selected by --family (registry name), else `default_family`.
  std::unique_ptr<expr::ExpressionFamily> family(
      const std::string& default_family) const;

  /// The --family name that will be used (for headers and reports).
  std::string family_name(const std::string& default_family) const;

  /// Driver config from --threads (validated non-negative).
  anomaly::DriverConfig driver_config() const;

  /// Driver over --family / --threads and this context's machine.
  anomaly::ExperimentDriver driver(const std::string& default_family) const;

  /// Experiment-1 config from the standard flags + per-bench defaults.
  anomaly::RandomSearchConfig search_config(const SearchDefaults& d) const;

  /// Experiment-2 config sharing the search box; threshold from --threshold
  /// (default 5%, the paper's Experiments 2-3 setting).
  anomaly::TraversalConfig traversal_config(
      const anomaly::RandomSearchConfig& search,
      double default_threshold = 0.05) const;

  /// CSV writer at <out-dir>/<stem>.csv.
  support::CsvWriter csv(const std::string& stem) const;

  /// A RegionAtlas for (family, base, dim, cfg): loaded from --atlas-dir
  /// when a matching record exists there, otherwise built on this context's
  /// machine (and saved back when --atlas-dir is set).
  anomaly::RegionAtlas atlas(const expr::ExpressionFamily& family,
                             const expr::Instance& base, int dim,
                             const anomaly::AtlasConfig& cfg) const;

  /// Registry names from --families=a,b,c (default: `default_list`); used by
  /// the benches that sweep several families.
  std::vector<std::string> families(const std::string& default_list) const;
};

/// Print the standard header identifying the reproduced artifact.
void print_header(const std::string& artifact, const std::string& what,
                  const BenchContext& ctx);

/// Header variant naming the family under study.
void print_header(const std::string& artifact, const std::string& what,
                  const BenchContext& ctx,
                  const expr::ExpressionFamily& family);

/// Run Experiment 1 on the driver, printing the box being searched and the
/// resulting anomaly count / sample count.
anomaly::RandomSearchResult run_search(
    anomaly::ExperimentDriver& driver,
    const anomaly::RandomSearchConfig& cfg);

/// Print the standard "CSV: <path>" footer.
void print_csv_path(const support::CsvWriter& csv);

/// One "paper vs reproduced" comparison row; collected and rendered at exit.
class Comparison {
 public:
  void add(const std::string& quantity, const std::string& paper,
           const std::string& ours);
  void render() const;

 private:
  support::Table table_{{"quantity", "paper (Xeon 4210 + MKL)",
                         "this run"}};
};

}  // namespace lamb::bench
