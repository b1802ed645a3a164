// Declarative command-line surface for the experiment stack: one table of
// (name, type, default, help, config binding) rows replaces the hand-rolled
// flag plumbing that soap_run and the figure benches used to duplicate.
// The table generates --help, applies the bindings to an ExperimentConfig
// in row order (so later rows may read flags earlier rows declared), and
// rejects unknown flags with a near-miss suggestion instead of silently
// ignoring a typo.

#ifndef SOAP_ENGINE_FLAG_TABLE_H_
#define SOAP_ENGINE_FLAG_TABLE_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/flags.h"
#include "src/engine/experiment.h"

namespace soap::engine {

enum class FlagType { kBool, kInt, kDouble, kString };

struct FlagDef {
  std::string name;
  FlagType type = FlagType::kString;
  /// Default as shown in --help (empty: no default printed).
  std::string default_text;
  std::string help;
  /// Applies the flag to the config; null for rows the frontend consumes
  /// itself (presentation flags like --csv) or that another row's binding
  /// reads (e.g. --alpha, folded into --workload's binding).
  std::function<Status(const Flags&, ExperimentConfig*)> bind;
  /// Accepted but left out of --help (testing hooks like --check_break).
  bool hidden = false;
  /// Subsystem heading the flag is listed under in --help (cluster,
  /// planner, replica, lion, obs, check, ...). ExperimentFlagTable names
  /// it in every row; frontend rows that omit it list under "general".
  std::string group = "general";
};

class FlagTable {
 public:
  explicit FlagTable(std::vector<FlagDef> defs) : defs_(std::move(defs)) {}

  const std::vector<FlagDef>& defs() const { return defs_; }

  /// Appends rows (frontend-specific flags on top of a shared table).
  void Add(FlagDef def) { defs_.push_back(std::move(def)); }

  /// Generated usage text: tagline, then one aligned row per flag.
  std::string Help(std::string_view program, std::string_view tagline) const;

  /// Rejects flags that match no row. The error names the offender and,
  /// when a row is within edit distance 2 (or is a prefix/extension),
  /// suggests it: `unknown flag --seedz (did you mean --seeds?)`.
  Status CheckUnknown(const Flags& flags) const;

  /// Runs every row's binding against `config`, in table order; stops at
  /// the first failure.
  Status Apply(const Flags& flags, ExperimentConfig* config) const;

 private:
  std::vector<FlagDef> defs_;
};

/// Validates an enum-valued flag's value against its allowed spellings.
/// OK when `value` matches one; otherwise InvalidArgument naming the flag
/// and, when an allowed value is within edit distance 2, suggesting it:
/// `unknown --cc value 'mvvc' (did you mean mvcc?)`. With no near miss the
/// error lists the allowed set instead.
Status CheckEnumValue(const std::string& flag, const std::string& value,
                      const std::vector<std::string>& allowed);

/// The shared experiment flag table: everything that configures an
/// ExperimentConfig (workload, strategy, planner, replication, faults,
/// observability). A row assigns its field only when its flag is given,
/// so ExperimentConfig's initializers are the only defaults; enum and
/// other string values are parsed here, once. Frontends copy it and
/// Add() their presentation flags.
FlagTable ExperimentFlagTable();

}  // namespace soap::engine

#endif  // SOAP_ENGINE_FLAG_TABLE_H_
