/// \file rules.cpp
/// \brief Reporter, rule registry, and the by-name dispatcher.

#include "lint/rules.hpp"

#include "util/error.hpp"

namespace photherm::lint {

void Reporter::report(const SourceFile& file, std::size_t index, const std::string& rule,
                      const std::string& message) {
  if (index < file.lines.size() && file.lines[index].inline_allows.count(rule) != 0) {
    return;
  }
  const auto it = config_.allows.find(rule);
  if (it != config_.allows.end()) {
    for (const std::string& suffix : it->second) {
      if (suffix_match(file.path, suffix)) {
        return;
      }
    }
  }
  out_.push_back({file.path, index + 1, rule, message});
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> r = {
      {"ownership",
       "no raw pointer/reference members to CsrMatrix/LinearOperator/mesh objects — holders own "
       "their data",
       false},
      {"determinism",
       "no wall clocks or ambient randomness; no iteration over unordered containers", false},
      {"serialization",
       "persisted doubles go through util::format_shortest (scenario files, checkpoints, CSV)",
       false},
      {"errors", "every throw raises photherm::Error or a subclass; no abort()/exit()", false},
      {"layering",
       "src/ module includes follow the layer DAG declared by `layer` lines in the config",
       false},
      {"concurrency",
       "no un-partitioned writes to by-reference captures inside parallel_for/submitted lambdas",
       false},
      {"lifetime",
       "no containers or aliases holding raw pointers/references to solver-lifetime types",
       false},
      {"telemetry",
       "every metric declared in the telemetry catalog is recorded somewhere",
       true},
  };
  return r;
}

void run_rule(const std::string& name, const std::vector<SourceFile>& files,
              const Config& config, Reporter& reporter) {
  if (name == "telemetry") {
    rule_telemetry(files, config, reporter);
    return;
  }
  for (const SourceFile& file : files) {
    if (name == "ownership") {
      rule_ownership(file, reporter);
    } else if (name == "determinism") {
      rule_determinism(file, reporter);
    } else if (name == "serialization") {
      rule_serialization(file, config, reporter);
    } else if (name == "errors") {
      rule_errors(file, reporter);
    } else if (name == "layering") {
      rule_layering(file, config, reporter);
    } else if (name == "concurrency") {
      rule_concurrency(file, reporter);
    } else if (name == "lifetime") {
      rule_lifetime(file, reporter);
    } else {
      throw Error("run_rule: unknown rule `" + name + "`");
    }
  }
}

}  // namespace photherm::lint
