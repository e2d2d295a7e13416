/// \file rules.hpp
/// \brief Rule interface for photherm_lint: findings, the allowlist-aware
/// reporter, the rule registry, and the entry points for the eight rule
/// families.
///
/// Two rule shapes exist:
///   * per-file rules see one SourceFile at a time (plus the config);
///   * tree rules see every scanned file at once (the telemetry rule must
///     find each catalog row's records anywhere in the tree).
/// Both report through Reporter, which applies inline `ph-lint: allow(...)`
/// markers and the config's per-file allowlists.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/config.hpp"
#include "lint/source.hpp"

namespace photherm::lint {

struct Finding {
  std::string path;
  std::size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

class Reporter {
 public:
  Reporter(const Config& config, std::vector<Finding>& out) : config_(config), out_(out) {}

  /// Record a finding unless the line or file is allowlisted for the rule.
  void report(const SourceFile& file, std::size_t index, const std::string& rule,
              const std::string& message);

 private:
  const Config& config_;
  std::vector<Finding>& out_;
};

struct RuleInfo {
  std::string name;
  std::string summary;
  bool tree_wide = false;
};

/// All rule families in registry (and execution) order.
const std::vector<RuleInfo>& rules();

// --- PR 7 lexical families (line-based over the blanked code) --------------
void rule_ownership(const SourceFile& file, Reporter& reporter);
void rule_determinism(const SourceFile& file, Reporter& reporter);
void rule_serialization(const SourceFile& file, const Config& config, Reporter& reporter);
void rule_errors(const SourceFile& file, Reporter& reporter);

// --- cross-line families (token-based) -------------------------------------
void rule_layering(const SourceFile& file, const Config& config, Reporter& reporter);
void rule_concurrency(const SourceFile& file, Reporter& reporter);
void rule_lifetime(const SourceFile& file, Reporter& reporter);
void rule_telemetry(const std::vector<SourceFile>& files, const Config& config,
                    Reporter& reporter);

/// Run one rule by name over the scanned tree (dispatches per-file or
/// tree-wide as appropriate). Unknown names are a programming error and
/// throw photherm::Error.
void run_rule(const std::string& name, const std::vector<SourceFile>& files,
              const Config& config, Reporter& reporter);

}  // namespace photherm::lint
