/// \file config.hpp
/// \brief photherm_lint configuration: serialized-format files, per-file
/// allowlists, the module layer DAG, fixture module assignments, and the
/// telemetry-catalog file list.
///
/// Directive grammar (one per line, `#` comments):
///   serialized <path-suffix>          file writes a persisted text format
///   allow <rule> <path-suffix>        whole-file allowlist entry
///   layer <name> [<dep>... | *]       module <name> may directly include
///                                     the listed modules (its own module is
///                                     always allowed; `*` allows every
///                                     module). Dependencies are expanded
///                                     transitively: anything below you in
///                                     the DAG is fair game.
///   module <layer> <path-suffix>      assign a file outside src/<layer>/ to
///                                     a layer (fixture corpus support)
///   telemetry_catalog <path-suffix>   file holding the metric catalog
///                                     (`X(kId, "name")` rows)
///
/// Path suffixes match on path-component boundaries against the scanned
/// file's path relative to --root.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace photherm::lint {

struct Config {
  std::vector<std::string> serialized;                     ///< path suffixes
  std::map<std::string, std::vector<std::string>> allows;  ///< rule -> suffixes
  /// Layer name -> transitively closed set of modules it may include (own
  /// name included). A layer with `*` maps to the special entry {"*"}.
  std::map<std::string, std::set<std::string>> layers;
  std::vector<std::pair<std::string, std::string>> modules;  ///< (layer, suffix)
  std::vector<std::string> telemetry_catalogs;               ///< path suffixes
};

/// Normalize backslashes to forward slashes.
std::string normalize(std::string path);

/// Suffix match on a path-component boundary (`axis.hpp` cannot match
/// `taxis.hpp`).
bool suffix_match(const std::string& path, const std::string& suffix);

/// Parse the config at `path`. `known_rules` validates `allow` lines.
/// Throws photherm::Error with file:line context on any malformed or
/// unknown directive, unknown layer dependency, or dependency cycle.
Config load_config(const std::string& path, const std::set<std::string>& known_rules);

}  // namespace photherm::lint
