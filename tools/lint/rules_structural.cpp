/// \file rules_structural.cpp
/// \brief The cross-line, token-based rule families: layering, concurrency,
/// lifetime, and telemetry. These run over the comment/string-free token
/// stream (plus the recorded include directives), so they see through line
/// breaks, comments, and literals that defeat line-regex matching.

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lint/rules.hpp"

namespace photherm::lint {

namespace {

// ---------------------------------------------------------------------------
// token-stream helpers

bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool is_ident(const Token& t) { return t.kind == Token::Kind::kIdentifier; }

/// Index of the token matching the opener at `open` (one of `(`/`[`/`{`),
/// or tokens.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& tokens, std::size_t open) {
  const std::string& o = tokens[open].text;
  const std::string c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (is_punct(tokens[i], o.c_str())) {
      ++depth;
    } else if (is_punct(tokens[i], c.c_str())) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return tokens.size();
}

/// Index of the `[` matching the `]` at `close`, or npos when unbalanced.
std::size_t match_backward(const std::vector<Token>& tokens, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (is_punct(tokens[i], "]")) {
      ++depth;
    } else if (is_punct(tokens[i], "[")) {
      if (--depth == 0) {
        return i;
      }
    }
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// layering

/// The module a scanned file belongs to: an explicit `module` assignment
/// from the config wins; otherwise `src/<m>/...` maps to `m` and
/// `tools/...` to `tools`. Files outside both (tests, bench, examples)
/// have no module and are not layer-checked.
std::string module_of(const SourceFile& file, const Config& config) {
  for (const auto& [layer, suffix] : config.modules) {
    if (suffix_match(file.path, suffix)) {
      return layer;
    }
  }
  const std::string p = normalize(file.path);
  if (p.compare(0, 4, "src/") == 0) {
    const std::size_t slash = p.find('/', 4);
    if (slash != std::string::npos) {
      return p.substr(4, slash - 4);
    }
    return "";
  }
  if (p.compare(0, 6, "tools/") == 0) {
    return "tools";
  }
  return "";
}

// ---------------------------------------------------------------------------
// concurrency

/// Entry points whose inline lambda arguments run concurrently.
bool parallel_entry(const std::string& name) {
  return name == "parallel_for" || name == "parallel_reduce" || name == "kernel_for" ||
         name == "kernel_reduce" || name == "submit";
}

/// Statement keywords that can directly precede an identifier without
/// declaring it (`return x;`, `delete p;`, ...).
bool statement_keyword(const std::string& id) {
  static const std::set<std::string> kKeywords = {
      "return", "else",     "throw",     "case",     "goto",  "new",
      "delete", "sizeof",   "operator",  "co_await", "co_return", "co_yield",
  };
  return kKeywords.count(id) != 0;
}

/// Identifiers that can never be a declared variable name.
bool reserved_name(const std::string& id) {
  static const std::set<std::string> kReserved = {
      "if",     "while",  "for",     "do",       "switch",   "return",  "break",
      "else",   "case",   "default", "continue", "goto",     "new",     "delete",
      "sizeof", "throw",  "try",     "catch",    "operator", "this",    "true",
      "false",  "nullptr", "const",  "mutable",  "noexcept", "static",  "auto",
  };
  return kReserved.count(id) != 0;
}

/// One inline lambda found inside a parallel entry-point call.
struct Lambda {
  bool default_by_ref = false;
  std::set<std::string> by_ref;    ///< explicitly &-captured names
  std::set<std::string> by_value;  ///< explicitly value-captured names
  std::size_t body_open = 0;       ///< index of the body `{`
  std::size_t body_close = 0;      ///< index of the matching `}`
  std::set<std::string> locals;    ///< params + body-declared names
};

/// Parse the capture list between `[` at `open` and its matching `]`.
void parse_captures(const std::vector<Token>& tokens, std::size_t open, std::size_t close,
                    Lambda& lambda) {
  // Split on top-level commas; init-capture expressions may nest parens.
  std::size_t item = open + 1;
  int depth = 0;
  for (std::size_t i = open + 1; i <= close; ++i) {
    if (is_punct(tokens[i], "(") || is_punct(tokens[i], "[") || is_punct(tokens[i], "{")) {
      ++depth;
    } else if (is_punct(tokens[i], ")") || is_punct(tokens[i], "}") ||
               (is_punct(tokens[i], "]") && i != close)) {
      --depth;
    }
    if ((is_punct(tokens[i], ",") && depth == 0) || i == close) {
      if (item < i) {
        const Token& first = tokens[item];
        if (is_punct(first, "&")) {
          if (item + 1 >= i) {
            lambda.default_by_ref = true;  // bare [&]
          } else if (is_ident(tokens[item + 1]) && tokens[item + 1].text != "this") {
            lambda.by_ref.insert(tokens[item + 1].text);
          }
        } else if (is_ident(first) && first.text != "this") {
          // `x`, `x = expr`: either way the lambda owns the binding.
          lambda.by_value.insert(first.text);
        }
        // `this`, `*this`, `=` (default copy): nothing shared by reference.
      }
      item = i + 1;
    }
  }
}

/// Collect parameter names: the last identifier of each comma-separated
/// declarator inside the parens.
void parse_params(const std::vector<Token>& tokens, std::size_t open, std::size_t close,
                  Lambda& lambda) {
  int depth = 0;
  std::string last_ident;
  for (std::size_t i = open + 1; i <= close; ++i) {
    if (is_punct(tokens[i], "(") || is_punct(tokens[i], "<") || is_punct(tokens[i], "{")) {
      ++depth;
    } else if (is_punct(tokens[i], ")") || is_punct(tokens[i], ">") ||
               is_punct(tokens[i], "}")) {
      --depth;
    } else if (is_punct(tokens[i], ">>")) {
      depth -= 2;
    }
    if ((is_punct(tokens[i], ",") && depth == 0) || i == close) {
      if (!last_ident.empty() && !reserved_name(last_ident)) {
        lambda.locals.insert(last_ident);
      }
      last_ident.clear();
    } else if (is_ident(tokens[i]) && depth == 0) {
      last_ident = tokens[i].text;
    }
  }
}

/// Collect names declared inside the body: `Type name` followed by
/// `;`/`=`/`(`/`{`/`:`/`,`, plus structured bindings `auto [a, b]`.
void collect_locals(const std::vector<Token>& tokens, Lambda& lambda) {
  for (std::size_t i = lambda.body_open + 1; i < lambda.body_close; ++i) {
    const Token& t = tokens[i];
    if (!is_ident(t)) {
      continue;
    }
    if (t.text == "auto" && i + 1 < lambda.body_close) {
      // `auto [a, b] = ...` / `auto& [a, b] : ...` structured bindings.
      std::size_t j = i + 1;
      while (j < lambda.body_close &&
             (is_punct(tokens[j], "&") || is_punct(tokens[j], "&&") ||
              (is_ident(tokens[j]) && tokens[j].text == "const"))) {
        ++j;
      }
      if (j < lambda.body_close && is_punct(tokens[j], "[")) {
        const std::size_t end = match_forward(tokens, j);
        for (std::size_t k = j + 1; k < end && k < lambda.body_close; ++k) {
          if (is_ident(tokens[k])) {
            lambda.locals.insert(tokens[k].text);
          }
        }
      }
      continue;
    }
    if (reserved_name(t.text) || i == lambda.body_open + 1 || i + 1 >= lambda.body_close) {
      continue;
    }
    const Token& prev = tokens[i - 1];
    const Token& next = tokens[i + 1];
    const bool declarator_before =
        (is_ident(prev) && !statement_keyword(prev.text)) || is_punct(prev, ">") ||
        is_punct(prev, "&") || is_punct(prev, "&&") || is_punct(prev, "*");
    const bool declarator_after = is_punct(next, ";") || is_punct(next, "=") ||
                                  is_punct(next, "(") || is_punct(next, "{") ||
                                  is_punct(next, ":") || is_punct(next, ",");
    if (declarator_before && declarator_after) {
      lambda.locals.insert(t.text);
    }
  }
}

/// Walk the lvalue postfix chain ending at `j` backwards. Returns the base
/// identifier ("" when the shape is unrecognized) and sets `partitioned`
/// when any subscript along the chain names a lambda-local.
std::string lvalue_base(const std::vector<Token>& tokens, std::size_t j, const Lambda& lambda,
                        bool& partitioned) {
  while (true) {
    if (is_punct(tokens[j], "]")) {
      const std::size_t open = match_backward(tokens, j);
      if (open == std::string::npos || open == 0) {
        return "";
      }
      for (std::size_t k = open + 1; k < j; ++k) {
        if (is_ident(tokens[k]) && lambda.locals.count(tokens[k].text) != 0) {
          partitioned = true;
        }
      }
      j = open - 1;
      continue;
    }
    if (is_ident(tokens[j])) {
      if (j >= 2 && (is_punct(tokens[j - 1], ".") || is_punct(tokens[j - 1], "->"))) {
        j -= 2;
        continue;
      }
      // A base directly after `[` is a capture or subscript head, not a
      // statement lvalue.
      if (j >= 1 && is_punct(tokens[j - 1], "[")) {
        return "";
      }
      return tokens[j].text;
    }
    return "";
  }
}

bool write_op(const Token& t) {
  static const std::set<std::string> kOps = {"=",  "+=", "-=",  "*=",  "/=", "%=",
                                             "&=", "|=", "^=",  "<<=", ">>="};
  return t.kind == Token::Kind::kPunct && kOps.count(t.text) != 0;
}

// ---------------------------------------------------------------------------
// lifetime

bool guarded_type(const std::string& id) {
  static const std::set<std::string> kGuarded = {
      "CsrMatrix",        "LinearOperator", "StencilOperator7", "Preconditioner",
      "RectilinearMesh",  "ThermalField",   "Axis",
  };
  return kGuarded.count(id) != 0;
}

bool container_name(const std::string& id) {
  static const std::set<std::string> kContainers = {
      "vector", "map",   "unordered_map", "set",   "unordered_set", "multimap",
      "multiset", "deque", "list",  "forward_list",  "array", "span",
      "pair",   "tuple", "optional",      "variant", "queue", "stack",
      "initializer_list",
  };
  return kContainers.count(id) != 0;
}

}  // namespace

// ---------------------------------------------------------------------------

void rule_layering(const SourceFile& file, const Config& config, Reporter& reporter) {
  if (config.layers.empty()) {
    return;  // no layer spec in this config: nothing to enforce
  }
  const std::string module = module_of(file, config);
  if (module.empty()) {
    return;  // outside src/ and tools/, and not module-assigned
  }
  const auto layer = config.layers.find(module);
  if (layer == config.layers.end()) {
    reporter.report(file, 0, "layering",
                    "module `" + module +
                        "` has no `layer` declaration in the lint config: every src/ "
                        "module (and tools) must be placed in the layer DAG so its "
                        "dependencies are reviewed, not accidental");
    return;
  }
  const std::set<std::string>& allowed = layer->second;
  if (allowed.count("*") != 0) {
    return;
  }
  for (const IncludeDirective& include : file.includes) {
    if (include.angled) {
      continue;  // system/third-party headers are not layered
    }
    const std::size_t slash = include.path.find('/');
    if (slash == std::string::npos) {
      continue;  // same-directory include
    }
    const std::string target = include.path.substr(0, slash);
    if (config.layers.count(target) == 0) {
      continue;  // not a known module prefix (e.g. tools-local headers)
    }
    if (allowed.count(target) == 0) {
      reporter.report(file, include.line - 1, "layering",
                      "module `" + module + "` includes \"" + include.path +
                          "\" but layer `" + target +
                          "` is not in its declared dependency closure — either the "
                          "include goes, or the `layer " + module +
                          "` line in the lint config gains the dependency (a reviewed, "
                          "deliberate edge)");
    }
  }
}

void rule_concurrency(const SourceFile& file, Reporter& reporter) {
  const std::vector<Token>& tokens = file.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!is_ident(tokens[i]) || !parallel_entry(tokens[i].text) ||
        !is_punct(tokens[i + 1], "(")) {
      continue;
    }
    const std::size_t call_close = match_forward(tokens, i + 1);
    if (call_close >= tokens.size()) {
      continue;
    }
    // Find inline lambdas in argument position within the call.
    for (std::size_t j = i + 2; j < call_close; ++j) {
      if (!is_punct(tokens[j], "[") ||
          !(is_punct(tokens[j - 1], "(") || is_punct(tokens[j - 1], ","))) {
        continue;
      }
      const std::size_t cap_close = match_forward(tokens, j);
      if (cap_close >= call_close) {
        continue;
      }
      Lambda lambda;
      parse_captures(tokens, j, cap_close, lambda);
      std::size_t cursor = cap_close + 1;
      if (cursor < call_close && is_punct(tokens[cursor], "(")) {
        const std::size_t param_close = match_forward(tokens, cursor);
        if (param_close >= call_close) {
          continue;
        }
        parse_params(tokens, cursor, param_close, lambda);
        cursor = param_close + 1;
      }
      while (cursor < call_close && !is_punct(tokens[cursor], "{")) {
        ++cursor;  // skip mutable/noexcept/trailing return type
      }
      if (cursor >= call_close) {
        continue;
      }
      lambda.body_open = cursor;
      lambda.body_close = match_forward(tokens, cursor);
      if (lambda.body_close >= tokens.size()) {
        continue;
      }
      collect_locals(tokens, lambda);
      if (!lambda.default_by_ref && lambda.by_ref.empty()) {
        j = lambda.body_close;
        continue;  // nothing is shared by reference
      }
      for (std::size_t k = lambda.body_open + 1; k < lambda.body_close; ++k) {
        const Token& t = tokens[k];
        bool partitioned = false;
        std::string base;
        if (write_op(t) && k > lambda.body_open + 1) {
          base = lvalue_base(tokens, k - 1, lambda, partitioned);
        } else if (is_punct(t, "++") || is_punct(t, "--")) {
          if (is_ident(tokens[k - 1]) || is_punct(tokens[k - 1], "]")) {
            base = lvalue_base(tokens, k - 1, lambda, partitioned);  // postfix
          } else if (k + 1 < lambda.body_close && is_ident(tokens[k + 1])) {
            base = tokens[k + 1].text;  // prefix: ++x or ++x[i]
            std::size_t sub = k + 2;
            if (sub < lambda.body_close && is_punct(tokens[sub], "[")) {
              const std::size_t sub_close = match_forward(tokens, sub);
              for (std::size_t s = sub + 1; s < sub_close && s < lambda.body_close; ++s) {
                if (is_ident(tokens[s]) && lambda.locals.count(tokens[s].text) != 0) {
                  partitioned = true;
                }
              }
            }
          }
        }
        if (base.empty() || partitioned || lambda.locals.count(base) != 0 ||
            lambda.by_value.count(base) != 0) {
          continue;
        }
        const bool shared = lambda.by_ref.count(base) != 0 || lambda.default_by_ref;
        if (!shared) {
          continue;
        }
        reporter.report(file, t.line - 1, "concurrency",
                        "write to `" + base +
                            "` captured by reference inside a parallel_for/pool lambda "
                            "without partitioning by the loop index: concurrent "
                            "iterations race on it — write through an index-partitioned "
                            "slot (out[i] = ...) and combine after the join, or make it "
                            "a lambda-local");
      }
      j = lambda.body_close;
    }
    i = call_close;
  }
}

void rule_lifetime(const SourceFile& file, Reporter& reporter) {
  const std::vector<Token>& tokens = file.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!is_ident(tokens[i]) || !container_name(tokens[i].text) ||
        !is_punct(tokens[i + 1], "<")) {
      continue;
    }
    // Walk the balanced template-argument region; abort on statement
    // punctuation (a `<` that was really a comparison).
    std::size_t close = tokens.size();
    int depth = 0;
    for (std::size_t j = i + 1; j < tokens.size() && j < i + 200; ++j) {
      if (is_punct(tokens[j], "<")) {
        ++depth;
      } else if (is_punct(tokens[j], ">")) {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (is_punct(tokens[j], ">>")) {
        depth -= 2;
        if (depth <= 0) {
          close = j;
          break;
        }
      } else if (is_punct(tokens[j], ";") || is_punct(tokens[j], "{") ||
                 is_punct(tokens[j], "}")) {
        break;
      }
    }
    if (close >= tokens.size()) {
      continue;
    }
    for (std::size_t j = i + 2; j < close; ++j) {
      bool raw_view = false;
      if (is_ident(tokens[j]) && guarded_type(tokens[j].text)) {
        std::size_t after = j + 1;
        if (after < close && is_ident(tokens[after]) && tokens[after].text == "const") {
          ++after;  // `Foo const*`
        }
        raw_view = after <= close &&
                   (is_punct(tokens[after], "*") || is_punct(tokens[after], "&"));
      } else if (is_ident(tokens[j]) && tokens[j].text == "reference_wrapper" &&
                 j + 1 < close && is_punct(tokens[j + 1], "<")) {
        for (std::size_t k = j + 2; k < close; ++k) {
          if (is_ident(tokens[k]) && guarded_type(tokens[k].text)) {
            raw_view = true;
            break;
          }
          if (is_punct(tokens[k], ">") || is_punct(tokens[k], ">>")) {
            break;
          }
        }
      }
      if (raw_view) {
        reporter.report(file, tokens[i].line - 1, "lifetime",
                        "container/alias element holds a raw pointer/reference to "
                        "solver-lifetime type `" + tokens[j].text +
                            "`: the collection outlives no one — elements must own "
                            "(values, unique_ptr/shared_ptr) so reseating or "
                            "destroying the source cannot dangle the collection");
        break;  // one finding per container spelling
      }
    }
    i = close;
  }
}

void rule_telemetry(const std::vector<SourceFile>& files, const Config& config,
                    Reporter& reporter) {
  // The compiler already rejects an undeclared, misspelled or wrong-kind
  // metric; what no type can see is a declared metric nothing records.
  // Rows are `X(kId, "name")` in the catalog files; a record is any
  // `Counter::kId` / `Gauge::kId` / `Timer::kId` in the scan.
  struct Row {
    const SourceFile* file;
    const Token* id;
  };
  std::vector<Row> rows;
  std::set<std::string> recorded;
  bool catalog_in_scan = false;
  for (const SourceFile& file : files) {
    bool is_catalog = false;
    for (const std::string& suffix : config.telemetry_catalogs) {
      is_catalog = is_catalog || suffix_match(file.path, suffix);
    }
    catalog_in_scan = catalog_in_scan || is_catalog;
    const std::vector<Token>& t = file.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (!is_ident(t[i]) || !is_ident(t[i + 2])) {
        continue;
      }
      if (is_catalog && t[i].text == "X" && is_punct(t[i + 1], "(") && i + 4 < t.size() &&
          is_punct(t[i + 3], ",") && t[i + 4].kind == Token::Kind::kString) {
        rows.push_back({&file, &t[i + 2]});
      } else if ((t[i].text == "Counter" || t[i].text == "Gauge" || t[i].text == "Timer") &&
                 is_punct(t[i + 1], "::")) {
        recorded.insert(t[i + 2].text);
      }
    }
  }
  if (!catalog_in_scan) {
    return;  // the catalog is outside this scan (partial file list)
  }
  for (const Row& row : rows) {
    if (recorded.count(row.id->text) == 0) {
      reporter.report(*row.file, row.id->line - 1, "telemetry",
                      "catalog metric `" + row.id->text +
                          "` is recorded nowhere in the scanned tree: a dead row exports a "
                          "permanent zero — remove the row or restore the instrumentation");
    }
  }
}

}  // namespace photherm::lint
