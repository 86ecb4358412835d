// dcache-lint: repo-specific invariant checker for the dcache simulator.
//
// The simulator's headline guarantees — byte-identical output for any
// `--jobs N`, every CPU cycle priced through the single `sim::Node::charge`
// funnel, every ServeCounters field declared through the counter list —
// are properties of the *source*, not just of a lucky seed. This tool
// enforces them at build time with light tokenization (no libclang): see
// INVARIANTS.md for the rule catalogue and the suppression syntax.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dcache::lint {

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

enum class TokenKind : unsigned char {
  kIdentifier,  // [A-Za-z_][A-Za-z0-9_]*
  kNumber,      // numeric literal (pp-number, loosely)
  kString,      // "..." or R"(...)" — text holds the *contents*
  kCharLit,     // '...'
  kPunct,       // operators/punctuation; multi-char ops are merged
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;  // 1-based line of the token's first character
};

/// One inline suppression directive:
///   // dcache-lint: allow(rule-id, reason text)        — same or next line
///   // dcache-lint: allow-file(rule-id, reason text)   — whole file
/// The reason is mandatory; an allow without one does not suppress and is
/// itself reported by the `suppression` rule.
struct Suppression {
  std::string rule;
  std::string reason;
  int line = 0;
  bool fileWide = false;
  bool used = false;
};

/// A lexed source file. `relPath` is root-relative with '/' separators so
/// reports are byte-stable across checkouts.
struct SourceFile {
  std::string relPath;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
};

/// Tokenize C/C++ source: strips comments and collects suppression
/// directives from them; string/char literal contents are kept as single
/// tokens.
[[nodiscard]] SourceFile lexFile(const std::string& relPath,
                                 const std::string& text);

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

/// Deterministic report order: (file, line, rule, message).
[[nodiscard]] bool findingLess(const Finding& a, const Finding& b);

// ---------------------------------------------------------------------------
// Lint driver
// ---------------------------------------------------------------------------

/// Everything the rules need, loaded up front so each rule is a pure
/// function of this snapshot (no filesystem access inside rules — that is
/// what keeps the JSON report byte-stable across runs).
struct LintInput {
  /// Lexed .cpp/.hpp/.h files under <root>/{src,bench,tests}, sorted by
  /// relPath. tests/lint_fixtures and tests/golden are excluded (fixtures
  /// contain deliberate violations).
  std::vector<SourceFile> files;
  /// Raw text of tools/check.sh ("" when absent — bench-hygiene skips).
  std::string checkShText;
  bool hasCheckSh = false;
  /// Basenames of files in tests/golden/ (e.g. "fig4_synthetic.txt").
  std::set<std::string> goldenFiles;
  /// Root-relative paths of bench sources ("bench/fig2_model.cpp", ...).
  std::vector<std::string> benchSources;
};

/// Run every rule, apply suppressions, audit the suppressions themselves,
/// and return the findings sorted by findingLess. Builds the declaration
/// index (index.hpp) internally for the symbol- and flow-aware rules.
[[nodiscard]] std::vector<Finding> runLint(LintInput& input);

/// Rule ids, for --list-rules and directive validation.
[[nodiscard]] const std::vector<std::string>& knownRules();

// The declaration index (see index.hpp) powering the symbol-aware rules.
struct Index;

// Individual rules (exposed for focused testing; runLint calls them all).
void ruleDeterminism(const LintInput& in, std::vector<Finding>& out);
void ruleUnorderedIter(const LintInput& in, const Index& index,
                       std::vector<Finding>& out);
void ruleChargeFunnel(const LintInput& in, std::vector<Finding>& out);
void ruleCounterRegistration(const LintInput& in, const Index& index,
                             std::vector<Finding>& out);
void ruleBenchHygiene(const LintInput& in, std::vector<Finding>& out);
void ruleHotPathAlloc(const LintInput& in, std::vector<Finding>& out);
/// The four symbol/flow rules (units, race-capture, charge-path,
/// guard-pairing), implemented in rules_flow.cpp.
void runFlowRules(const LintInput& in, const Index& index,
                  std::vector<Finding>& out);

}  // namespace dcache::lint
