// Index construction: one linear walk per file with a scope stack. The
// classifier for '{' is the heart of it — function body vs class body vs
// namespace vs initializer — and is deliberately conservative: anything it
// cannot classify becomes an anonymous block, which only ever *widens*
// what the rules treat as reachable.
#include "index.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace dcache::lint {

namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] bool isId(const Token& t, std::string_view s) {
  return t.kind == TokenKind::kIdentifier && t.text == s;
}
[[nodiscard]] bool isPunct(const Token& t, std::string_view s) {
  return t.kind == TokenKind::kPunct && t.text == s;
}

[[nodiscard]] bool isControlKeyword(const std::string& s) {
  static constexpr std::array<std::string_view, 7> kControl = {
      "if", "for", "while", "switch", "catch", "return", "sizeof"};
  return std::find(kControl.begin(), kControl.end(), s) != kControl.end();
}

/// Matching partner for every paren/brace/bracket token, or npos. An
/// unbalanced file (half of an #ifdef pair) degrades to npos matches,
/// which the walkers treat as "skip to end".
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

struct Matcher {
  std::vector<std::size_t> match;

  explicit Matcher(const Tokens& toks) : match(toks.size(), kNpos) {
    std::vector<std::size_t> parens, braces, brackets;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokenKind::kPunct) continue;
      const std::string& s = toks[i].text;
      if (s == "(") parens.push_back(i);
      else if (s == "[") brackets.push_back(i);
      else if (s == "{") braces.push_back(i);
      else if (s == ")" && !parens.empty()) {
        match[i] = parens.back();
        match[parens.back()] = i;
        parens.pop_back();
      } else if (s == "]" && !brackets.empty()) {
        match[i] = brackets.back();
        match[brackets.back()] = i;
        brackets.pop_back();
      } else if (s == "}" && !braces.empty()) {
        match[i] = braces.back();
        match[braces.back()] = i;
        braces.pop_back();
      }
    }
  }
};

enum class ScopeKind : unsigned char {
  kNamespace,
  kClass,
  kFunction,
  kEnum,
  kBlock,  // initializer lists, control blocks, anything unclassified
};

struct Classified {
  ScopeKind kind = ScopeKind::kBlock;
  std::string name;              // class/namespace/function name
  /// For qualified out-of-class definitions (`Tracer::startRequest(...)`)
  /// the qualifier; "" when the definition is lexically inside its class.
  std::string qualifier;
  std::vector<std::string> paramNames;  // functions only
  bool isConstructor = false;
  bool isDestructor = false;
};

/// `NAME ( ... )` with an all-caps NAME and balanced parentheses closing on
/// the last token: a macro invocation standing as a whole statement.
[[nodiscard]] bool isCompleteMacroCall(const std::vector<Token>& stmt) {
  if (stmt.size() < 3 || stmt[0].kind != TokenKind::kIdentifier ||
      !isPunct(stmt[1], "(") || !isPunct(stmt.back(), ")")) {
    return false;
  }
  for (const char c : stmt[0].text) {
    if (std::islower(static_cast<unsigned char>(c))) return false;
  }
  int depth = 0;
  for (std::size_t k = 1; k < stmt.size(); ++k) {
    if (isPunct(stmt[k], "(")) ++depth;
    if (isPunct(stmt[k], ")") && --depth == 0 && k + 1 < stmt.size()) {
      return false;  // closed early: `F(a) (b)`, not one invocation
    }
  }
  return depth == 0;
}

/// Tokens that may sit between a function's ')' and its '{':
/// `const noexcept override final -> Type && requires(...)` etc.
[[nodiscard]] bool isTrailingToken(const Token& t) {
  if (t.kind == TokenKind::kIdentifier) {
    // Keywords and type names alike: trailing-return types are plain
    // identifiers, so every identifier is a plausible trailing token.
    return true;
  }
  if (t.kind != TokenKind::kPunct) return false;
  static constexpr std::array<std::string_view, 8> kPunctTrail = {
      "::", "<", ">", "*", "&", "&&", "->", ","};
  return std::find(kPunctTrail.begin(), kPunctTrail.end(), t.text) !=
         kPunctTrail.end();
}

/// Collect parameter names from the '(' at `open` to its matching ')':
/// for each top-level comma-separated slice, the last identifier before
/// any '=' default is the name (or "" when unnamed / "void").
void collectParams(const Tokens& toks, const Matcher& m, std::size_t open,
                   std::vector<std::string>& out) {
  const std::size_t close = m.match[open];
  if (close == kNpos) return;
  std::size_t sliceStart = open + 1;
  int angle = 0;  // `std::map<K, V> m` — angle commas don't split slices
  for (std::size_t i = open + 1; i <= close; ++i) {
    const bool atEnd = (i == close);
    const bool topComma = !atEnd && isPunct(toks[i], ",") && angle == 0;
    if (!topComma && !atEnd) {
      if (isPunct(toks[i], "(") || isPunct(toks[i], "[") ||
          isPunct(toks[i], "{")) {
        const std::size_t jump = m.match[i];
        if (jump != kNpos && jump > i && jump < close) i = jump;
      } else if (isPunct(toks[i], "<")) {
        ++angle;
      } else if (isPunct(toks[i], ">") && angle > 0) {
        --angle;
      }
      continue;
    }
    // Slice [sliceStart, i): last identifier before '='.
    std::size_t stop = i;
    for (std::size_t k = sliceStart; k < i; ++k) {
      if (isPunct(toks[k], "=")) {
        stop = k;
        break;
      }
    }
    std::string name;
    for (std::size_t k = stop; k-- > sliceStart;) {
      if (toks[k].kind == TokenKind::kIdentifier && toks[k].text != "const" &&
          toks[k].text != "void") {
        name = toks[k].text;
        break;
      }
    }
    if (!(name.empty() && sliceStart == open + 1 && i == close)) {
      out.push_back(name);
    }
    sliceStart = i + 1;
  }
}

/// Classify the '{' at index `bracePos`. `enclosingClass` is the innermost
/// class scope's name (constructor/destructor detection).
[[nodiscard]] Classified classifyBrace(const Tokens& toks, const Matcher& m,
                                       std::size_t bracePos,
                                       const std::string& enclosingClass) {
  Classified out;
  if (bracePos == 0) return out;

  // Walk back over trailing decorations to find ')' / class header / etc.
  std::size_t j = bracePos;
  while (j > 0) {
    const Token& t = toks[j - 1];
    if (t.kind == TokenKind::kIdentifier) {
      const std::string& s = t.text;
      if (s == "class" || s == "struct" || s == "union") {
        // `class NAME ... {` — the name is the first identifier after the
        // keyword (walk forward from the keyword, not backward: bases and
        // attributes may follow the name).
        if (j >= 2 && isId(toks[j - 2], "enum")) {
          out.kind = ScopeKind::kEnum;
          return out;
        }
        out.kind = ScopeKind::kClass;
        for (std::size_t k = j; k < bracePos; ++k) {
          if (toks[k].kind == TokenKind::kIdentifier &&
              toks[k].text != "final" && toks[k].text != "alignas") {
            out.name = toks[k].text;
            break;
          }
          if (isPunct(toks[k], ":")) break;  // anonymous with bases — rare
        }
        return out;
      }
      if (s == "namespace") {
        out.kind = ScopeKind::kNamespace;
        if (j < bracePos && toks[j].kind == TokenKind::kIdentifier) {
          out.name = toks[j].text;
        }
        return out;
      }
      if (s == "enum") {
        out.kind = ScopeKind::kEnum;
        return out;
      }
      if (s == "do" || s == "else" || s == "try" || s == "return") {
        return out;  // block
      }
      --j;  // plain identifier (trailing-return type, const, ...) — skip
      continue;
    }
    if (t.kind == TokenKind::kPunct) {
      const std::string& s = t.text;
      if (s == ")") {
        break;  // candidate function/lambda/control header
      }
      if (isTrailingToken(t)) {
        --j;
        continue;
      }
      return out;  // `= {`, `, {`, `; {`, `} {`, `({`, `[{` … — block
    }
    return out;  // literal before '{' — initializer
  }
  if (j == 0 || !isPunct(toks[j - 1], ")")) return out;

  // Resolve ctor-init lists and noexcept(...) chains: hop '(' groups
  // leftward until the one whose preceding token names the function.
  std::size_t closeIdx = j - 1;
  for (int hops = 0; hops < 64; ++hops) {
    const std::size_t open = m.match[closeIdx];
    if (open == kNpos || open == 0) return out;
    const Token& before = toks[open - 1];
    if (before.kind == TokenKind::kIdentifier) {
      const std::string& name = before.text;
      if (isControlKeyword(name)) return out;  // if/for/while/switch/catch
      if (name == "noexcept") {
        // `) noexcept(...)` — keep walking back from before `noexcept`.
        std::size_t k = open - 1;
        while (k > 0 && isTrailingToken(toks[k - 1]) &&
               !isPunct(toks[k - 1], ")")) {
          --k;
        }
        if (k == 0 || !isPunct(toks[k - 1], ")")) return out;
        closeIdx = k - 1;
        continue;
      }
      // Ctor-init-list entry `X(...)` preceded by ':' or ','? Then the
      // real parameter list is further left: `Ctor(args) : X(1), Y(2) {`.
      if (open >= 2 &&
          (isPunct(toks[open - 2], ":") || isPunct(toks[open - 2], ","))) {
        // Scan left for a ')' that closes the parameter list.
        std::size_t k = open - 2;
        while (k > 0 && !isPunct(toks[k - 1], ")") &&
               !isPunct(toks[k - 1], ";") && !isPunct(toks[k - 1], "}") &&
               !isPunct(toks[k - 1], "{")) {
          --k;
        }
        if (k == 0 || !isPunct(toks[k - 1], ")")) return out;
        closeIdx = k - 1;
        continue;
      }
      out.kind = ScopeKind::kFunction;
      out.name = name;
      out.isDestructor = open >= 2 && isPunct(toks[open - 2], "~");
      // Qualified definition? `Qual::name(` or `Qual::~name(`. The
      // qualifier may be a namespace rather than a class — acceptable
      // over-approximation, documented with the index.
      const std::size_t tilde = out.isDestructor ? 1 : 0;
      if (open >= 3 + tilde && isPunct(toks[open - 2 - tilde], "::") &&
          toks[open - 3 - tilde].kind == TokenKind::kIdentifier) {
        out.qualifier = toks[open - 3 - tilde].text;
      }
      out.isConstructor =
          !out.isDestructor &&
          ((!enclosingClass.empty() && name == enclosingClass) ||
           (!out.qualifier.empty() && name == out.qualifier));
      collectParams(toks, m, open, out.paramNames);
      return out;
    }
    if (before.kind == TokenKind::kPunct) {
      if (before.text == "]") {
        // Lambda `[...](...)...{` — indexed separately by the lambda pass.
        return out;
      }
      if (before.text == ">") {
        // `operator>` / `operator>>`/ template-id call operators: accept
        // only the explicit `operator` spelling.
        if (open >= 3 && isId(toks[open - 3], "operator")) {
          out.kind = ScopeKind::kFunction;
          out.name = "operator" + toks[open - 2].text;
          collectParams(toks, m, open, out.paramNames);
          return out;
        }
        return out;
      }
      if (open >= 2 && isId(toks[open - 2], "operator")) {
        out.kind = ScopeKind::kFunction;
        out.name = "operator" + before.text;
        collectParams(toks, m, open, out.paramNames);
        return out;
      }
    }
    return out;
  }
  return out;
}

/// First identifier of an alias target after stripping std/leading '::'.
[[nodiscard]] std::string headIdentifier(const Tokens& toks, std::size_t from,
                                         std::size_t to) {
  for (std::size_t k = from; k < to; ++k) {
    if (toks[k].kind == TokenKind::kIdentifier && toks[k].text != "std" &&
        toks[k].text != "const" && toks[k].text != "typename") {
      return toks[k].text;
    }
  }
  return "";
}

[[nodiscard]] std::string joinTokens(const Tokens& toks, std::size_t from,
                                     std::size_t to) {
  std::string out;
  for (std::size_t k = from; k < to; ++k) {
    if (!out.empty()) out.push_back(' ');
    out += toks[k].text;
  }
  return out;
}

void collectCallees(const Tokens& toks, std::size_t from, std::size_t to,
                    std::vector<std::string>& out) {
  std::set<std::string> seen;
  for (std::size_t i = from; i + 1 < to; ++i) {
    if (toks[i].kind != TokenKind::kIdentifier || !isPunct(toks[i + 1], "(")) {
      continue;
    }
    const std::string& s = toks[i].text;
    if (isControlKeyword(s) || s == "assert" || s == "defined") continue;
    if (seen.insert(s).second) out.push_back(s);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Lambda parsing
// ---------------------------------------------------------------------------

bool parseLambdaAt(const std::vector<Token>& toks, std::size_t open,
                   LambdaDecl& out) {
  if (open >= toks.size() || !isPunct(toks[open], "[")) return false;
  // Subscript if preceded by a value-producing token.
  if (open > 0) {
    const Token& prev = toks[open - 1];
    if (prev.kind == TokenKind::kIdentifier || prev.kind == TokenKind::kNumber ||
        prev.kind == TokenKind::kString || isPunct(prev, ")") ||
        isPunct(prev, "]")) {
      return false;
    }
  }
  const Matcher m(toks);
  const std::size_t close = m.match[open];
  if (close == kNpos) return false;

  // After ']' must come '(' (params), '{' (body), '<' (template lambda),
  // or the `mutable`/`noexcept`/'->' decorations.
  std::size_t after = close + 1;
  if (after >= toks.size()) return false;
  if (!isPunct(toks[after], "(") && !isPunct(toks[after], "{") &&
      !isPunct(toks[after], "<") && !isId(toks[after], "mutable") &&
      !isId(toks[after], "noexcept")) {
    return false;
  }

  out.line = toks[open].line;
  out.captures.clear();
  out.paramNames.clear();

  // Parse captures: top-level comma slices of (open, close).
  std::size_t sliceStart = open + 1;
  for (std::size_t i = open + 1; i <= close; ++i) {
    if (i < close && (isPunct(toks[i], "(") || isPunct(toks[i], "[") ||
                      isPunct(toks[i], "{"))) {
      const std::size_t jump = m.match[i];
      if (jump != kNpos && jump < close) i = jump;
      continue;
    }
    if (i < close && !isPunct(toks[i], ",")) continue;
    if (sliceStart < i) {
      LambdaCapture cap{LambdaCapture::Kind::kByVal, ""};
      const Token& first = toks[sliceStart];
      const std::size_t len = i - sliceStart;
      bool hasInit = false;
      for (std::size_t k = sliceStart; k < i; ++k) {
        if (isPunct(toks[k], "=")) hasInit = true;
      }
      if (isPunct(first, "&")) {
        if (len == 1) {
          cap.kind = LambdaCapture::Kind::kRefDefault;
        } else {
          cap.kind = hasInit ? LambdaCapture::Kind::kInitRef
                             : LambdaCapture::Kind::kByRef;
          if (toks[sliceStart + 1].kind == TokenKind::kIdentifier) {
            cap.name = toks[sliceStart + 1].text;
          }
        }
      } else if (isPunct(first, "=")) {
        cap.kind = LambdaCapture::Kind::kValDefault;
      } else if (isId(first, "this")) {
        cap.kind = LambdaCapture::Kind::kThis;
        cap.name = "this";
      } else if (isPunct(first, "*") && len >= 2 &&
                 isId(toks[sliceStart + 1], "this")) {
        cap.kind = LambdaCapture::Kind::kStarThis;
        cap.name = "this";
      } else if (first.kind == TokenKind::kIdentifier) {
        cap.kind = hasInit ? LambdaCapture::Kind::kInitVal
                           : LambdaCapture::Kind::kByVal;
        cap.name = first.text;
      }
      out.captures.push_back(std::move(cap));
    }
    sliceStart = i + 1;
  }

  // Parameters + body.
  std::size_t cursor = close + 1;
  if (cursor < toks.size() && isPunct(toks[cursor], "<")) {
    // Template lambda: skip to past '>' (single-char angles).
    int depth = 0;
    while (cursor < toks.size()) {
      if (isPunct(toks[cursor], "<")) ++depth;
      else if (isPunct(toks[cursor], ">") && --depth == 0) {
        ++cursor;
        break;
      }
      ++cursor;
    }
  }
  if (cursor < toks.size() && isPunct(toks[cursor], "(")) {
    collectParams(toks, m, cursor, out.paramNames);
    const std::size_t pclose = m.match[cursor];
    if (pclose == kNpos) return false;
    cursor = pclose + 1;
  }
  while (cursor < toks.size() && !isPunct(toks[cursor], "{")) {
    if (isPunct(toks[cursor], ";") || isPunct(toks[cursor], ")")) return false;
    ++cursor;
  }
  if (cursor >= toks.size()) return false;
  out.bodyBegin = cursor;
  out.bodyEnd = m.match[cursor] == kNpos ? toks.size() - 1 : m.match[cursor];
  return true;
}

// ---------------------------------------------------------------------------
// dimensionOf
// ---------------------------------------------------------------------------

std::string dimensionOf(const std::string& identifier) {
  const auto endsWith = [&](std::string_view suffix) {
    return identifier.size() >= suffix.size() &&
           identifier.compare(identifier.size() - suffix.size(),
                              suffix.size(), suffix) == 0;
  };
  // Rates first: `fooMicrosPerSec` is micros-per-second, not micros.
  if (endsWith("PerSec")) {
    const std::string base =
        identifier.substr(0, identifier.size() - 6);  // strip "PerSec"
    static constexpr std::array<std::string_view, 4> kBases = {
        "Micros", "Millis", "Bytes", "Ops"};
    for (const std::string_view b : kBases) {
      if (base.size() >= b.size() &&
          base.compare(base.size() - b.size(), b.size(), b) == 0) {
        return std::string(b) + "/s";
      }
    }
    return "PerSec";
  }
  static constexpr std::array<std::string_view, 5> kSuffixes = {
      "Micros", "Millis", "Seconds", "Bytes", "Dollars"};
  for (const std::string_view s : kSuffixes) {
    if (endsWith(s)) return std::string(s);
  }
  // Bare lowercase parameter names carry the dimension too ("micros",
  // "bytes", ...) — sim::Node::charge(component, micros) is the canonical
  // case the argument-passing check needs.
  static constexpr std::array<std::string_view, 5> kBare = {
      "micros", "millis", "seconds", "bytes", "dollars"};
  for (const std::string_view s : kBare) {
    if (identifier == s) {
      std::string dim(s);
      dim[0] = static_cast<char>(
          std::toupper(static_cast<unsigned char>(dim[0])));
      return dim;
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Index build
// ---------------------------------------------------------------------------

Index buildIndex(const LintInput& input) {
  Index out;

  for (std::size_t fi = 0; fi < input.files.size(); ++fi) {
    const Tokens& toks = input.files[fi].tokens;
    const Matcher m(toks);

    struct Scope {
      ScopeKind kind;
      std::string name;
      std::size_t closeIdx;           // token index of the matching '}'
      std::size_t functionIdx = kNpos;  // into out.functions, if kFunction
      std::vector<Token> stmt;          // class scopes: statement buffer
    };
    std::vector<Scope> scopes;

    const auto innermostClass = [&]() -> std::string {
      for (std::size_t s = scopes.size(); s-- > 0;) {
        if (scopes[s].kind == ScopeKind::kClass) return scopes[s].name;
      }
      return "";
    };
    const auto inFunction = [&]() {
      for (std::size_t s = scopes.size(); s-- > 0;) {
        if (scopes[s].kind == ScopeKind::kFunction) return true;
      }
      return false;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      // Pop scopes whose close brace we just reached. When the popped
      // scope had a header (a method, nested class or enum declared inside
      // a class), the header tokens are sitting in the class's statement
      // buffer — drop them so the next field starts clean. Plain blocks
      // (brace-init `hits{0}`) keep the buffer: the declaration continues.
      while (!scopes.empty() && scopes.back().closeIdx == i) {
        const ScopeKind popped = scopes.back().kind;
        scopes.pop_back();
        if (popped != ScopeKind::kBlock && !scopes.empty() &&
            scopes.back().kind == ScopeKind::kClass) {
          scopes.back().stmt.clear();
        }
      }

      const Token& t = toks[i];

      // Alias declarations (any scope): `using A = ...;` / `typedef ... A;`
      if (isId(t, "using") && i + 2 < toks.size() &&
          toks[i + 1].kind == TokenKind::kIdentifier &&
          isPunct(toks[i + 2], "=")) {
        std::size_t end = i + 3;
        while (end < toks.size() && !isPunct(toks[end], ";")) ++end;
        AliasDecl alias;
        alias.name = toks[i + 1].text;
        alias.targetTokens = joinTokens(toks, i + 3, end);
        alias.targetHead = headIdentifier(toks, i + 3, end);
        alias.fileIndex = fi;
        alias.line = t.line;
        out.aliasesByName.emplace(alias.name,
                                  out.aliases.size());
        out.aliases.push_back(std::move(alias));
      } else if (isId(t, "typedef")) {
        std::size_t end = i + 1;
        while (end < toks.size() && !isPunct(toks[end], ";")) ++end;
        // Name is the last identifier before ';'.
        for (std::size_t k = end; k-- > i + 1;) {
          if (toks[k].kind == TokenKind::kIdentifier) {
            AliasDecl alias;
            alias.name = toks[k].text;
            alias.targetTokens = joinTokens(toks, i + 1, k);
            alias.targetHead = headIdentifier(toks, i + 1, k);
            alias.fileIndex = fi;
            alias.line = t.line;
            out.aliasesByName.emplace(alias.name, out.aliases.size());
            out.aliases.push_back(std::move(alias));
            break;
          }
        }
      }

      // Lambdas: indexed wherever they appear (body ranges power the
      // race-capture rule). Parsed against the shared matcher lazily.
      if (isPunct(t, "[")) {
        LambdaDecl lambda;
        if (parseLambdaAt(toks, i, lambda)) {
          lambda.fileIndex = fi;
          lambda.enclosingFunction = kNpos;
          for (std::size_t s = scopes.size(); s-- > 0;) {
            if (scopes[s].kind == ScopeKind::kFunction) {
              lambda.enclosingFunction = scopes[s].functionIdx;
              break;
            }
          }
          out.lambdas.push_back(std::move(lambda));
        }
      }

      // Class-scope field extraction: buffer statement tokens at class
      // depth; ';' terminates a candidate field.
      if (!scopes.empty() && scopes.back().kind == ScopeKind::kClass) {
        Scope& cls = scopes.back();
        if (isPunct(t, ";")) {
          const std::vector<Token>& stmt = cls.stmt;
          bool isFunc = false, skip = false;
          std::size_t eq = stmt.size();
          for (std::size_t k = 0; k < stmt.size(); ++k) {
            if (isPunct(stmt[k], "=") && eq == stmt.size()) eq = k;
            if (isPunct(stmt[k], "(") && k < eq) isFunc = true;
            if (isId(stmt[k], "using") || isId(stmt[k], "static") ||
                isId(stmt[k], "typedef") || isId(stmt[k], "friend") ||
                isId(stmt[k], "enum")) {
              skip = true;
            }
          }
          if (!stmt.empty() && !isFunc && !skip) {
            const std::size_t nameEnd = eq;
            for (std::size_t k = nameEnd; k-- > 0;) {
              if (stmt[k].kind == TokenKind::kIdentifier) {
                FieldDecl field;
                field.className = cls.name;
                field.name = stmt[k].text;
                field.typeTokens = [&] {
                  std::string s;
                  for (std::size_t q = 0; q < k; ++q) {
                    if (!s.empty()) s.push_back(' ');
                    s += stmt[q].text;
                  }
                  return s;
                }();
                field.fileIndex = fi;
                field.line = stmt[k].line;
                out.fieldsByName[field.name].push_back(out.fields.size());
                out.fields.push_back(std::move(field));
                break;
              }
            }
          }
          cls.stmt.clear();
        } else if (isPunct(t, ":") && cls.stmt.size() == 1 &&
                   (isId(cls.stmt[0], "public") ||
                    isId(cls.stmt[0], "private") ||
                    isId(cls.stmt[0], "protected"))) {
          cls.stmt.clear();  // access specifier
        } else if (!isPunct(t, "{") && !isPunct(t, "}")) {
          // A bare macro invocation — `LIST(FIELD)`, no ';' — is a
          // statement of its own (an X-macro field list), so the member
          // after it starts clean.
          if (isCompleteMacroCall(cls.stmt)) cls.stmt.clear();
          cls.stmt.push_back(t);
        }
      }

      if (!isPunct(t, "{")) continue;

      const std::size_t closeIdx =
          m.match[i] == kNpos ? toks.size() : m.match[i];
      Classified c = classifyBrace(toks, m, i, innermostClass());

      Scope scope;
      scope.kind = c.kind;
      scope.name = c.name;
      scope.closeIdx = closeIdx;

      if (c.kind == ScopeKind::kFunction && !inFunction()) {
        FunctionDecl fn;
        fn.name = c.name;
        fn.className =
            c.qualifier.empty() ? innermostClass() : c.qualifier;
        fn.fileIndex = fi;
        fn.line = toks[i].line;
        fn.paramNames = std::move(c.paramNames);
        fn.bodyBegin = i;
        fn.bodyEnd = closeIdx;
        fn.isConstructor = c.isConstructor;
        fn.isDestructor = c.isDestructor;
        collectCallees(toks, i + 1, closeIdx, fn.callees);
        scope.functionIdx = out.functions.size();
        out.functionsByName[fn.name].push_back(out.functions.size());
        out.functions.push_back(std::move(fn));
      } else if (c.kind == ScopeKind::kFunction) {
        scope.kind = ScopeKind::kBlock;  // local helper inside a function
      }

      // If the brace-scope closes immediately degenerate ('{}'), pop now.
      if (closeIdx <= i) continue;
      scopes.push_back(std::move(scope));
    }
  }

  return out;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::string Index::resolveAliasChain(const std::string& name) const {
  std::set<std::string> visited;
  std::string cur = name;
  std::string lastTarget;
  while (visited.insert(cur).second) {
    const auto it = aliasesByName.find(cur);
    if (it == aliasesByName.end()) break;
    lastTarget = aliases[it->second].targetTokens;
    cur = aliases[it->second].targetHead;
    if (cur.empty()) break;
  }
  return lastTarget;
}

bool Index::reaches(const std::string& from,
                    const std::set<std::string>& sinks) const {
  std::set<std::string> visited;
  std::vector<std::string> stack{from};
  while (!stack.empty()) {
    const std::string cur = stack.back();
    stack.pop_back();
    if (!visited.insert(cur).second) continue;
    const auto it = functionsByName.find(cur);
    if (it == functionsByName.end()) continue;
    for (const std::size_t idx : it->second) {
      for (const std::string& callee : functions[idx].callees) {
        if (sinks.count(callee)) return true;
        if (!visited.count(callee)) stack.push_back(callee);
      }
    }
  }
  return false;
}

std::size_t Index::enclosingFunctionAt(std::size_t fileIndex,
                                       std::size_t tokenIdx) const {
  std::size_t best = kNpos;
  std::size_t bestSpan = kNpos;
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const FunctionDecl& fn = functions[i];
    if (fn.fileIndex != fileIndex) continue;
    if (tokenIdx < fn.bodyBegin || tokenIdx > fn.bodyEnd) continue;
    const std::size_t span = fn.bodyEnd - fn.bodyBegin;
    if (span < bestSpan) {
      best = i;
      bestSpan = span;
    }
  }
  return best;
}

}  // namespace dcache::lint
