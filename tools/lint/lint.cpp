#include "lint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "include_graph.h"
#include "lexer.h"

namespace curtain::lint {
namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `text[pos..pos+token)` matches `token` with identifier
/// boundaries on both sides (so "srand" does not match inside "strand").
bool token_at(const std::string& text, size_t pos, const std::string& token) {
  if (text.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && is_ident_char(text[pos - 1])) return false;
  const size_t end = pos + token.size();
  if (end < text.size() && is_ident_char(text[end])) return false;
  return true;
}

size_t find_token(const std::string& text, const std::string& token,
                  size_t from = 0) {
  for (size_t pos = text.find(token, from); pos != std::string::npos;
       pos = text.find(token, pos + 1)) {
    if (token_at(text, pos, token)) return pos;
  }
  return std::string::npos;
}

size_t skip_spaces(const std::string& text, size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

bool path_ends_with(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool path_contains(const std::string& path, const std::string& piece) {
  return path.find(piece) != std::string::npos;
}

/// Files whose iteration order can reach exported artifacts or analysis
/// results. dns/cdn/cellular/net runtime state is excluded by design: it is
/// per-shard and replays an identical operation sequence for every
/// CURTAIN_SHARDS value, so its iteration order never crosses into exports.
bool reaches_export_paths(const std::string& path) {
  return path_contains(path, "src/analysis/") ||
         path_contains(path, "src/measure/") ||
         path_contains(path, "src/exec/") ||
         path_contains(path, "src/core/") ||
         path_contains(path, "src/obs/") || path_contains(path, "bench/") ||
         path_contains(path, "examples/");
}

struct JoinedCode {
  std::string text;                 // code views joined by '\n'
  std::vector<size_t> line_starts;  // offset of each line in `text`

  int line_of(size_t offset) const {
    const auto it = std::upper_bound(line_starts.begin(), line_starts.end(),
                                     offset);
    return static_cast<int>(it - line_starts.begin());
  }
};

JoinedCode join(const std::vector<std::string>& code_lines) {
  JoinedCode joined;
  for (const std::string& line : code_lines) {
    joined.line_starts.push_back(joined.text.size());
    joined.text += line;
    joined.text += '\n';
  }
  return joined;
}

/// Offset just past the matching close of the bracket at `open` (which must
/// index a '(', '<', '{' or '['); npos when unbalanced.
size_t match_bracket(const std::string& text, size_t open) {
  const char open_char = text[open];
  const char close_char = open_char == '(' ? ')'
                          : open_char == '<' ? '>'
                          : open_char == '{' ? '}'
                                             : ']';
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_char) ++depth;
    if (text[i] == close_char && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

class Linter {
 public:
  /// `sibling_header`: the lexed same-stem header of a .cpp, consulted only
  /// for unordered-container member declarations, so `for (x : member_)` in
  /// world.cpp is caught even though `member_` is declared in world.h.
  Linter(std::string path, LexedFile lexed, LexedFile sibling_header)
      : path_(std::move(path)),
        header_(path_ends_with(path_, ".h") || path_ends_with(path_, ".hpp")),
        lexed_(std::move(lexed)),
        joined_(join(lexed_.code_lines)),
        sibling_joined_(join(sibling_header.code_lines)) {}

  std::vector<Finding> run() {
    check_entropy();
    check_wallclock();
    check_unordered_iteration();
    check_rng_seed();
    check_record_growth();
    check_layering();
    check_shared_static();
    check_hot_alloc();
    check_header_hygiene();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    return std::move(findings_);
  }

 private:
  void report(int line, const std::string& rule, std::string message) {
    if (static_cast<size_t>(line) <= lexed_.waivers.size()) {
      const auto& waivers = lexed_.waivers[static_cast<size_t>(line - 1)];
      if (waivers.count(rule) != 0) return;
      if (rule == "unordered-iter" &&
          waivers.count("order-insensitive") != 0) {
        return;
      }
      // `bounded` is the self-documenting spelling for record vectors whose
      // size has a structural cap (a block sealed at the row budget, a
      // fixed ring) rather than growing with campaign length.
      if (rule == "record-growth" && waivers.count("bounded") != 0) return;
      // `profiler-wallclock` is the self-documenting spelling for clock
      // reads inside the flight recorder / perf-timing substrate: real
      // time that is exported as profiling metadata but never feeds a
      // simulated result.
      if (rule == "wallclock" && waivers.count("profiler-wallclock") != 0) {
        return;
      }
    }
    findings_.push_back(Finding{path_, line, rule, std::move(message)});
  }

  void check_token_rule(const std::string& rule, const std::string& token,
                        const std::string& message) {
    for (size_t pos = find_token(joined_.text, token); pos != std::string::npos;
         pos = find_token(joined_.text, token, pos + 1)) {
      report(joined_.line_of(pos), rule, message);
    }
  }

  // entropy: every random draw must flow through net::Rng so that a study
  // seed reproduces the exact dataset.
  void check_entropy() {
    if (path_ends_with(path_, "net/rng.cpp")) return;
    for (const char* token : {"rand", "srand", "random_device"}) {
      check_token_rule("entropy", token,
                       std::string(token) +
                           " bypasses the deterministic net::Rng streams; "
                           "derive an Rng from the scenario seed instead");
    }
  }

  // wallclock: simulation time is net::SimTime; real time may only be
  // touched by the time substrate itself (and explicitly waived perf
  // timing, which never feeds results).
  void check_wallclock() {
    if (path_ends_with(path_, "net/time.cpp")) return;
    for (const char* token :
         {"system_clock", "steady_clock", "high_resolution_clock",
          "gettimeofday", "clock_gettime", "timespec_get"}) {
      check_token_rule("wallclock", token,
                       std::string(token) +
                           " leaks wall-clock time into the virtual-time "
                           "substrate; use net::SimTime");
    }
    // time(nullptr) / time(NULL): the `time` token alone is far too common,
    // so require the null-argument call shape.
    for (size_t pos = find_token(joined_.text, "time"); pos != std::string::npos;
         pos = find_token(joined_.text, "time", pos + 1)) {
      size_t cursor = skip_spaces(joined_.text, pos + 4);
      if (cursor >= joined_.text.size() || joined_.text[cursor] != '(') continue;
      cursor = skip_spaces(joined_.text, cursor + 1);
      if (token_at(joined_.text, cursor, "nullptr") ||
          token_at(joined_.text, cursor, "NULL")) {
        report(joined_.line_of(pos), "wallclock",
               "time(nullptr) leaks wall-clock time into the virtual-time "
               "substrate; use net::SimTime");
      }
    }
  }

  /// Collects variable (or member/parameter) names declared with
  /// `<container><template-args>` anywhere in `text`.
  static void collect_container_names(const std::string& text,
                                      const char* container,
                                      std::set<std::string>& names) {
    for (size_t pos = find_token(text, container); pos != std::string::npos;
         pos = find_token(text, container, pos + 1)) {
      size_t cursor = skip_spaces(text, pos + std::strlen(container));
      if (cursor >= text.size() || text[cursor] != '<') continue;
      cursor = match_bracket(text, cursor);
      if (cursor == std::string::npos) continue;
      cursor = skip_spaces(text, cursor);
      while (cursor < text.size() &&
             (text[cursor] == '&' || text[cursor] == '*')) {
        cursor = skip_spaces(text, cursor + 1);
      }
      const size_t name_start = cursor;
      while (cursor < text.size() && is_ident_char(text[cursor])) ++cursor;
      if (cursor == name_start) continue;
      const std::string name = text.substr(name_start, cursor - name_start);
      // `> name(` is a function returning the container, not a variable.
      if (skip_spaces(text, cursor) < text.size() &&
          text[skip_spaces(text, cursor)] == '(') {
        continue;
      }
      names.insert(name);
    }
  }

  std::set<std::string> unordered_names() const {
    std::set<std::string> names;
    for (const char* container : {"unordered_map", "unordered_set"}) {
      collect_container_names(joined_.text, container, names);
      collect_container_names(sibling_joined_.text, container, names);
    }
    // A name also declared with a deterministically ordered container is
    // not (only) a hash container — typically a local shadowing a member,
    // or a same-named sequence (e.g. util::SmallVec, whose iteration order
    // is insertion order by construction). Give those the benefit of the
    // doubt rather than flagging every loop over them.
    std::set<std::string> order_safe;
    for (const char* container : {"map", "set", "multimap", "multiset",
                                  "vector", "deque", "array", "SmallVec"}) {
      collect_container_names(joined_.text, container, order_safe);
      collect_container_names(sibling_joined_.text, container, order_safe);
    }
    for (const std::string& name : order_safe) names.erase(name);
    return names;
  }

  // unordered-iter: iterating a hash container feeds bucket order into
  // whatever consumes the loop; in export/analysis-reaching files that is a
  // reproducibility hazard unless explicitly declared order-insensitive.
  void check_unordered_iteration() {
    if (!reaches_export_paths(path_)) return;
    const std::set<std::string> names = unordered_names();
    if (names.empty()) return;

    // Range-for: `for (... : <expr>)` where <expr>'s last identifier
    // component names an unordered container declared in this file.
    for (size_t pos = find_token(joined_.text, "for"); pos != std::string::npos;
         pos = find_token(joined_.text, "for", pos + 1)) {
      const size_t open = skip_spaces(joined_.text, pos + 3);
      if (open >= joined_.text.size() || joined_.text[open] != '(') continue;
      const size_t close = match_bracket(joined_.text, open);
      if (close == std::string::npos) continue;
      const std::string header =
          joined_.text.substr(open + 1, close - open - 2);
      // The range-for ':' sits at bracket depth 0 within the header and is
      // never part of a '::'.
      size_t colon = std::string::npos;
      int depth = 0;
      for (size_t i = 0; i < header.size(); ++i) {
        const char c = header[i];
        if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
        if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
        if (c == ':' && depth == 0) {
          if ((i + 1 < header.size() && header[i + 1] == ':') ||
              (i > 0 && header[i - 1] == ':')) {
            continue;
          }
          colon = i;
          break;
        }
      }
      if (colon == std::string::npos) continue;
      std::string range = header.substr(colon + 1);
      // Reduce `a.b`, `a->b_`, `*p` to the final identifier component.
      while (!range.empty() &&
             std::isspace(static_cast<unsigned char>(range.back())) != 0) {
        range.pop_back();
      }
      size_t last = range.size();
      while (last > 0 && is_ident_char(range[last - 1])) --last;
      const std::string final_ident = range.substr(last);
      if (names.count(final_ident) != 0) {
        report(joined_.line_of(pos), "unordered-iter",
               "range-for over unordered container '" + final_ident +
                   "' feeds hash-bucket order into an export/analysis path; "
                   "use std::map / a sorted vector, or waive with "
                   "`// lint: order-insensitive`");
      }
    }

    // Iterator loops: any `<name>.begin()` / `<name>.cbegin()` on a tracked
    // container.
    for (const std::string& name : names) {
      for (const char* method : {".begin", ".cbegin"}) {
        const std::string pattern = name + method;
        for (size_t pos = joined_.text.find(pattern); pos != std::string::npos;
             pos = joined_.text.find(pattern, pos + 1)) {
          if (pos > 0 && is_ident_char(joined_.text[pos - 1])) continue;
          report(joined_.line_of(pos), "unordered-iter",
                 "iterator walk over unordered container '" + name +
                     "' feeds hash-bucket order into an export/analysis "
                     "path; use std::map / a sorted vector, or waive with "
                     "`// lint: order-insensitive`");
        }
      }
    }
  }

  void require_seeded_construction(size_t token_pos, size_t args_open) {
    const size_t args_close = match_bracket(joined_.text, args_open);
    const std::string args =
        args_close == std::string::npos
            ? joined_.text.substr(args_open)
            : joined_.text.substr(args_open, args_close - args_open);
    for (const char* source : {"mix_key", "hash_tag", "derive", "seed",
                               "Seed"}) {
      if (args.find(source) != std::string::npos) return;
    }
    report(joined_.line_of(token_pos), "rng-seed",
           "Rng constructed from a value not traceable to "
           "mix_key/hash_tag/derive/a seed; every stream must derive from "
           "Scenario::seed");
  }

  // rng-seed: Rng streams must be derived, never seeded ad hoc, so adding a
  // consumer can never perturb another stream.
  void check_rng_seed() {
    if (path_ends_with(path_, "net/rng.cpp") ||
        path_ends_with(path_, "net/rng.h")) {
      return;
    }
    for (size_t pos = find_token(joined_.text, "Rng"); pos != std::string::npos;
         pos = find_token(joined_.text, "Rng", pos + 1)) {
      size_t cursor = skip_spaces(joined_.text, pos + 3);
      if (cursor >= joined_.text.size()) break;
      if (joined_.text[cursor] == '(') {
        // Temporary: Rng(<args>).
        require_seeded_construction(pos, cursor);
        continue;
      }
      if (joined_.text[cursor] == '>') {
        // make_shared<net::Rng>(<args>) / make_unique<net::Rng>(<args>).
        const size_t call = skip_spaces(joined_.text, cursor + 1);
        if (call < joined_.text.size() && joined_.text[call] == '(') {
          require_seeded_construction(pos, call);
        }
        continue;
      }
      if (!is_ident_char(joined_.text[cursor])) continue;
      // Named construction: Rng <name>(<args>).
      while (cursor < joined_.text.size() && is_ident_char(joined_.text[cursor])) {
        ++cursor;
      }
      cursor = skip_spaces(joined_.text, cursor);
      if (cursor < joined_.text.size() && joined_.text[cursor] == '(') {
        require_seeded_construction(pos, cursor);
      }
    }
  }

  // record-growth: a std::vector of measurement-record rows is the
  // grow-forever accumulation pattern the streaming record-block pipeline
  // replaced (DESIGN.md §15) — at a million devices it is exactly what
  // breaks the RSS ceiling. Rows belong in a RecordBlock sealed at the
  // row budget and flushed to a RecordSink; structurally capped vectors
  // (the block's own rows, fixed rings) waive with the `bounded` alias,
  // and an explicitly retained store waives with the rule name itself.
  void check_record_growth() {
    static const char* const kRecordTypes[] = {
        "ExperimentContext",     "DnsMeasurement",  "ProbeMeasurement",
        "TracerouteMeasurement", "ResolverObservation", "VantageProbe",
        "ResolutionTrace",       "RecordBlock"};
    for (size_t pos = find_token(joined_.text, "vector");
         pos != std::string::npos;
         pos = find_token(joined_.text, "vector", pos + 1)) {
      size_t cursor = skip_spaces(joined_.text, pos + 6);
      if (cursor >= joined_.text.size() || joined_.text[cursor] != '<') {
        continue;
      }
      const size_t close = match_bracket(joined_.text, cursor);
      if (close == std::string::npos) continue;
      const std::string inner =
          joined_.text.substr(cursor + 1, close - cursor - 2);
      const char* matched = nullptr;
      for (const char* type : kRecordTypes) {
        if (find_token(inner, type) != std::string::npos) {
          matched = type;
          break;
        }
      }
      if (matched == nullptr) continue;
      // Only owning declarations accumulate: references/pointers view
      // someone else's storage, and `> name(` / `> Qualified::name(` is a
      // function signature, not a vector.
      cursor = skip_spaces(joined_.text, close);
      if (cursor >= joined_.text.size() || joined_.text[cursor] == '&' ||
          joined_.text[cursor] == '*') {
        continue;
      }
      size_t name_end = cursor;
      while (name_end < joined_.text.size() &&
             (is_ident_char(joined_.text[name_end]) ||
              joined_.text.compare(name_end, 2, "::") == 0)) {
        name_end += joined_.text[name_end] == ':' ? size_t{2} : size_t{1};
      }
      if (name_end == cursor) continue;
      if (skip_spaces(joined_.text, name_end) < joined_.text.size() &&
          joined_.text[skip_spaces(joined_.text, name_end)] == '(') {
        continue;
      }
      report(joined_.line_of(pos), "record-growth",
             "std::vector<" + std::string(matched) +
                 "> accumulates measurement records without a bound; "
                 "stream rows through a RecordBlock/RecordSink, or waive a "
                 "structurally capped container with the `bounded` alias");
    }
  }

  // layering: project includes must follow the declared layer DAG
  // (include_graph.h). Only files inside a src/ module are constrained;
  // bench/, examples/ and tools/ sit above the DAG.
  void check_layering() {
    const std::string module = module_of_path(path_);
    if (module.empty()) return;
    for (const IncludeRef& inc : lexed_.includes) {
      if (inc.angled) continue;
      const size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;
      const std::string target = inc.target.substr(0, slash);
      if (module_layer(target) < 0) continue;
      if (layering_allows(module, target)) continue;
      report(inc.line, "layering",
             "#include \"" + inc.target + "\" violates the layer DAG: " +
                 module + " -> " + target + " is an upward edge (" + module +
                 " may include: " + allowed_modules(module) +
                 "); move the shared type down a layer or invert the "
                 "dependency");
    }
  }

  // shared-static: a mutable static at namespace or function scope is
  // state shared by every worker thread — under the campaign's worker
  // pool that is a data race or a cross-shard determinism leak waiting to
  // happen. const/constexpr/constinit tables and thread_local state are
  // fine; class-static members are declared at class scope and tracked
  // through their namespace-scope definitions instead.
  void check_shared_static() {
    const auto& toks = lexed_.tokens;
    enum class Scope { kNamespace, kClass, kBlock };
    std::vector<Scope> scopes;
    enum class Pending { kNone, kNamespace, kClass } pending = Pending::kNone;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "{") {
          scopes.push_back(pending == Pending::kNamespace ? Scope::kNamespace
                           : pending == Pending::kClass   ? Scope::kClass
                                                          : Scope::kBlock);
          pending = Pending::kNone;
        } else if (t.text == "}") {
          if (!scopes.empty()) scopes.pop_back();
        } else if (t.text == ";" || t.text == "(" || t.text == "=") {
          pending = Pending::kNone;
        }
        continue;
      }
      if (t.kind != TokenKind::kIdent) continue;
      if (t.text == "namespace") {
        pending = Pending::kNamespace;
        continue;
      }
      if (t.text == "class" || t.text == "struct" || t.text == "union" ||
          t.text == "enum") {
        pending = Pending::kClass;
        continue;
      }
      if (t.text == "template") {
        // Skip `<...>` so `template <class T>` cannot leak a class scope
        // onto the function body that follows.
        if (i + 1 < toks.size() && toks[i + 1].text == "<") {
          int angle = 0;
          size_t j = i + 1;
          for (; j < toks.size(); ++j) {
            if (toks[j].kind != TokenKind::kPunct) continue;
            if (toks[j].text == "<") ++angle;
            if (toks[j].text == ">" && --angle == 0) break;
          }
          i = j;
        }
        continue;
      }
      if (t.text != "static") continue;
      const Scope scope = scopes.empty() ? Scope::kNamespace : scopes.back();
      if (scope == Scope::kClass) continue;
      i = scan_static_declaration(i, scope == Scope::kNamespace);
    }
  }

  /// Examines the declaration starting at the `static` token at `at`;
  /// reports unless it is const/constexpr/constinit/thread_local or a
  /// function. Returns the index to resume the scope walk from (before
  /// any function body, so braces stay balanced).
  size_t scan_static_declaration(size_t at, bool namespace_scope) {
    const auto& toks = lexed_.tokens;
    bool safe = false;
    bool has_eq = false;
    bool paren_seen = false;
    std::string name;
    int depth = 0;        // () [] {} nesting
    int angle_depth = 0;  // <> nesting, tracked only before `=`
    size_t j = at + 1;
    for (; j < toks.size(); ++j) {
      const Token& d = toks[j];
      if (d.kind == TokenKind::kIdent) {
        if (d.text == "const" || d.text == "constexpr" ||
            d.text == "constinit" || d.text == "thread_local") {
          safe = true;
        }
        if (depth == 0 && angle_depth == 0 && !has_eq) name = d.text;
        continue;
      }
      if (d.kind != TokenKind::kPunct) continue;
      const std::string& p = d.text;
      if (p == "(" || p == "[" || p == "{") {
        if (p == "{" && depth == 0 && angle_depth == 0 && paren_seen &&
            !has_eq) {
          // `static T name(args) { ... }` — a function definition.
          return j - 1;  // resume at `{` so the scope walk sees the body
        }
        if (p == "(" && depth == 0 && angle_depth == 0 && !has_eq) {
          paren_seen = true;
        }
        ++depth;
        continue;
      }
      if (p == ")" || p == "]" || p == "}") {
        if (depth > 0) --depth;
        continue;
      }
      if (p == "<" && !has_eq) ++angle_depth;
      if (p == ">" && !has_eq && angle_depth > 0) --angle_depth;
      if (p == "=" && depth == 0 && angle_depth == 0) has_eq = true;
      if (p == ";" && depth == 0 && (has_eq || angle_depth == 0)) {
        if (paren_seen && !has_eq && namespace_scope) {
          // `static T name(args);` at namespace scope — a function
          // declaration, not a variable.
          return j;
        }
        break;
      }
    }
    if (!safe) {
      report(toks[at].line, "shared-static",
             "mutable static '" + (name.empty() ? std::string("?") : name) +
                 "' is shared across the worker pool; make it "
                 "const/constexpr/thread_local, move it into per-shard "
                 "state, or waive with `// lint: shared-static (why)`");
    }
    return j;
  }

  // hot-alloc: files carrying a `lint-hot-path` marker declare their inner
  // loops allocation-free (the hot-path contract: DNS cache, DNS name,
  // shard wake-up loop). Heap allocation idioms there are regressions
  // unless explicitly waived.
  void check_hot_alloc() {
    if (!lexed_.hot_path) return;
    const auto& toks = lexed_.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != TokenKind::kIdent) continue;
      if (t.text == "new") {
        // Placement new (`::new (addr) T`) reuses storage — allowed.
        if (i + 1 < toks.size() && toks[i + 1].kind == TokenKind::kPunct &&
            toks[i + 1].text == "(") {
          continue;
        }
        report(t.line, "hot-alloc",
               "heap allocation (new) on a lint-hot-path file; use inline "
               "storage, a slab, or waive with `// lint: hot-alloc (why)`");
        continue;
      }
      if (t.text == "make_unique" || t.text == "make_shared") {
        report(t.line, "hot-alloc",
               t.text + " allocates on a lint-hot-path file; preallocate "
               "outside the hot loop or waive with `// lint: hot-alloc "
               "(why)`");
        continue;
      }
      if (t.text == "function" && i >= 2 &&
          toks[i - 1].kind == TokenKind::kPunct && toks[i - 1].text == "::" &&
          toks[i - 2].kind == TokenKind::kIdent && toks[i - 2].text == "std") {
        report(t.line, "hot-alloc",
               "std::function construction may heap-allocate its capture on "
               "a lint-hot-path file; use a template parameter or a "
               "function reference");
        continue;
      }
      if (t.text == "string") {
        // By-value std::string (parameter or copy-init) — a copy plus a
        // likely allocation per call. `std::string s;`, `std::string&`,
        // `std::string*` and member declarations are fine.
        const Token* next = i + 1 < toks.size() ? &toks[i + 1] : nullptr;
        if (next == nullptr) continue;
        bool by_value = false;
        if (next->kind == TokenKind::kPunct &&
            (next->text == "," || next->text == ")")) {
          by_value = true;  // unnamed by-value parameter
        } else if (next->kind == TokenKind::kIdent && i + 2 < toks.size() &&
                   toks[i + 2].kind == TokenKind::kPunct &&
                   (toks[i + 2].text == "," || toks[i + 2].text == ")" ||
                    toks[i + 2].text == "=")) {
          by_value = true;  // `std::string name {,|)|=}`
        }
        if (by_value) {
          report(t.line, "hot-alloc",
                 "by-value std::string on a lint-hot-path file copies (and "
                 "likely allocates) per call; pass std::string_view or a "
                 "const reference");
        }
      }
    }
  }

  // pragma-once / using-namespace: header hygiene.
  void check_header_hygiene() {
    if (!header_) return;
    bool has_pragma = false;
    for (const std::string& line : lexed_.code_lines) {
      if (line.find("#pragma once") != std::string::npos) {
        has_pragma = true;
        break;
      }
    }
    if (!has_pragma) {
      report(1, "pragma-once", "header is missing #pragma once");
    }
    for (size_t pos = find_token(joined_.text, "using");
         pos != std::string::npos;
         pos = find_token(joined_.text, "using", pos + 1)) {
      const size_t next = skip_spaces(joined_.text, pos + 5);
      if (token_at(joined_.text, next, "namespace")) {
        report(joined_.line_of(pos), "using-namespace",
               "using-namespace in a header leaks names into every includer");
      }
    }
  }

  std::string path_;
  bool header_;
  LexedFile lexed_;
  JoinedCode joined_;
  JoinedCode sibling_joined_;
  std::vector<Finding> findings_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

bool lintable_extension(const std::string& ext) {
  return ext == ".h" || ext == ".cpp" || ext == ".hpp" || ext == ".cc";
}

/// Same-stem header candidates for a source file, in pairing priority:
/// sibling x.h / x.hpp, then x.{h,hpp} in an include/ directory next to
/// the source, then in an include/ directory one level above (the
/// lib/src + lib/include layout).
std::vector<std::string> sibling_header_candidates(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  const fs::path dir = p.parent_path();
  const std::string stem = p.stem().string();
  std::vector<std::string> out;
  for (const char* ext : {".h", ".hpp"}) {
    out.push_back((dir / (stem + ext)).string());
  }
  for (const char* ext : {".h", ".hpp"}) {
    out.push_back((dir / "include" / (stem + ext)).string());
  }
  for (const char* ext : {".h", ".hpp"}) {
    out.push_back(
        (dir.parent_path() / "include" / (stem + ext)).lexically_normal()
            .string());
  }
  return out;
}

/// The src-relative key ("net/time.h") include targets resolve against;
/// empty for files outside a src/ tree.
std::string src_relative_key(const std::string& path) {
  size_t at = std::string::npos;
  for (size_t pos = path.find("src/"); pos != std::string::npos;
       pos = path.find("src/", pos + 1)) {
    if (pos == 0 || path[pos - 1] == '/') at = pos;
  }
  if (at == std::string::npos) return std::string();
  return path.substr(at + 4);
}

struct SourceFile {
  std::string path;
  std::string content;
  std::string sibling_content;
};

/// The shared engine behind lint_file_set and lint_tree: per-file rules
/// plus the cross-file include-cycle pass.
std::vector<Finding> lint_sources(std::vector<SourceFile> files) {
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  std::vector<Finding> findings;
  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  for (const SourceFile& file : files) {
    lexed.push_back(lex(file.content));
  }
  for (size_t i = 0; i < files.size(); ++i) {
    auto file_findings =
        Linter(files[i].path, lexed[i], lex(files[i].sibling_content)).run();
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  std::vector<GraphFile> graph;
  for (size_t i = 0; i < files.size(); ++i) {
    const std::string key = src_relative_key(files[i].path);
    if (key.empty()) continue;
    graph.push_back(GraphFile{key, files[i].path, &lexed[i]});
  }
  auto cycle_findings = find_include_cycles(graph);
  findings.insert(findings.end(),
                  std::make_move_iterator(cycle_findings.begin()),
                  std::make_move_iterator(cycle_findings.end()));
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

/// Collects every lintable file under the roots. Directories named
/// "testdata" hold deliberate violations; they are skipped unless the
/// root itself points into one.
std::vector<std::string> collect_files(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    if (fs::is_regular_file(root)) {
      files.push_back(root);
      continue;
    }
    if (!fs::is_directory(root)) continue;
    const bool root_in_testdata = path_contains(root, "testdata");
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string path = entry.path().string();
      if (!root_in_testdata && path_contains(path, "/testdata/")) continue;
      if (lintable_extension(entry.path().extension().string())) {
        files.push_back(path);
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string format(const Finding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << finding.rule << "] "
      << finding.message;
  return out.str();
}

std::string format(const Waiver& waiver) {
  std::ostringstream out;
  out << waiver.file << ":" << waiver.line << ": " << waiver.rule;
  return out.str();
}

std::string format_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    const Finding& f = findings[i];
    out += "  {\"file\": \"" + json_escape(f.file) + "\", \"line\": " +
           std::to_string(f.line) + ", \"rule\": \"" + json_escape(f.rule) +
           "\", \"message\": \"" + json_escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]" : "\n]";
  return out;
}

std::vector<Finding> lint_file(const std::string& path,
                               const std::string& content) {
  return Linter(path, lex(content), LexedFile{}).run();
}

std::vector<Finding> lint_file(const std::string& path,
                               const std::string& content,
                               const std::string& sibling_header_content) {
  return Linter(path, lex(content), lex(sibling_header_content)).run();
}

std::vector<Finding> lint_file_set(const std::vector<FileContent>& files) {
  std::map<std::string, const std::string*> by_path;
  for (const FileContent& file : files) {
    by_path[file.path] = &file.content;
  }
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const FileContent& file : files) {
    SourceFile source{file.path, file.content, std::string()};
    if (path_ends_with(file.path, ".cpp") || path_ends_with(file.path, ".cc")) {
      for (const std::string& candidate :
           sibling_header_candidates(file.path)) {
        const auto it = by_path.find(candidate);
        if (it != by_path.end()) {
          source.sibling_content = *it->second;
          break;
        }
      }
    }
    sources.push_back(std::move(source));
  }
  return lint_sources(std::move(sources));
}

std::vector<Finding> lint_tree(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> sources;
  for (const std::string& file : collect_files(roots)) {
    SourceFile source{file, read_file(file), std::string()};
    if (path_ends_with(file, ".cpp") || path_ends_with(file, ".cc")) {
      for (const std::string& candidate : sibling_header_candidates(file)) {
        if (fs::is_regular_file(candidate)) {
          source.sibling_content = read_file(candidate);
          break;
        }
      }
    }
    sources.push_back(std::move(source));
  }
  return lint_sources(std::move(sources));
}

std::vector<Waiver> collect_waivers(const std::vector<std::string>& roots) {
  std::vector<Waiver> out;
  for (const std::string& file : collect_files(roots)) {
    const LexedFile lexed = lex(read_file(file));
    for (size_t line = 0; line < lexed.waivers.size(); ++line) {
      for (const std::string& rule : lexed.waivers[line]) {
        out.push_back(Waiver{file, static_cast<int>(line + 1), rule});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Waiver& a, const Waiver& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return out;
}

}  // namespace curtain::lint
