// Include-graph extraction and the declared layer DAG.
//
// The simulator's modules form a strict layering (DESIGN.md §16):
//
//   util(0) -> obs(1) -> net(2) -> dns(3) -> {cdn, cellular, publicdns}(4)
//     -> measure(5) -> {exec, analysis}(6) -> core(7)
//
// A module may include itself and any *strictly lower* layer; sibling
// modules on the same layer (cdn/cellular/publicdns, exec/analysis) may
// not include each other. bench/, examples/, tools/ and tests/ sit above
// core and are unconstrained. The `layering` rule rejects any project
// include that walks up or across the DAG, and `include-cycle` rejects
// file-level include cycles (which layering cannot see inside a module).
//
// The table is embedded here — the DAG is an architectural decision, so
// changing it means editing this file and facing review, exactly like the
// waiver inventory.
#pragma once

#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace curtain::lint {

/// Layer index of a `src/` module name ("net", "measure", ...); -1 when
/// the name is not a declared module (external headers, bench helpers).
int module_layer(const std::string& module);

/// The `src/` module a file belongs to: the path component after the last
/// `src/` ("src/net/time.cpp" -> "net"). Empty for paths outside src/
/// (bench/, examples/, tools/) and for unknown modules.
std::string module_of_path(const std::string& path);

/// True when `from` may include a header of module `to` under the DAG.
bool layering_allows(const std::string& from, const std::string& to);

/// Comma-separated list of modules `from` may include (for diagnostics).
std::string allowed_modules(const std::string& from);

/// One node of the file-level include graph: `key` is the src-relative
/// path ("net/time.h") that include targets resolve against.
struct GraphFile {
  std::string key;
  std::string path;  ///< full path, used in findings
  const LexedFile* lexed = nullptr;
};

/// Detects file-level include cycles. Each cycle is reported once, as an
/// `include-cycle` finding anchored at the include that closes the cycle,
/// with the full chain in the message. Nodes are visited in sorted key
/// order so output is deterministic.
std::vector<Finding> find_include_cycles(const std::vector<GraphFile>& files);

}  // namespace curtain::lint
