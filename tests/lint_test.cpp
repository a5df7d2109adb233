// curtain_lint rule tests: every rule must fire on a minimal fixture and
// every waiver must suppress it, plus a full-tree scan proving the real
// sources stay lint-clean (the same invariant the LintTree ctest enforces
// via the binary's exit code).
#include "lint.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace curtain::lint {
namespace {

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

// ---------------------------------------------------------------- entropy

TEST(LintEntropy, FlagsRandSrandAndRandomDevice) {
  const auto findings = lint_file("src/dns/fixture.cpp", R"cpp(
int draw() {
  std::srand(42);
  std::random_device rd;
  return rand();
}
)cpp");
  EXPECT_EQ(count_rule(findings, "entropy"), 3);
}

TEST(LintEntropy, IdentifierBoundariesAvoidSubstrings) {
  // "strand"/"grand_total" contain "rand" but are not entropy calls.
  const auto findings = lint_file("src/dns/fixture.cpp", R"cpp(
int strand = 1;
int grand_total = strand + 1;
)cpp");
  EXPECT_EQ(count_rule(findings, "entropy"), 0);
}

TEST(LintEntropy, RngImplementationIsExempt) {
  const auto findings =
      lint_file("src/net/rng.cpp", "int x = rand();\n");
  EXPECT_EQ(count_rule(findings, "entropy"), 0);
}

TEST(LintEntropy, WaiverSuppresses) {
  const auto findings = lint_file(
      "src/dns/fixture.cpp", "int x = rand();  // lint: entropy\n");
  EXPECT_EQ(count_rule(findings, "entropy"), 0);
}

// --------------------------------------------------------------- wallclock

TEST(LintWallclock, FlagsClockTokensAndTimeNullptr) {
  const auto findings = lint_file("src/measure/fixture.cpp", R"cpp(
void f() {
  auto a = std::chrono::steady_clock::now();
  auto b = std::chrono::system_clock::now();
  auto c = time(nullptr);
  auto d = time(NULL);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "wallclock"), 4);
}

TEST(LintWallclock, PlainTimeIdentifierIsNotFlagged) {
  const auto findings = lint_file("src/measure/fixture.cpp", R"cpp(
double time = 0.0;
double t2 = time + resolve_time(query);
)cpp");
  EXPECT_EQ(count_rule(findings, "wallclock"), 0);
}

TEST(LintWallclock, ClockSubstrateIsExempt) {
  EXPECT_EQ(count_rule(lint_file("src/net/time.cpp",
                                 "auto t = std::chrono::steady_clock::now();\n"),
                       "wallclock"),
            0);
}

TEST(LintWallclock, WaiverSuppresses) {
  const auto findings = lint_file(
      "src/measure/fixture.cpp",
      "auto t = std::chrono::steady_clock::now();  // lint: wallclock\n");
  EXPECT_EQ(count_rule(findings, "wallclock"), 0);
}

TEST(LintWallclock, ProfilerWallclockAliasSuppresses) {
  // The flight recorder's sanctioned spelling: reads like a statement of
  // intent ("this is profiler time") rather than a bare rule name.
  const auto findings = lint_file(
      "src/obs/fixture.cpp",
      "auto t = std::chrono::steady_clock::now();  // lint: profiler-wallclock\n");
  EXPECT_EQ(count_rule(findings, "wallclock"), 0);
}

TEST(LintWallclock, ProfilerWallclockAliasOnlyCoversWallclock) {
  // The alias must not leak into unrelated rules on the same line.
  const auto findings = lint_file("src/analysis/fixture.cpp", R"cpp(
std::unordered_map<int, double> totals;
void dump() {
  for (const auto& [k, v] : totals) print(k, v);  // lint: profiler-wallclock
}
)cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 1);
}

// ----------------------------------------------------------- unordered-iter

TEST(LintUnorderedIter, FlagsRangeForInExportReachingFile) {
  const auto findings = lint_file("src/analysis/fixture.cpp", R"cpp(
std::unordered_map<int, double> totals;
void dump() {
  for (const auto& [k, v] : totals) print(k, v);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 1);
}

TEST(LintUnorderedIter, FlagsIteratorWalk) {
  const auto findings = lint_file("src/exec/fixture.cpp", R"cpp(
std::unordered_set<uint32_t> seen;
void dump() {
  for (auto it = seen.begin(); it != seen.end(); ++it) print(*it);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 1);
}

TEST(LintUnorderedIter, RuntimeStatePathsAreOutOfScope) {
  // dns/ cache state is per-shard and never reaches exports; the rule is
  // deliberately scoped to export/analysis-reaching directories.
  const auto findings = lint_file("src/dns/fixture.cpp", R"cpp(
std::unordered_map<int, double> cache;
void sweep() {
  for (const auto& [k, v] : cache) evict(k);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 0);
}

TEST(LintUnorderedIter, OrderInsensitiveWaiverSuppresses) {
  const auto findings = lint_file("src/analysis/fixture.cpp", R"cpp(
std::unordered_map<int, double> totals;
double sum() {
  double s = 0;
  for (const auto& [k, v] : totals) s = max(s, v);  // lint: order-insensitive
  return s;
}
)cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 0);
}

TEST(LintUnorderedIter, SiblingHeaderMembersAreTracked) {
  // The container is declared only in the paired header; the .cpp loop must
  // still be caught.
  const std::string header = R"cpp(
class Agg {
  std::unordered_map<uint32_t, uint64_t> counts_;
};
)cpp";
  const std::string source = R"cpp(
void Agg::dump() {
  for (const auto& [k, v] : counts_) print(k, v);
}
)cpp";
  EXPECT_EQ(count_rule(lint_file("src/analysis/agg.cpp", source, header),
                       "unordered-iter"),
            1);
  // Without the sibling header the member is invisible.
  EXPECT_EQ(count_rule(lint_file("src/analysis/agg.cpp", source),
                       "unordered-iter"),
            0);
}

TEST(LintUnorderedIter, OrderSafeContainersAreNotFlagged) {
  // util::SmallVec (and the std sequence/tree containers) iterate in a
  // deterministic order; loops over them are fine in export paths.
  const auto findings = lint_file("src/analysis/fixture.cpp", R"cpp(
util::SmallVec<uint8_t, 8> ends_;
std::map<int, double> totals_;
std::vector<int> order_;
void dump() {
  for (const auto e : ends_) print(e);
  for (const auto& [k, v] : totals_) print(k, v);
  for (auto it = order_.begin(); it != order_.end(); ++it) print(*it);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 0);
}

TEST(LintUnorderedIter, OrderSafeDeclarationUntracksSharedName) {
  // A local `totals` declared as std::map shadows the unordered member of
  // the same name; iterating the local must not be misattributed to the
  // hash container. (The cost: iterating the member in another function in
  // the same file is also unflagged — acceptable for a heuristic linter.)
  const auto findings = lint_file("src/analysis/fixture.cpp", R"cpp(
class Agg {
  std::unordered_map<int, double> totals;
};
void dump(const Agg& agg) {
  std::map<int, double> totals = sorted(agg);
  for (const auto& [k, v] : totals) print(k, v);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 0);
}

TEST(LintUnorderedIter, UnorderedStillFlaggedNextToOrderSafeNames) {
  const auto findings = lint_file("src/analysis/fixture.cpp", R"cpp(
std::unordered_map<int, double> totals;
util::SmallVec<uint8_t, 8> ends;
void dump() {
  for (const auto e : ends) print(e);
  for (const auto& [k, v] : totals) print(k, v);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 1);
}

TEST(LintUnorderedIter, FunctionReturningContainerIsNotAVariable) {
  const auto findings = lint_file("src/analysis/fixture.cpp", R"cpp(
std::unordered_map<int, double> build_totals();
void use() {
  for (const auto& [k, v] : sorted(build_totals())) print(k, v);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 0);
}

// ------------------------------------------------------------------ rng-seed

TEST(LintRngSeed, FlagsLiteralSeeds) {
  const auto findings = lint_file("src/measure/fixture.cpp", R"cpp(
void f() {
  net::Rng rng(42);
  auto shared = std::make_shared<net::Rng>(7);
  use(net::Rng(1234));
}
)cpp");
  EXPECT_EQ(count_rule(findings, "rng-seed"), 3);
}

TEST(LintRngSeed, DerivedSeedsPass) {
  const auto findings = lint_file("src/measure/fixture.cpp", R"cpp(
void f(uint64_t seed) {
  net::Rng a(net::mix_key(seed, net::hash_tag("device")));
  net::Rng b(seed);
  auto c = std::make_unique<net::Rng>(rng.derive("probe"));
}
)cpp");
  EXPECT_EQ(count_rule(findings, "rng-seed"), 0);
}

TEST(LintRngSeed, MultiLineConstructionIsMatched) {
  const auto findings = lint_file("src/measure/fixture.cpp", R"cpp(
void f() {
  net::Rng rng(
      17);
}
)cpp");
  EXPECT_EQ(count_rule(findings, "rng-seed"), 1);
}

TEST(LintRngSeed, RngSubstrateIsExemptAndWaiverSuppresses) {
  EXPECT_EQ(count_rule(lint_file("src/net/rng.cpp", "Rng r(99);\n"),
                       "rng-seed"),
            0);
  EXPECT_EQ(count_rule(lint_file("src/measure/fixture.cpp",
                                 "net::Rng rng(99);  // lint: rng-seed\n"),
                       "rng-seed"),
            0);
}

// ------------------------------------------------------------ header hygiene

TEST(LintHeaders, MissingPragmaOnceFires) {
  const auto findings =
      lint_file("src/dns/fixture.h", "int forty_two();\n");
  ASSERT_EQ(count_rule(findings, "pragma-once"), 1);
  EXPECT_EQ(findings.front().line, 1);
}

TEST(LintHeaders, PragmaOncePresentPasses) {
  const auto findings =
      lint_file("src/dns/fixture.h", "#pragma once\nint forty_two();\n");
  EXPECT_EQ(count_rule(findings, "pragma-once"), 0);
}

TEST(LintHeaders, UsingNamespaceInHeaderFires) {
  const auto findings = lint_file(
      "src/dns/fixture.h", "#pragma once\nusing namespace std;\n");
  EXPECT_EQ(count_rule(findings, "using-namespace"), 1);
}

TEST(LintHeaders, SourcesAreExemptFromHeaderRules) {
  const auto findings =
      lint_file("src/dns/fixture.cpp", "using namespace std;\n");
  EXPECT_EQ(count_rule(findings, "pragma-once"), 0);
  EXPECT_EQ(count_rule(findings, "using-namespace"), 0);
}

// ----------------------------------------------- comment/string insulation

TEST(LintPreprocess, CommentsAndStringsDoNotTriggerRules) {
  const auto findings = lint_file("src/measure/fixture.cpp", R"cpp(
// rand() and steady_clock in a comment are fine.
/* so is srand(1) in a block comment,
   even spanning lines with random_device */
const char* msg = "call rand() or use steady_clock";
)cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintFormat, FindingFormatIsFileLineRuleMessage) {
  const Finding finding{"src/dns/a.cpp", 12, "entropy", "no ad-hoc entropy"};
  EXPECT_EQ(format(finding), "src/dns/a.cpp:12: [entropy] no ad-hoc entropy");
}

TEST(LintFindings, SortedByLine) {
  const auto findings = lint_file("src/measure/fixture.cpp", R"cpp(
void f() {
  auto t = std::chrono::steady_clock::now();
  int x = rand();
}
)cpp");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_LT(findings[0].line, findings[1].line);
}

// ------------------------------------------------------- token-stream lexer

TEST(LintLexer, RawStringContentsAreInsulated) {
  // rand/steady_clock inside the raw literal are data, not code.
  const auto findings = lint_file("src/measure/fixture.cpp", R"cpp(
const char* q = R"sql(
  rand() steady_clock "lone quote
)sql";
)cpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintLexer, CodeAfterRawStringCloseIsScanned) {
  // The regression the old per-line stripper had: the lone `"` inside the
  // raw string flipped its quote state, blanking the real code after the
  // closing `)"` — this rand() went unseen.
  const auto findings = lint_file(
      "src/measure/fixture.cpp",
      "const char* q = R\"(\n  \"lone quote\n)\"; int x = rand();\n");
  ASSERT_EQ(count_rule(findings, "entropy"), 1);
  EXPECT_EQ(findings.front().line, 3);
}

TEST(LintLexer, DelimitedRawStringsAreMatchedExactly) {
  // `)"` inside a delimited raw string is contents; only `)sql"` closes.
  const auto findings = lint_file(
      "src/measure/fixture.cpp",
      "const char* q = R\"sql(a)\" rand() b)sql\"; int ok = 1;\n");
  EXPECT_EQ(count_rule(findings, "entropy"), 0);
}

TEST(LintLexer, DigitSeparatorsDoNotOpenCharLiterals) {
  // The old stripper treated `'0'` in 1'000'000 as a char literal and
  // blanked the rest of the line.
  const auto findings = lint_file(
      "src/measure/fixture.cpp", "int big = 1'000'000; int x = rand();\n");
  EXPECT_EQ(count_rule(findings, "entropy"), 1);
}

TEST(LintLexer, SplicedIncludeDirectiveIsParsed) {
  // A backslash-newline continuation inside a directive still yields one
  // logical #include; the target anchors to its own physical line.
  const auto findings = lint_file(
      "src/net/fixture.cpp", "#include \\\n\"measure/records.h\"\n");
  ASSERT_EQ(count_rule(findings, "layering"), 1);
  EXPECT_EQ(findings.front().line, 2);
}

TEST(LintLexer, SplicedStringLiteralStaysInsulated) {
  const auto findings = lint_file(
      "src/measure/fixture.cpp", "const char* s = \"ra\\\nnd()\";\n");
  EXPECT_EQ(count_rule(findings, "entropy"), 0);
}

// ------------------------------------------------------------------ layering

TEST(LintLayering, UpwardIncludeFiresAndNamesEdge) {
  const auto findings =
      lint_file("src/net/fixture.cpp", "#include \"measure/records.h\"\n");
  ASSERT_EQ(count_rule(findings, "layering"), 1);
  EXPECT_NE(findings.front().message.find("net -> measure"),
            std::string::npos)
      << findings.front().message;
}

TEST(LintLayering, DownwardAndSameModuleIncludesPass) {
  const auto findings = lint_file("src/measure/fixture.cpp",
                                  "#include \"dns/cache.h\"\n"
                                  "#include \"measure/records.h\"\n"
                                  "#include \"util/csv.h\"\n");
  EXPECT_EQ(count_rule(findings, "layering"), 0);
}

TEST(LintLayering, SameLayerSiblingsMayNotIncludeEachOther) {
  // exec and analysis both sit on layer 6; neither may reach the other.
  const auto findings =
      lint_file("src/exec/fixture.cpp", "#include \"analysis/stats.h\"\n");
  EXPECT_EQ(count_rule(findings, "layering"), 1);
}

TEST(LintLayering, SystemAndUnknownIncludesAreIgnored) {
  const auto findings = lint_file("src/net/fixture.cpp",
                                  "#include <vector>\n"
                                  "#include \"thirdparty/json.h\"\n"
                                  "#include \"net_helpers.h\"\n");
  EXPECT_EQ(count_rule(findings, "layering"), 0);
}

TEST(LintLayering, FilesOutsideSrcAreUnconstrained) {
  // bench/, examples/ and tools/ sit above the DAG and may reach anything.
  const auto findings = lint_file("bench/fixture.cpp",
                                  "#include \"core/study.h\"\n"
                                  "#include \"measure/records.h\"\n");
  EXPECT_EQ(count_rule(findings, "layering"), 0);
}

TEST(LintLayering, WaiverSuppresses) {
  const auto findings = lint_file(
      "src/net/fixture.cpp",
      "#include \"measure/records.h\"  // lint: layering (transitional)\n");
  EXPECT_EQ(count_rule(findings, "layering"), 0);
}

// ------------------------------------------------------------- include-cycle

TEST(LintIncludeCycle, FiresOncePerCycleAndNamesTheChain) {
  const auto findings = lint_file_set({
      {"src/measure/a.h", "#pragma once\n#include \"measure/b.h\"\n"},
      {"src/measure/b.h", "#pragma once\n#include \"measure/a.h\"\n"},
  });
  ASSERT_EQ(count_rule(findings, "include-cycle"), 1);
  const auto it =
      std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.rule == "include-cycle";
      });
  EXPECT_EQ(it->file, "src/measure/b.h");
  EXPECT_NE(
      it->message.find("measure/a.h -> measure/b.h -> measure/a.h"),
      std::string::npos)
      << it->message;
}

TEST(LintIncludeCycle, AcyclicChainsPass) {
  const auto findings = lint_file_set({
      {"src/measure/a.h", "#pragma once\n#include \"measure/b.h\"\n"},
      {"src/measure/b.h", "#pragma once\n#include \"measure/c.h\"\n"},
      {"src/measure/c.h", "#pragma once\n"},
  });
  EXPECT_EQ(count_rule(findings, "include-cycle"), 0);
}

TEST(LintIncludeCycle, WaiverOnClosingIncludeSuppresses) {
  const auto findings = lint_file_set({
      {"src/measure/a.h", "#pragma once\n#include \"measure/b.h\"\n"},
      {"src/measure/b.h",
       "#pragma once\n"
       "#include \"measure/a.h\"  // lint: include-cycle (legacy pair)\n"},
  });
  EXPECT_EQ(count_rule(findings, "include-cycle"), 0);
}

// ------------------------------------------------------------- shared-static

TEST(LintSharedStatic, FlagsNamespaceAndFunctionLocalMutableStatics) {
  const auto findings = lint_file("src/exec/fixture.cpp", R"cpp(
static int g_counter = 0;
namespace exec {
int next() {
  static int last = 0;
  return ++last;
}
}
)cpp");
  EXPECT_EQ(count_rule(findings, "shared-static"), 2);
}

TEST(LintSharedStatic, ConstConstexprAndThreadLocalPass) {
  const auto findings = lint_file("src/exec/fixture.cpp", R"cpp(
static constexpr int kFanout = 4;
static const char* const kNames[] = {"urban", "rural"};
int scratch() {
  static thread_local int slot = 0;
  return slot;
}
)cpp");
  EXPECT_EQ(count_rule(findings, "shared-static"), 0);
}

TEST(LintSharedStatic, FunctionsAndClassMembersAreNotVariables) {
  const auto findings = lint_file("src/exec/fixture.cpp", R"cpp(
static int helper(int x) { return x + 1; }
static void forward_decl(int x);
class Gadget {
  static int live_count_;
  static int make();
};
)cpp");
  EXPECT_EQ(count_rule(findings, "shared-static"), 0);
}

TEST(LintSharedStatic, TemplatesDoNotConfuseTheScopeWalk) {
  const auto findings = lint_file("src/exec/fixture.cpp", R"cpp(
template <class T>
static T zero() { return T{}; }
static int g_bad = 1;
)cpp");
  EXPECT_EQ(count_rule(findings, "shared-static"), 1);
}

TEST(LintSharedStatic, FlagsStaticContainersWithoutInitializer) {
  const auto findings = lint_file(
      "src/exec/fixture.cpp",
      "static std::unordered_map<int, long> g_lookup;\n");
  EXPECT_EQ(count_rule(findings, "shared-static"), 1);
}

TEST(LintSharedStatic, WaiverSuppresses) {
  const auto findings = lint_file(
      "src/exec/fixture.cpp",
      "static int g_hits = 0;  // lint: shared-static (test-only counter)\n");
  EXPECT_EQ(count_rule(findings, "shared-static"), 0);
}

// ----------------------------------------------------------------- hot-alloc

TEST(LintHotAlloc, SilentWithoutMarker) {
  const auto findings = lint_file(
      "src/dns/fixture.cpp", "int* leak() { return new int(7); }\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 0);
}

TEST(LintHotAlloc, FlagsAllocationIdiomsInMarkedFiles) {
  const auto findings = lint_file("src/dns/fixture.cpp", R"cpp(
// lint-hot-path
struct R;
R* grow() { return new R(); }
std::unique_ptr<R> boxed() { return std::make_unique<R>(); }
std::function<void()> cb;
void lookup(std::string name);
)cpp");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 4);
}

TEST(LintHotAlloc, PlacementNewViewsAndReturnsPass) {
  const auto findings = lint_file("src/dns/fixture.cpp", R"cpp(
// lint-hot-path
void reuse(void* slot) { ::new (slot) int(0); }
void find(const std::string& key);
void view(std::string_view key);
std::string render();
)cpp");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 0);
}

TEST(LintHotAlloc, FlagsStringTemporariesButNotEmptyOnes) {
  const auto findings = lint_file("src/analysis/fixture.cpp", R"cpp(
// lint-hot-path
void row(int kind) {
  write(std::string(kind_name(kind)), std::string(host, 3));
  write(std::string(), std::string_view(host));
}
)cpp");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 2);
}

TEST(LintHotAlloc, StringTemporaryWaiverSuppresses) {
  const auto findings = lint_file(
      "src/analysis/fixture.cpp",
      "// lint-hot-path\n"
      "std::string copy(const char* s) {\n"
      "  return std::string(s);  // lint: hot-alloc (cold path)\n"
      "}\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 0);
}

TEST(LintHotAlloc, MarkerWorksFromBlockComments) {
  const auto findings = lint_file(
      "src/dns/fixture.cpp",
      "/* lint-hot-path: resolver fast path */\nint* p = new int(1);\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 1);
}

TEST(LintHotAlloc, WaiverSuppresses) {
  const auto findings = lint_file(
      "src/dns/fixture.cpp",
      "// lint-hot-path\n"
      "int* spill() { return new int(1); }  // lint: hot-alloc (cold path)\n");
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 0);
}

// ------------------------------------------------------- file sets / pairing

TEST(LintFileSet, PairsHppSiblingHeaders) {
  const auto findings = lint_file_set({
      {"src/analysis/agg.cpp",
       "void Agg::dump() {\n"
       "  for (const auto& [k, v] : counts_) print(k, v);\n"
       "}\n"},
      {"src/analysis/agg.hpp",
       "#pragma once\n"
       "class Agg { std::unordered_map<int, long> counts_; };\n"},
  });
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 1);
}

TEST(LintFileSet, PairsHeadersInSiblingIncludeDirs) {
  // The lib/src + lib/include layout: agg.cpp's header lives one level up
  // under include/.
  const auto findings = lint_file_set({
      {"src/analysis/lib/src/agg.cpp",
       "void Agg::dump() {\n"
       "  for (const auto& [k, v] : counts_) print(k, v);\n"
       "}\n"},
      {"src/analysis/lib/include/agg.h",
       "#pragma once\n"
       "class Agg { std::unordered_map<int, long> counts_; };\n"},
  });
  EXPECT_EQ(count_rule(findings, "unordered-iter"), 1);
}

// --------------------------------------------------------- output & waivers

TEST(LintFormat, JsonOutputIsStableAndEscaped) {
  EXPECT_EQ(format_json({}), "[]");
  const std::vector<Finding> findings{
      {"src/a.cpp", 3, "entropy", "say \"no\""},
      {"src/b.h", 1, "pragma-once", "missing"}};
  EXPECT_EQ(format_json(findings),
            "[\n"
            "  {\"file\": \"src/a.cpp\", \"line\": 3, \"rule\": \"entropy\", "
            "\"message\": \"say \\\"no\\\"\"},\n"
            "  {\"file\": \"src/b.h\", \"line\": 1, \"rule\": "
            "\"pragma-once\", \"message\": \"missing\"}\n"
            "]");
}

TEST(LintFormat, WaiverFormatIsFileLineRule) {
  EXPECT_EQ(format(Waiver{"src/a.cpp", 9, "wallclock"}),
            "src/a.cpp:9: wallclock");
}

TEST(LintWaivers, MidCommentMentionsAreProseNotWaivers) {
  // Only a comment whose text *starts* with `lint:` waives; mentioning the
  // syntax mid-sentence (docs, this linter's own sources) is prose.
  const auto findings = lint_file(
      "src/dns/fixture.cpp",
      "int x = rand();  // waive with lint: entropy elsewhere\n");
  EXPECT_EQ(count_rule(findings, "entropy"), 1);
}

TEST(LintWaivers, InventoryListsActiveWaiversSorted) {
  const std::string root = CURTAIN_SOURCE_ROOT;
  const auto waivers = collect_waivers({root + "/tools/lint/testdata"});
  ASSERT_FALSE(waivers.empty());
  bool found = false;
  for (const Waiver& w : waivers) {
    if (w.rule == "order-insensitive" &&
        w.file.find("waived_ok.cpp") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "waived_ok.cpp's order-insensitive waiver missing";
  for (size_t i = 1; i < waivers.size(); ++i) {
    EXPECT_LE(waivers[i - 1].file, waivers[i].file);
    if (waivers[i - 1].file == waivers[i].file) {
      EXPECT_LE(waivers[i - 1].line, waivers[i].line);
    }
  }
}

// ------------------------------------------------------------- tree scan

TEST(LintTree, FixtureTreeFiresEveryRuleAndHonorsWaivers) {
  const std::string root = CURTAIN_SOURCE_ROOT;
  const auto findings = lint_tree({root + "/tools/lint/testdata"});
  // Every rule fires somewhere in the bad_* fixtures...
  for (const char* rule :
       {"entropy", "wallclock", "unordered-iter", "rng-seed", "record-growth",
        "layering", "include-cycle", "shared-static", "hot-alloc",
        "pragma-once", "using-namespace"}) {
    EXPECT_GT(count_rule(findings, rule), 0) << rule << " never fired";
  }
  // ...and the fully-waived fixture contributes nothing.
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.file.find("waived_ok"), std::string::npos)
        << format(finding);
  }
}

TEST(LintTree, CsvCellFixtureFlagsEachCopyOnce) {
  const std::string root = CURTAIN_SOURCE_ROOT;
  const auto findings = lint_tree({root + "/tools/lint/testdata"});
  int copies = 0;
  for (const Finding& finding : findings) {
    if (finding.file.find("bad_csv_cells.cpp") == std::string::npos) continue;
    EXPECT_EQ(finding.rule, "hot-alloc") << format(finding);
    ++copies;
  }
  // Two per-cell copies on one line; the empty temporaries do not count.
  EXPECT_EQ(copies, 2);
}

TEST(LintTree, RealSourcesAreClean) {
  const std::string root = CURTAIN_SOURCE_ROOT;
  const auto findings = lint_tree(
      {root + "/src", root + "/bench", root + "/examples", root + "/tools"});
  for (const Finding& finding : findings) {
    ADD_FAILURE() << format(finding);
  }
}

}  // namespace
}  // namespace curtain::lint
