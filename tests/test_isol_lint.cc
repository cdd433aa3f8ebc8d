/**
 * @file
 * Self-test for the isol-lint rule engine against the known-bad /
 * known-good fixture corpus (tools/isol_lint/fixtures/), plus lexer
 * unit tests and the cross-file D1 contract (declaration in a header,
 * iteration in a .cc).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "lint.hh"

namespace
{

using isol_lint::FileInput;
using isol_lint::Finding;
using isol_lint::LintResult;
using isol_lint::TokKind;

std::string
readFixture(const std::string &name)
{
    std::string path = std::string(ISOL_LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

LintResult
lintFixture(const std::string &name)
{
    return isol_lint::lintFiles(
        {{"fixtures/" + name, readFixture(name)}});
}

std::string
describe(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings) {
        out += f.file + ":" + std::to_string(f.line) + " [" + f.rule +
               "] " + f.message + "\n";
    }
    return out;
}

// --- Lexer -------------------------------------------------------------

TEST(LintLexer, TokensCarryKindsAndLines)
{
    auto toks = isol_lint::tokenize(
        "int x = 42; // note\n\"str\" 'c' a->b\n");
    ASSERT_GE(toks.size(), 9u);
    EXPECT_EQ(toks[0].kind, TokKind::kIdent);
    EXPECT_EQ(toks[0].text, "int");
    EXPECT_EQ(toks[3].kind, TokKind::kNumber);
    EXPECT_EQ(toks[5].kind, TokKind::kComment);
    EXPECT_EQ(toks[6].kind, TokKind::kString);
    EXPECT_EQ(toks[6].line, 2);
    EXPECT_EQ(toks[7].kind, TokKind::kChar);
    // a -> b merged as one punct
    EXPECT_EQ(toks[9].text, "->");
}

TEST(LintLexer, SkipsPreprocessorAndRawStrings)
{
    auto toks = isol_lint::tokenize(
        "#include <ctime>\n#define T time(nullptr) \\\n  + 1\n"
        "auto s = R\"x(rand() time())x\";\n");
    for (const auto &t : toks) {
        if (t.kind == TokKind::kIdent) {
            EXPECT_NE(t.text, "time");
            EXPECT_NE(t.text, "rand");
        }
    }
    bool saw_raw = false;
    for (const auto &t : toks)
        saw_raw = saw_raw || (t.kind == TokKind::kString &&
                              t.text.find("rand()") != std::string::npos);
    EXPECT_TRUE(saw_raw);
}

TEST(LintLexer, BlockCommentLineAccounting)
{
    auto toks = isol_lint::tokenize("/* a\nb\nc */ int y;\n");
    ASSERT_GE(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, TokKind::kComment);
    EXPECT_EQ(toks[1].text, "int");
    EXPECT_EQ(toks[1].line, 3);
}

// --- Fixture corpus: each rule flags its bad file, passes its good ----

struct RuleCase
{
    const char *rule;
    const char *bad;
    const char *good;
};

// Without this gtest prints RuleCase as raw bytes, i.e. the addresses
// of its strings, which differ from run to run and end up in the test
// names ctest discovers.
void PrintTo(const RuleCase &rc, std::ostream *os)
{
    *os << rc.rule;
}

class LintFixture : public ::testing::TestWithParam<RuleCase>
{
};

TEST_P(LintFixture, BadFixtureFlagsOnlyItsRule)
{
    const RuleCase &rc = GetParam();
    LintResult result = lintFixture(rc.bad);
    ASSERT_FALSE(result.findings.empty())
        << rc.bad << " should trigger " << rc.rule;
    for (const Finding &f : result.findings) {
        EXPECT_EQ(f.rule, rc.rule)
            << "unexpected cross-rule finding in " << rc.bad << ":\n"
            << describe(result.findings);
        EXPECT_FALSE(f.message.empty());
        EXPECT_FALSE(f.hint.empty());
        EXPECT_GT(f.line, 0);
    }
}

TEST_P(LintFixture, GoodFixtureIsClean)
{
    const RuleCase &rc = GetParam();
    LintResult result = lintFixture(rc.good);
    EXPECT_TRUE(result.findings.empty())
        << rc.good << " should lint clean but got:\n"
        << describe(result.findings);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixture,
    ::testing::Values(
        RuleCase{"D1", "d1_bad.cc", "d1_good.cc"},
        RuleCase{"D2", "d2_bad.cc", "d2_good.cc"},
        RuleCase{"D3", "d3_bad.cc", "d3_good.cc"},
        RuleCase{"P2", "p2_bad.cc", "p2_good.cc"},
        RuleCase{"U1", "u1_bad.cc", "u1_good.cc"}),
    [](const ::testing::TestParamInfo<RuleCase> &info) {
        // Name each case after its bad fixture's basename ("d1bad").
        std::string name;
        for (const char *p = info.param.bad; *p && *p != '.'; ++p) {
            if ((*p >= 'a' && *p <= 'z') || (*p >= 'A' && *p <= 'Z') ||
                (*p >= '0' && *p <= '9'))
                name += *p;
        }
        return name;
    });

// --- Specific rule behaviours -----------------------------------------

TEST(LintRules, D1FlagsDeclarationAndIterationSeparately)
{
    LintResult result = lintFixture("d1_bad.cc");
    size_t decls = 0;
    size_t iters = 0;
    for (const Finding &f : result.findings) {
        if (f.message.find("is a pointer-keyed") != std::string::npos)
            ++decls;
        if (f.message.find("range-for over") != std::string::npos ||
            f.message.find("iterator walk over") != std::string::npos)
            ++iters;
    }
    EXPECT_EQ(decls, 2u); // vtimes_ and active_
    EXPECT_EQ(iters, 2u); // range-for and .begin() walk
}

TEST(LintRules, D1CrossFileHeaderDeclarationCcIteration)
{
    const char *header =
        "#include <unordered_map>\n"
        "struct Cg;\n"
        "struct Gate {\n"
        "    std::unordered_map<const Cg *, int> "
        "vt_; // isol-lint: allow(D1): fixture\n"
        "};\n";
    const char *impl = "#include \"gate.hh\"\n"
                       "int Gate_sum(Gate &g) {\n"
                       "    int s = 0;\n"
                       "    for (auto &e : g.vt_)\n"
                       "        s += e.second;\n"
                       "    return s;\n"
                       "}\n";
    LintResult result = isol_lint::lintFiles(
        {{"src/gate.hh", header}, {"src/gate.cc", impl}});
    ASSERT_EQ(result.findings.size(), 1u) << describe(result.findings);
    EXPECT_EQ(result.findings[0].rule, "D1");
    EXPECT_EQ(result.findings[0].file, "src/gate.cc");
    EXPECT_EQ(result.findings[0].line, 4);
    EXPECT_NE(result.findings[0].message.find("src/gate.hh:4"),
              std::string::npos);
    ASSERT_EQ(result.suppressed.size(), 1u); // the declaration allow
}

// A deque member that merely shares its name with a pointer-keyed map in
// another class must not be blamed for that map's declaration (the
// qos_max/qos_cost `states_` collision found while dogfooding the tool).
TEST(LintRules, D1SameNameBenignContainerInOtherFileIsNotFlagged)
{
    const char *ptr_header =
        "#include <unordered_map>\n"
        "struct Cg;\n"
        "struct MaxGate {\n"
        "    std::unordered_map<const Cg *, int> "
        "states_; // isol-lint: allow(D1): fixture\n"
        "};\n";
    const char *deque_impl = "#include <deque>\n"
                             "struct CostGate {\n"
                             "    std::deque<int> states_;\n"
                             "    int sum() {\n"
                             "        int s = 0;\n"
                             "        for (int v : states_)\n"
                             "            s += v;\n"
                             "        return s;\n"
                             "    }\n"
                             "};\n";
    LintResult result = isol_lint::lintFiles(
        {{"src/max_gate.hh", ptr_header}, {"src/cost_gate.cc", deque_impl}});
    EXPECT_TRUE(result.findings.empty()) << describe(result.findings);
    ASSERT_EQ(result.suppressed.size(), 1u); // the declaration allow
}

// Ambiguity is scoped: iteration in the *same* file as the pointer-keyed
// declaration still flags even when the name is also a deque elsewhere.
TEST(LintRules, D1AmbiguousNameStillFlagsInDeclaringFile)
{
    const char *ptr_impl =
        "#include <unordered_map>\n"
        "struct Cg;\n"
        "struct MaxGate {\n"
        "    std::unordered_map<const Cg *, int> "
        "states_; // isol-lint: allow(D1): fixture\n"
        "    int sum() {\n"
        "        int s = 0;\n"
        "        for (auto &e : states_)\n"
        "            s += e.second;\n"
        "        return s;\n"
        "    }\n"
        "};\n";
    const char *deque_header = "#include <deque>\n"
                               "struct CostGate {\n"
                               "    std::deque<int> states_;\n"
                               "};\n";
    LintResult result = isol_lint::lintFiles(
        {{"src/max_gate.cc", ptr_impl}, {"src/cost_gate.hh", deque_header}});
    ASSERT_EQ(result.findings.size(), 1u) << describe(result.findings);
    EXPECT_EQ(result.findings[0].rule, "D1");
    EXPECT_EQ(result.findings[0].file, "src/max_gate.cc");
    EXPECT_EQ(result.findings[0].line, 7);
}

TEST(LintRules, D2ExemptsTheRngHeader)
{
    const char *content = "#include <random>\n"
                          "struct Seeder { int s = 0; };\n"
                          "int ambient() { std::random_device rd; "
                          "return static_cast<int>(rd()); }\n";
    LintResult in_rng = isol_lint::lintFiles(
        {{"src/common/rng.hh", content}});
    EXPECT_TRUE(in_rng.findings.empty()) << describe(in_rng.findings);

    LintResult elsewhere = isol_lint::lintFiles(
        {{"src/sim/clock.hh", content}});
    ASSERT_FALSE(elsewhere.findings.empty());
    EXPECT_EQ(elsewhere.findings[0].rule, "D2");
}

TEST(LintRules, SuppressionFixtureIsCleanButRecorded)
{
    LintResult result = lintFixture("suppressed.cc");
    EXPECT_TRUE(result.findings.empty()) << describe(result.findings);
    EXPECT_GE(result.suppressed.size(), 2u);
    for (const Finding &f : result.suppressed)
        EXPECT_EQ(f.rule, "D2");
}

TEST(LintRules, SuppressionIsRuleSpecific)
{
    const char *content =
        "int roll() {\n"
        "    // isol-lint: allow(D1): wrong rule for this hazard\n"
        "    return rand();\n"
        "}\n";
    LintResult result =
        isol_lint::lintFiles({{"src/sim/roll.cc", content}});
    ASSERT_EQ(result.findings.size(), 1u) << describe(result.findings);
    EXPECT_EQ(result.findings[0].rule, "D2");
}

TEST(LintRules, RuleTableListsAllFiveRules)
{
    std::set<std::string> ids;
    for (const isol_lint::RuleInfo &r : isol_lint::ruleTable())
        ids.insert(r.id);
    EXPECT_EQ(ids, (std::set<std::string>{"D1", "D2", "D3", "P2", "U1"}));
}

// P2 has no path scope: a deferred callback in bench code is checked
// exactly like one in src/.
TEST(LintRules, P2AppliesUnderBenchWithoutAnnotation)
{
    const char *plain =
        "#include <functional>\n"
        "struct S { void after(long long d, std::function<void()> f); };\n"
        "void arm(S &s) {\n"
        "    int hits = 0;\n"
        "    long long d_ns = 1;\n"
        "    s.after(d_ns, [&] { ++hits; });\n"
        "    s.after(d_ns, [&hits] { ++hits; });\n"
        "}\n";
    LintResult in_bench =
        isol_lint::lintFiles({{"bench/arm.cc", plain}});
    ASSERT_EQ(in_bench.findings.size(), 1u) << describe(in_bench.findings);
    EXPECT_EQ(in_bench.findings[0].rule, "P2");
    EXPECT_EQ(in_bench.findings[0].line, 6);
}

TEST(LintRules, FindingsAreSortedAndDeterministic)
{
    std::vector<FileInput> inputs = {
        {"src/b.cc", "int b() { return rand() + time(0); }\n"
                     "int a() { return srand(1), 0; }\n"},
        {"src/a.cc", "int c() { return clock(); }\n"},
    };
    LintResult first = isol_lint::lintFiles(inputs);
    LintResult second = isol_lint::lintFiles(inputs);
    ASSERT_EQ(first.findings.size(), 4u) << describe(first.findings);
    // Sorted by (file, line); two findings on one line keep source order.
    const struct {
        const char *file;
        int line;
        const char *call;
    } expected[] = {{"src/a.cc", 1, "'clock()'"},
                    {"src/b.cc", 1, "'rand()'"},
                    {"src/b.cc", 1, "'time()'"},
                    {"src/b.cc", 2, "'srand()'"}};
    ASSERT_EQ(second.findings.size(), first.findings.size());
    for (size_t i = 0; i < first.findings.size(); ++i) {
        EXPECT_EQ(first.findings[i].file, expected[i].file) << i;
        EXPECT_EQ(first.findings[i].line, expected[i].line) << i;
        EXPECT_NE(first.findings[i].message.find(expected[i].call),
                  std::string::npos)
            << i << ": " << first.findings[i].message;
        EXPECT_EQ(first.findings[i].file, second.findings[i].file);
        EXPECT_EQ(first.findings[i].line, second.findings[i].line);
        EXPECT_EQ(first.findings[i].message,
                  second.findings[i].message);
    }
}

// --- The unused-suppression report ----------------------------------

TEST(LintOptions, UsedSuppressionIsNotReportedStale)
{
    const char *content =
        "int roll() {\n"
        "    return rand(); // isol-lint: allow(D2): justified\n"
        "}\n";
    LintResult result =
        isol_lint::lintFiles({{"src/sim/roll.cc", content}});
    EXPECT_TRUE(result.findings.empty()) << describe(result.findings);
    EXPECT_TRUE(result.unused_suppressions.empty());
    ASSERT_EQ(result.suppressed.size(), 1u);

    // An allow() that matches nothing is reported stale at its line.
    const char *stale =
        "int roll() {\n"
        "    // isol-lint: allow(U1): never matched anything\n"
        "    return rand(); // isol-lint: allow(D2): justified\n"
        "}\n";
    LintResult with_stale =
        isol_lint::lintFiles({{"src/sim/roll.cc", stale}});
    EXPECT_TRUE(with_stale.findings.empty())
        << describe(with_stale.findings);
    ASSERT_EQ(with_stale.unused_suppressions.size(), 1u);
    EXPECT_EQ(with_stale.unused_suppressions[0].rule, "U1");
    EXPECT_EQ(with_stale.unused_suppressions[0].line, 2);
}

} // namespace
