/**
 * @file
 * Self-test for the isol-lint rule engine against the known-bad /
 * known-good U1 fixtures (tools/isol_lint/fixtures/), plus lexer unit
 * tests and the ordering of findings across files.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "lint.hh"

namespace
{

using isol_lint::FileInput;
using isol_lint::Finding;
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

std::vector<Finding>
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
    ASSERT_EQ(toks.size(), 10u);
    EXPECT_EQ(toks[0].kind, TokKind::kIdent);
    EXPECT_EQ(toks[0].text, "int");
    EXPECT_EQ(toks[3].kind, TokKind::kNumber);
    EXPECT_EQ(toks[5].kind, TokKind::kString);
    EXPECT_EQ(toks[5].line, 2);
    EXPECT_EQ(toks[6].kind, TokKind::kChar);
    // a -> b merged as one punct
    EXPECT_EQ(toks[8].text, "->");
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
    ASSERT_GE(toks.size(), 1u);
    EXPECT_EQ(toks[0].text, "int");
    EXPECT_EQ(toks[0].line, 3);
}

// --- Fixture corpus: the rule flags its bad file, passes its good ----

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
    std::vector<Finding> findings = lintFixture(rc.bad);
    ASSERT_FALSE(findings.empty()) << rc.bad << " should trigger " << rc.rule;
    for (const Finding &f : findings) {
        EXPECT_EQ(f.rule, rc.rule)
            << "unexpected cross-rule finding in " << rc.bad << ":\n"
            << describe(findings);
        EXPECT_FALSE(f.message.empty());
        EXPECT_FALSE(f.hint.empty());
        EXPECT_GT(f.line, 0);
    }
}

TEST_P(LintFixture, GoodFixtureIsClean)
{
    const RuleCase &rc = GetParam();
    std::vector<Finding> findings = lintFixture(rc.good);
    EXPECT_TRUE(findings.empty())
        << rc.good << " should lint clean but got:\n"
        << describe(findings);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, LintFixture,
    ::testing::Values(RuleCase{"U1", "u1_bad.cc", "u1_good.cc"}),
    [](const ::testing::TestParamInfo<RuleCase> &info) {
        // Name each case after its bad fixture's basename ("u1bad").
        std::string name;
        for (const char *p = info.param.bad; *p && *p != '.'; ++p) {
            if ((*p >= 'a' && *p <= 'z') || (*p >= 'A' && *p <= 'Z') ||
                (*p >= '0' && *p <= '9'))
                name += *p;
        }
        return name;
    });

// --- Ordering of findings ---------------------------------------------

TEST(LintRules, FindingsAreSortedAndDeterministic)
{
    // The SimTime signature lives in b.cc and is matched in both files.
    std::vector<FileInput> inputs = {
        {"src/b.cc", "void at(SimTime when_ns, int event);\n"
                     "void f(Sim &s, long d_us) { s.at(5, 1); s.at(d_us, 2); }\n"
                     "void g(Sim &s) { s.at(7, 3); }\n"},
        {"src/a.cc", "void h(Sim &s) { s.at(9, 4); }\n"},
    };
    std::vector<Finding> first = isol_lint::lintFiles(inputs);
    std::vector<Finding> second = isol_lint::lintFiles(inputs);
    ASSERT_EQ(first.size(), 4u) << describe(first);
    // Sorted by (file, line); two findings on one line keep source order.
    const struct {
        const char *file;
        int line;
        const char *arg;
    } expected[] = {{"src/a.cc", 1, "literal 9 "},
                    {"src/b.cc", 2, "literal 5 "},
                    {"src/b.cc", 2, "'d_us'"},
                    {"src/b.cc", 3, "literal 7 "}};
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].rule, "U1") << i;
        EXPECT_EQ(first[i].file, expected[i].file) << i;
        EXPECT_EQ(first[i].line, expected[i].line) << i;
        EXPECT_NE(first[i].message.find(expected[i].arg), std::string::npos)
            << i << ": " << first[i].message;
        EXPECT_EQ(first[i].file, second[i].file);
        EXPECT_EQ(first[i].line, second[i].line);
        EXPECT_EQ(first[i].message, second[i].message);
    }
}

} // namespace
