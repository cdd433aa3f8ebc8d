/**
 * @file
 * isol-lint: unit-safety static analysis for the simulator tree.
 *
 * A dependency-free (no libclang) token-level checker with one rule:
 *
 *   U1  raw non-zero integer literals flowing into SimTime-typed
 *       parameters (wrap in nsToNs()/usToNs()/msToNs() so the unit is
 *       explicit), and unit-suffix mismatches between an argument
 *       identifier and the parameter it binds to (`_us` into `_ns`,
 *       `_bytes` into `_sectors`, ... across the blk/ssd boundary).
 *
 * A unit mixup is deterministic, so no runtime check sees it. The
 * replay and capture hazards the tool once checked (pointer-order
 * iteration and comparators, ambient clocks and entropy, `[&]` in
 * deferred callbacks) are caught at runtime or by a grep ctest
 * instead; DESIGN.md §8 maps each hazard to its check.
 *
 * The checker is heuristic by design: it tokenizes real C++ (comments,
 * strings, raw strings, preprocessor lines) but does not build an AST,
 * so the rule favours the concrete idioms used in this repository over
 * full-language generality. The rule ships with a known-bad and a
 * known-good fixture under tools/isol_lint/fixtures/.
 */

#ifndef ISOL_LINT_LINT_HH
#define ISOL_LINT_LINT_HH

#include <string>
#include <vector>

namespace isol_lint
{

/** Token classes produced by the lexer. */
enum class TokKind
{
    kIdent,
    kNumber,
    kString,
    kChar,
    kPunct,
};

struct Token
{
    TokKind kind;
    std::string text;
    int line = 0; //!< 1-based line of the token's first character
};

/**
 * Tokenize C++ source. Comments and preprocessor lines are skipped
 * entirely.
 */
std::vector<Token> tokenize(const std::string &source);

/** One rule violation. */
struct Finding
{
    std::string file;
    int line = 0;
    std::string rule; //!< "U1"
    std::string message;
    std::string hint; //!< fix-it guidance
};

/** A file to lint: `path` names it in findings, `content` is the text. */
struct FileInput
{
    std::string path;
    std::string content;
};

/**
 * Lint a set of files together: function signatures with SimTime-typed
 * or unit-suffixed parameters collected set-wide are matched against
 * call sites in every file. Findings are sorted by (file, line); two on
 * one line keep source order.
 */
std::vector<Finding> lintFiles(const std::vector<FileInput> &files);

} // namespace isol_lint

#endif // ISOL_LINT_LINT_HH
