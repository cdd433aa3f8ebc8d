/**
 * @file
 * isol-lint: determinism, capture-safety, and unit-safety static
 * analysis for the simulator tree.
 *
 * A dependency-free (no libclang) token-level checker organised in
 * three rule families:
 *
 * Determinism (D) — hazards that break byte-identical replay:
 *   D1  pointer-keyed unordered containers: iterating one visits
 *       elements in heap-address order, which differs run to run.
 *       Declarations are flagged too so lookup-only use is an explicit,
 *       documented decision (`allow(D1)` on the declaration).
 *   D2  wall-clock / ambient-entropy calls outside src/common/rng.hh
 *       (std::chrono clocks, time(), rand(), std::random_device, ...).
 *   D3  pointer-value ordering comparisons inside comparators
 *       (sort keys built from addresses reorder across runs).
 *
 * No runtime check catches these three. Mutable global state and
 * unordered float folds across sweep workers are caught at runtime
 * instead (isol_fuzz reruns, the --jobs determinism tests, TSan), so
 * they have no rule; DESIGN.md §8 maps each hazard to its check.
 *
 * Capture safety (P):
 *   P2  deferred callbacks (arguments to at/after/schedule/defer/post)
 *       that default-capture by reference: the callback outlives the
 *       frame that scheduled it, so every local it names dangles.
 *
 * Unit safety (U) — silent-corruption unit mixups:
 *   U1  raw non-zero integer literals flowing into SimTime-typed
 *       parameters (wrap in nsToNs()/usToNs()/msToNs() so the unit is
 *       explicit), and unit-suffix mismatches between an argument
 *       identifier and the parameter it binds to (`_us` into `_ns`,
 *       `_bytes` into `_sectors`, ... across the blk/ssd boundary).
 *
 * Findings are suppressed with `// isol-lint: allow(D2): reason` on the
 * offending line, or on a line of its own above it (a stand-alone
 * suppression covers everything through the next line containing code,
 * so multi-line justifications work). Suppressions that no longer
 * match any finding are reported as stale and fail the run.
 *
 * The checker is heuristic by design: it tokenizes real C++ (comments,
 * strings, raw strings, preprocessor lines) but does not build an AST,
 * so rules favour the concrete idioms used in this repository over
 * full-language generality. Every rule ships with known-bad and
 * known-good fixtures under tools/isol_lint/fixtures/.
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
    kComment,
};

struct Token
{
    TokKind kind;
    std::string text;
    int line = 0; //!< 1-based line of the token's first character
};

/**
 * Tokenize C++ source. Comments are kept (suppression handling reads
 * them); preprocessor lines are skipped entirely.
 */
std::vector<Token> tokenize(const std::string &source);

/** One rule violation (or suppressed would-be violation). */
struct Finding
{
    std::string file;
    int line = 0;
    std::string rule; //!< "D1".."D3", "P2", "U1"
    std::string message;
    std::string hint; //!< fix-it guidance
};

/** A file to lint: `path` names it in findings, `content` is the text. */
struct FileInput
{
    std::string path;
    std::string content;
};

struct LintResult
{
    std::vector<Finding> findings; //!< unsuppressed, sorted (file, line)
    std::vector<Finding> suppressed; //!< silenced by allow() comments
    /** allow() comments that matched nothing; line = the comment's
     *  line, rule = the allowed rule id, for the staleness gate. */
    std::vector<Finding> unused_suppressions;
};

/**
 * Lint a set of files together. Cross-file state:
 *  - D1: container declarations collected anywhere in the set are
 *    matched against iteration in every file.
 *  - U1: function signatures with SimTime-typed or unit-suffixed
 *    parameters collected set-wide are matched against call sites.
 *
 * Every rule applies to every input, except that D2 exempts paths
 * ending in `common/rng.hh`.
 */
LintResult lintFiles(const std::vector<FileInput> &files);

/** Static description of one rule (--list-rules, docs). */
struct RuleInfo
{
    const char *id;
    const char *summary;
    const char *hint;
};

/** All rules, in id order (D1..D3, P2, U1). */
const std::vector<RuleInfo> &ruleTable();

} // namespace isol_lint

#endif // ISOL_LINT_LINT_HH
