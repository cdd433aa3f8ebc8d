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
 *   D4  mutable namespace-scope or static state in src/ (breaks the
 *       shared-nothing contract of the parallel sweep workers).
 *   D5  float/double accumulation into state declared outside a
 *       `// isol: parallel` region (summation order then depends on
 *       worker scheduling; fold per-index partials afterwards).
 *
 * Capture safety (P):
 *   P2  deferred callbacks (arguments to at/after/schedule/defer/post)
 *       under src/ or inside a `// isol: parallel` region that
 *       default-capture by reference: the callback outlives the frame
 *       that scheduled it, so every local it names dangles.
 *
 * Unit safety (U) — silent-corruption unit mixups:
 *   U1  raw non-zero integer literals flowing into SimTime-typed
 *       parameters (wrap in nsToNs()/usToNs()/msToNs() so the unit is
 *       explicit), and unit-suffix mismatches between an argument
 *       identifier and the parameter it binds to (`_us` into `_ns`,
 *       `_bytes` into `_sectors`, ... across the blk/ssd boundary).
 *
 * `// isol: parallel` marks the next brace block as running on sweep
 * workers (D5 and P2 read it).
 *
 * Findings are suppressed with `// isol-lint: allow(D2): reason` on the
 * offending line, or on a line of its own above it (a stand-alone
 * suppression covers everything through the next line containing code,
 * so multi-line justifications work). Suppressions that no longer
 * match any finding are reported by --report-unused-suppressions.
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
    size_t offset = 0; //!< byte offset into the source
};

/**
 * Tokenize C++ source. Comments are kept (the parallel marker and
 * suppression handling read them); preprocessor lines are skipped
 * entirely.
 */
std::vector<Token> tokenize(const std::string &source);

/** One rule violation (or suppressed would-be violation). */
struct Finding
{
    std::string file;
    int line = 0;
    std::string rule; //!< "D1".."D5", "P2", "U1"
    std::string message;
    std::string hint; //!< fix-it guidance
};

/** A file to lint: `path` drives rule scoping, `content` is the text. */
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
 * Path scoping: D4 only fires for paths containing a `src/` component,
 * P2 for those paths plus `// isol: parallel` regions elsewhere; D2
 * exempts paths ending in `common/rng.hh`; everything else applies to
 * all inputs.
 */
LintResult lintFiles(const std::vector<FileInput> &files);

/** Static description of one rule (--list-rules, docs). */
struct RuleInfo
{
    const char *id;
    const char *summary;
    const char *hint;
};

/** All rules, in id order (D1..D5, P2, U1). */
const std::vector<RuleInfo> &ruleTable();

} // namespace isol_lint

#endif // ISOL_LINT_LINT_HH
