/**
 * @file
 * Rule engine for isol-lint: U1 (unit safety) over the token stream.
 *
 * The engine runs in two phases:
 *   1. per file: tokenize and collect unit-carrying function
 *      signatures into one set-wide registry;
 *   2. per file: match call sites against the registry; findings are
 *      merged in input order and sorted.
 */

#include "lint.hh"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

namespace isol_lint
{

namespace
{

const char *const kHint =
    "wrap time literals in nsToNs()/usToNs()/msToNs() so the unit is "
    "explicit, and convert between _bytes/_sectors/_lba at the blk/ssd "
    "boundary instead of passing them through";

// --- Token helpers ----------------------------------------------------

/** Index of the matching closer for the opener at `open`, or npos. */
size_t
matchForward(const std::vector<Token> &code, size_t open,
             const char *opener, const char *closer)
{
    int depth = 0;
    for (size_t i = open; i < code.size(); ++i) {
        if (code[i].text == opener)
            ++depth;
        else if (code[i].text == closer && --depth == 0)
            return i;
    }
    return std::string::npos;
}

/**
 * Split the argument/parameter list between `open` ('(') and its
 * matching ')' on top-level commas. Returns [first,one-past-last)
 * token-index ranges.
 */
std::vector<std::pair<size_t, size_t>>
splitTopLevel(const std::vector<Token> &code, size_t open)
{
    std::vector<std::pair<size_t, size_t>> chunks;
    size_t close = matchForward(code, open, "(", ")");
    if (close == std::string::npos)
        return chunks;
    int depth = 0;
    size_t start = open + 1;
    for (size_t i = open + 1; i < close; ++i) {
        const std::string &t = code[i].text;
        if (t == "(" || t == "[" || t == "{" || t == "<")
            ++depth;
        else if (t == ")" || t == "]" || t == "}" || t == ">")
            --depth;
        else if (depth == 0 && t == ",") {
            chunks.push_back({start, i});
            start = i + 1;
        }
    }
    if (start < close)
        chunks.push_back({start, close});
    return chunks;
}

// --- U1: unit-safety at call boundaries -------------------------------

/** One collected function signature. */
struct Signature
{
    size_t min_arity = 0; //!< params before the first defaulted one
    std::vector<bool> is_time; //!< SimTime-typed parameter
    std::vector<std::string> unit; //!< unit suffix of the param name
    std::vector<std::string> param_name;
};

/** Signatures by function name, merged across the linted set. */
using SignatureMap = std::map<std::string, std::vector<Signature>>;

const std::set<std::string> &
unitSuffixes()
{
    static const std::set<std::string> kSuffixes = {
        "ns", "us", "ms", "sec", "bytes", "sectors", "lba"};
    return kSuffixes;
}

/** Unit suffix of an identifier (`delay_us` -> "us"), or "". */
std::string
unitSuffix(const std::string &name)
{
    size_t us = name.rfind('_');
    if (us == std::string::npos || us + 1 >= name.size())
        return "";
    std::string tail = name.substr(us + 1);
    return unitSuffixes().count(tail) != 0 ? tail : "";
}

/** Collect unit-carrying function signatures from parameter lists. */
void
collectSignatures(const std::vector<Token> &code, SignatureMap &signatures)
{
    static const std::set<std::string> kNotFunctions = {
        "if", "for", "while", "switch", "return", "sizeof", "catch",
        "alignof", "decltype", "noexcept", "static_assert", "assert"};
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != TokKind::kIdent ||
            kNotFunctions.count(code[i].text) != 0 ||
            code[i + 1].text != "(")
            continue;
        auto chunks = splitTopLevel(code, i + 1);
        if (chunks.empty())
            continue;

        Signature sig;
        bool all_param_shaped = true;
        bool any_unit = false;
        sig.min_arity = chunks.size();
        for (size_t c = 0; c < chunks.size(); ++c) {
            auto [begin, end] = chunks[c];
            bool is_time = false;
            bool defaulted = false;
            size_t ident_count = 0;
            std::string last_ident;
            bool shaped = begin < end;
            for (size_t k = begin; k < end; ++k) {
                const Token &t = code[k];
                if (t.text == "=") {
                    defaulted = true;
                    break; // default argument: rest is an expression
                }
                if (t.kind == TokKind::kIdent) {
                    ++ident_count;
                    last_ident = t.text;
                    if (t.text == "SimTime")
                        is_time = true;
                    continue;
                }
                if (t.kind == TokKind::kNumber)
                    continue;
                static const std::set<std::string> kDeclPunct = {
                    "::", "<", ">", ">>", "*", "&", "&&", "[", "]",
                    "...", "."};
                if (t.kind != TokKind::kPunct ||
                    kDeclPunct.count(t.text) == 0) {
                    shaped = false;
                    break;
                }
            }
            if (!shaped || ident_count < 2) {
                // `foo(SimTime)` — unnamed param — still counts as a
                // parameter declaration shape-wise, but carries no
                // name to unit-check; other shapes disqualify.
                if (!(shaped && ident_count == 1)) {
                    all_param_shaped = false;
                    break;
                }
                last_ident.clear();
            }
            if (defaulted && c < sig.min_arity)
                sig.min_arity = c;
            std::string suffix =
                ident_count >= 2 ? unitSuffix(last_ident) : "";
            sig.is_time.push_back(is_time);
            sig.unit.push_back(suffix);
            sig.param_name.push_back(ident_count >= 2 ? last_ident
                                                      : "");
            any_unit = any_unit || is_time || !suffix.empty();
        }
        if (!all_param_shaped || !any_unit)
            continue;
        signatures[code[i].text].push_back(std::move(sig));
    }
}

/** Integer value of a numeric literal token (0 on parse failure). */
unsigned long long
literalValue(const std::string &text)
{
    std::string cleaned;
    for (char c : text) {
        if (c != '\'')
            cleaned += c;
    }
    return std::strtoull(cleaned.c_str(), nullptr, 0);
}

void
checkU1(const std::string &path, const std::vector<Token> &code,
        const SignatureMap &signatures, std::vector<Finding> &out)
{
    auto emit = [&](int line, std::string message) {
        out.push_back({path, line, "U1", std::move(message), kHint});
    };
    static const std::set<std::string> kCallContexts = {
        "return", "co_return", "case", "else", "do"};
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != TokKind::kIdent ||
            code[i + 1].text != "(")
            continue;
        auto sit = signatures.find(code[i].text);
        if (sit == signatures.end())
            continue;
        if (i > 0) {
            const std::string &prev = code[i - 1].text;
            if (code[i - 1].kind == TokKind::kIdent &&
                kCallContexts.count(prev) == 0)
                continue; // `EventId after(...)` — a declaration
            if (prev == ">" || prev == "*" || prev == "&")
                continue; // declarator / template return type
        }
        auto chunks = splitTopLevel(code, i + 1);
        for (size_t p = 0; p < chunks.size(); ++p) {
            auto [begin, end] = chunks[p];
            if (end != begin + 1)
                continue; // only single-token arguments are judged
            const Token &arg = code[begin];

            // Verdicts must be unanimous across all signatures of this
            // name that the call's arity can bind to.
            size_t matched = 0;
            size_t time_votes = 0;
            std::set<std::string> target_units;
            std::set<std::string> target_params;
            for (const Signature &sig : sit->second) {
                if (chunks.size() < sig.min_arity ||
                    chunks.size() > sig.is_time.size())
                    continue;
                ++matched;
                if (sig.is_time[p])
                    ++time_votes;
                std::string unit = sig.unit[p];
                if (unit.empty() && sig.is_time[p])
                    unit = "ns"; // SimTime's contract is nanoseconds
                target_units.insert(unit);
                if (!sig.param_name[p].empty())
                    target_params.insert(sig.param_name[p]);
            }
            if (matched == 0)
                continue;
            std::string pname = target_params.empty()
                                    ? std::string("#") +
                                          std::to_string(p + 1)
                                    : *target_params.begin();

            if (arg.kind == TokKind::kNumber &&
                time_votes == matched &&
                literalValue(arg.text) != 0) {
                emit(arg.line,
                     "raw integer literal " + arg.text +
                         " passed to SimTime parameter '" + pname +
                         "' of " + code[i].text +
                         "(): wrap it in nsToNs()/usToNs()/msToNs() so "
                         "the unit is explicit");
                continue;
            }
            if (arg.kind == TokKind::kIdent && target_units.size() == 1 &&
                !target_units.begin()->empty()) {
                const std::string &want = *target_units.begin();
                std::string have = unitSuffix(arg.text);
                if (!have.empty() && have != want) {
                    emit(arg.line,
                         "argument '" + arg.text + "' (unit _" + have +
                             ") bound to parameter '" + pname +
                             "' (unit _" + want + ") of " +
                             code[i].text +
                             "(): convert explicitly at the boundary");
                }
            }
        }
    }
}

} // namespace

std::vector<Finding>
lintFiles(const std::vector<FileInput> &files)
{
    std::vector<std::vector<Token>> code(files.size());
    SignatureMap signatures;
    for (size_t i = 0; i < files.size(); ++i) {
        code[i] = tokenize(files[i].content);
        collectSignatures(code[i], signatures);
    }

    std::vector<Finding> findings;
    for (size_t i = 0; i < files.size(); ++i)
        checkU1(files[i].path, code[i], signatures, findings);
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
        if (a.file != b.file)
            return a.file < b.file;
        return a.line < b.line;
    });
    return findings;
}

} // namespace isol_lint
