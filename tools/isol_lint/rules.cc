/**
 * @file
 * Rule engine for isol-lint: families D (determinism), P (capture
 * safety), U (unit safety) over the token stream.
 *
 * The engine runs in three phases:
 *   1. per file: tokenize, extract suppressions, and collect facts:
 *      pointer-keyed container declarations (D1) and unit-carrying
 *      function signatures (U1);
 *   2. global model: the D1 and U1 registries merged across the set;
 *   3. per file: rule checks, merged in input order and sorted.
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

// --- Rule metadata ----------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"D1",
     "pointer-keyed unordered container (iteration order = heap-address "
     "order)",
     "iterate an index-mapped creation-order deque instead (see "
     "src/blk/cg_state.hh); keep pointer-keyed maps lookup-only and "
     "document with allow(D1)"},
    {"D2",
     "wall-clock or ambient-entropy source outside src/common/rng.hh",
     "derive all randomness from the scenario's seeded isol::Rng and all "
     "time from Simulator::now(); profiling clocks go through "
     "sweep::monotonicMs()"},
    {"D3",
     "pointer-value ordering comparison in a comparator",
     "compare a stable field (id, creation index) instead of the "
     "pointers themselves"},
    {"P2",
     "deferred callback default-captures by reference",
     "capture by value (or [this] for the owning component); a deferred "
     "callback outlives the frame that scheduled it"},
    {"U1",
     "raw integer literal or unit-suffix mismatch flowing into a "
     "unit-typed parameter",
     "wrap time literals in nsToNs()/usToNs()/msToNs() so the unit is "
     "explicit, and convert between _bytes/_sectors/_lba at the "
     "blk/ssd boundary instead of passing them through"},
};

const RuleInfo &
rule(const char *id)
{
    for (const RuleInfo &r : kRules) {
        if (std::string(r.id) == id)
            return r;
    }
    return kRules.front();
}

// --- Per-file pre-processing ------------------------------------------

/** Inclusive line range suppressing one rule (or "*" for all). */
struct Suppression
{
    int first_line;
    int last_line;
    std::string rule; //!< rule id, or "*"
    int comment_line = 0; //!< where the allow() comment itself sits
    bool used = false; //!< matched at least one (suppressed) finding
};

struct FileView
{
    std::string path;
    std::vector<Token> code; //!< comment-free tokens
    std::vector<Suppression> suppressions;
};

bool
pathIsRngHeader(const std::string &path)
{
    const std::string suffix = "common/rng.hh";
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Parse `isol-lint: allow(D1, D2)` occurrences out of a comment. */
void
parseAllows(const std::string &text, int first_line, int last_line,
            std::vector<Suppression> &out)
{
    size_t pos = text.find("isol-lint:");
    while (pos != std::string::npos) {
        size_t open = text.find("allow(", pos);
        if (open == std::string::npos)
            return;
        size_t close = text.find(')', open);
        if (close == std::string::npos)
            return;
        std::string list = text.substr(open + 6, close - open - 6);
        std::string id;
        auto flush = [&] {
            if (!id.empty())
                out.push_back({first_line, last_line, id, first_line});
            id.clear();
        };
        for (char c : list) {
            if (c == ',' || c == ' ' || c == '\t')
                flush();
            else
                id += c;
        }
        flush();
        pos = text.find("isol-lint:", close);
    }
}

FileView
buildView(const FileInput &input)
{
    FileView view;
    view.path = input.path;
    std::vector<Token> all = tokenize(input.content);

    // Lines that contain at least one code (non-comment) token: a
    // suppression comment alone on its line extends to the next such
    // line.
    std::set<int> code_lines;
    for (const Token &t : all) {
        if (t.kind != TokKind::kComment)
            code_lines.insert(t.line);
    }

    for (const Token &t : all) {
        if (t.kind != TokKind::kComment) {
            view.code.push_back(t);
            continue;
        }
        // Only `//` comments carry directives: doc blocks quote the
        // grammar (`allow(D2): reason`) without meaning it.
        if (t.text.rfind("//", 0) != 0)
            continue;
        int end_line = t.line + static_cast<int>(std::count(
                                    t.text.begin(), t.text.end(), '\n'));
        std::vector<Suppression> allows;
        parseAllows(t.text, t.line, end_line, allows);
        for (Suppression &s : allows) {
            if (code_lines.count(t.line) == 0) {
                // Stand-alone comment: cover everything up to and
                // including the next line that has code, so wrapped
                // justification text stays legal.
                auto next = code_lines.upper_bound(end_line);
                s.last_line = next != code_lines.end() ? *next
                                                       : end_line + 1;
            }
            view.suppressions.push_back(s);
        }
    }
    return view;
}

// --- Shared token helpers ---------------------------------------------

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == TokKind::kIdent && t.text == text;
}

/**
 * Scan a template argument list starting at the `<` at index `open`.
 * Returns the index one past the closing `>` and reports whether a `*`
 * occurs at top level before the first top-level comma (`key_ptr`) or
 * anywhere at top level (`any_ptr`).
 */
size_t
scanTemplateArgs(const std::vector<Token> &code, size_t open,
                 bool *key_ptr, bool *any_ptr)
{
    int depth = 0;
    bool past_comma = false;
    size_t i = open;
    for (; i < code.size(); ++i) {
        const std::string &t = code[i].text;
        if (t == "<") {
            ++depth;
        } else if (t == ">") {
            if (--depth == 0) {
                ++i;
                break;
            }
        } else if (t == ">>") {
            depth -= 2;
            if (depth <= 0) {
                ++i;
                break;
            }
        } else if (depth == 1 && t == ",") {
            past_comma = true;
        } else if (depth == 1 && t == "*") {
            if (any_ptr != nullptr)
                *any_ptr = true;
            if (!past_comma && key_ptr != nullptr)
                *key_ptr = true;
        }
    }
    return i;
}

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
 * token-index ranges; `*close_out` gets the ')' index.
 */
std::vector<std::pair<size_t, size_t>>
splitTopLevel(const std::vector<Token> &code, size_t open,
              size_t *close_out)
{
    std::vector<std::pair<size_t, size_t>> chunks;
    size_t close = matchForward(code, open, "(", ")");
    if (close_out != nullptr)
        *close_out = close;
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

/** Per-file rule output, merged in input order after the checks. */
struct FileResult
{
    std::vector<Finding> findings;
    std::vector<Finding> suppressed;
};

Suppression *
findSuppression(FileView &view, int line, const std::string &rule_id)
{
    for (Suppression &s : view.suppressions) {
        if (line >= s.first_line && line <= s.last_line &&
            (s.rule == rule_id || s.rule == "*"))
            return &s;
    }
    return nullptr;
}

void
emit(FileResult &out, FileView &view, int line, const char *rule_id,
     std::string message)
{
    Finding f;
    f.file = view.path;
    f.line = line;
    f.rule = rule_id;
    f.message = std::move(message);
    f.hint = rule(rule_id).hint;
    if (Suppression *s = findSuppression(view, line, rule_id)) {
        s->used = true;
        out.suppressed.push_back(std::move(f));
    } else {
        out.findings.push_back(std::move(f));
    }
}

// --- Global program model (cross-TU registries) -----------------------

struct ContainerDecl
{
    std::string name;
    std::string file;
    int line;
};

/** U1 registry: one collected function signature. */
struct Signature
{
    std::string file;
    size_t min_arity = 0; //!< params before the first defaulted one
    std::vector<bool> is_time; //!< SimTime-typed parameter
    std::vector<std::string> unit; //!< unit suffix of the param name
    std::vector<std::string> param_name;
};

/** Facts one file contributes to the global model. */
struct FileFacts
{
    std::vector<ContainerDecl> d1_decls;
    std::vector<std::pair<int, std::string>> d1_decl_findings;
    std::set<std::string> benign_names;
    std::map<std::string, std::vector<Signature>> signatures;
};

struct GlobalModel
{
    std::map<std::string, ContainerDecl> containers_by_name;
    std::set<std::string> benign_names;
    std::map<std::string, std::vector<Signature>> signatures;
};

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

// --- D1: pointer-keyed unordered containers ---------------------------

/** Collect pointer-keyed unordered_{map,set} declarations + findings. */
void
collectPointerKeyedContainers(const FileView &view, FileFacts &facts)
{
    const std::vector<Token> &code = view.code;
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        bool is_map = isIdent(code[i], "unordered_map");
        bool is_set = isIdent(code[i], "unordered_set") ||
                      isIdent(code[i], "unordered_multiset");
        bool is_multimap = isIdent(code[i], "unordered_multimap");
        if (!is_map && !is_set && !is_multimap)
            continue;
        if (code[i + 1].text != "<")
            continue;

        bool key_ptr = false;
        bool any_ptr = false;
        size_t after = scanTemplateArgs(code, i + 1, &key_ptr, &any_ptr);
        bool ptr_key = (is_map || is_multimap) ? key_ptr : any_ptr;
        if (!ptr_key || after >= code.size())
            continue;
        if (code[after].kind != TokKind::kIdent)
            continue; // temporary / return type / cast — no variable name
        if (after + 1 < code.size() && code[after + 1].text == "(")
            continue; // function declaration returning the container

        facts.d1_decls.push_back(
            {code[after].text, view.path, code[after].line});
        facts.d1_decl_findings.push_back(
            {code[i].line,
             "'" + code[after].text +
                 "' is a pointer-keyed unordered container; its "
                 "iteration order is heap-address order and differs "
                 "across runs"});
    }
}

/**
 * Collect names that are *also* declared as a deterministic container
 * somewhere in the set. A name with both a pointer-keyed unordered
 * declaration and a benign one is ambiguous, and iteration in a file
 * other than the unordered declaration's is not flagged — otherwise a
 * `deque<T> states_` in one class would be blamed for an
 * `unordered_map<K*,V> states_` in another.
 */
void
collectBenignContainerNames(const FileView &view,
                            std::set<std::string> &benign)
{
    static const std::set<std::string> kOrderedContainers = {
        "vector", "deque", "list", "forward_list", "array",
        "map", "set", "multimap", "multiset", "span", "RingDeque"};
    const std::vector<Token> &code = view.code;
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != TokKind::kIdent ||
            kOrderedContainers.count(code[i].text) == 0)
            continue;
        if (code[i + 1].text != "<")
            continue;
        size_t after = scanTemplateArgs(code, i + 1, nullptr, nullptr);
        if (after >= code.size() || code[after].kind != TokKind::kIdent)
            continue;
        if (after + 1 < code.size() && code[after + 1].text == "(")
            continue;
        benign.insert(code[after].text);
    }
}

/** Flag iteration over any registered pointer-keyed container name. */
void
checkD1Iteration(FileView &view, const GlobalModel &model,
                 FileResult &out)
{
    auto ambiguous = [&](const ContainerDecl &d, const std::string &name) {
        return d.file != view.path &&
               model.benign_names.count(name) != 0;
    };
    const std::vector<Token> &code = view.code;
    for (size_t i = 0; i < code.size(); ++i) {
        // Range-for: `for (decl : name)` where the range expression is a
        // plain (possibly member-qualified) registered name.
        if (isIdent(code[i], "for") && i + 1 < code.size() &&
            code[i + 1].text == "(") {
            size_t close = matchForward(code, i + 1, "(", ")");
            if (close == std::string::npos)
                continue;
            size_t colon = std::string::npos;
            int depth = 0;
            for (size_t k = i + 1; k < close; ++k) {
                if (code[k].text == "(" || code[k].text == "[")
                    ++depth;
                else if (code[k].text == ")" || code[k].text == "]")
                    --depth;
                else if (depth == 1 && code[k].text == ":" &&
                         k > i + 1 && code[k - 1].text != ":")
                    colon = k;
            }
            if (colon == std::string::npos)
                continue;
            bool has_call = false;
            std::string last_ident;
            for (size_t k = colon + 1; k < close; ++k) {
                if (code[k].text == "(")
                    has_call = true;
                if (code[k].kind == TokKind::kIdent)
                    last_ident = code[k].text;
            }
            auto it = model.containers_by_name.find(last_ident);
            if (!has_call && it != model.containers_by_name.end() &&
                !ambiguous(it->second, last_ident)) {
                emit(out, view, code[i].line, "D1",
                     "range-for over pointer-keyed unordered container '" +
                         last_ident + "' (declared at " + it->second.file +
                         ":" + std::to_string(it->second.line) +
                         ") visits elements in address order");
            }
            continue;
        }
        // Iterator loop: `name.begin()` / `name.cbegin()`.
        if (code[i].kind == TokKind::kIdent && i + 2 < code.size() &&
            code[i + 1].text == "." &&
            (isIdent(code[i + 2], "begin") ||
             isIdent(code[i + 2], "cbegin"))) {
            auto it = model.containers_by_name.find(code[i].text);
            if (it != model.containers_by_name.end() &&
                !ambiguous(it->second, code[i].text)) {
                emit(out, view, code[i].line, "D1",
                     "iterator walk over pointer-keyed unordered "
                     "container '" +
                         code[i].text + "' (declared at " +
                         it->second.file + ":" +
                         std::to_string(it->second.line) +
                         ") visits elements in address order");
            }
        }
    }
}

// --- D2: wall clock and ambient entropy -------------------------------

void
checkD2(FileView &view, FileResult &out)
{
    if (pathIsRngHeader(view.path))
        return;
    const std::vector<Token> &code = view.code;
    static const std::set<std::string> kClockTypes = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "random_device"};
    static const std::set<std::string> kEntropyCalls = {
        "time", "clock", "rand", "srand", "gettimeofday", "timespec_get",
        "getentropy", "clock_gettime"};

    for (size_t i = 0; i < code.size(); ++i) {
        const Token &t = code[i];
        if (t.kind != TokKind::kIdent)
            continue;
        if (kClockTypes.count(t.text) != 0) {
            emit(out, view, t.line, "D2",
                 "'" + t.text +
                     "' reads ambient time/entropy; simulation state "
                     "must come from Simulator::now() or the seeded Rng");
            continue;
        }
        if (kEntropyCalls.count(t.text) != 0 && i + 1 < code.size() &&
            code[i + 1].text == "(") {
            if (i > 0) {
                const std::string &prev = code[i - 1].text;
                if (prev == "." || prev == "->")
                    continue; // member call on some object, not libc
                if (prev == "::" &&
                    !(i >= 2 && isIdent(code[i - 2], "std")))
                    continue; // qualified call into project code
                // A type name (or declarator punctuation) before the
                // identifier makes this a declaration, not a call.
                static const std::set<std::string> kCallContexts = {
                    "return", "co_return", "case", "else", "do"};
                if (code[i - 1].kind == TokKind::kIdent &&
                    kCallContexts.count(prev) == 0 && prev != "std")
                    continue;
                if (prev == "*" || prev == "&" || prev == ">")
                    continue; // `int *time(...)`-style declarator
            }
            emit(out, view, t.line, "D2",
                 "call to '" + t.text +
                     "()' injects wall-clock/entropy into the run");
        }
    }
}

// --- D3: pointer comparisons in comparators ---------------------------

void
checkD3(FileView &view, FileResult &out)
{
    const std::vector<Token> &code = view.code;
    static const std::set<std::string> kCmp = {"<", ">", "<=", ">="};

    for (size_t i = 0; i < code.size(); ++i) {
        // std::less<T *> — ordering functor over raw pointers.
        if (isIdent(code[i], "less") && i + 1 < code.size() &&
            code[i + 1].text == "<") {
            bool any_ptr = false;
            scanTemplateArgs(code, i + 1, nullptr, &any_ptr);
            if (any_ptr) {
                emit(out, view, code[i].line, "D3",
                     "std::less over a pointer type orders by address");
            }
            continue;
        }

        // A parameter list directly followed by `{` — function or
        // lambda body. Collect pointer-typed parameter names, then flag
        // bare `p OP q` comparisons between them inside the body.
        if (code[i].text != "(")
            continue;
        size_t close = matchForward(code, i, "(", ")");
        if (close == std::string::npos || close + 1 >= code.size())
            continue;
        if (code[close + 1].text != "{")
            continue;

        // Split the parameter list on top-level commas; a chunk with a
        // `*` declares a pointer parameter whose name is its last ident.
        std::set<std::string> ptr_params;
        {
            int depth = 0;
            bool has_ptr = false;
            std::string last_ident;
            auto flush = [&] {
                if (has_ptr && !last_ident.empty())
                    ptr_params.insert(last_ident);
                has_ptr = false;
                last_ident.clear();
            };
            for (size_t k = i + 1; k < close; ++k) {
                const std::string &t = code[k].text;
                if (t == "(" || t == "<" || t == "[") {
                    ++depth;
                } else if (t == ")" || t == ">" || t == "]") {
                    --depth;
                } else if (depth == 0 && t == ",") {
                    flush();
                    continue;
                }
                if (depth == 0 && t == "*")
                    has_ptr = true;
                if (depth == 0 && code[k].kind == TokKind::kIdent)
                    last_ident = code[k].text;
            }
            flush();
        }
        if (ptr_params.empty())
            continue;

        size_t body_end = matchForward(code, close + 1, "{", "}");
        if (body_end == std::string::npos)
            continue;
        for (size_t k = close + 2; k + 1 < body_end; ++k) {
            if (kCmp.count(code[k].text) == 0)
                continue;
            const Token &lhs = code[k - 1];
            const Token &rhs = code[k + 1];
            if (lhs.kind != TokKind::kIdent ||
                rhs.kind != TokKind::kIdent)
                continue;
            if (ptr_params.count(lhs.text) == 0 ||
                ptr_params.count(rhs.text) == 0)
                continue;
            // Bare pointers only: not `a->x < b->x` or `f(a) < g(b)`.
            if (k >= 2) {
                const std::string &before = code[k - 2].text;
                if (before == "->" || before == "." || before == "::")
                    continue;
            }
            if (k + 2 < body_end) {
                const std::string &after = code[k + 2].text;
                if (after == "->" || after == "." || after == "::" ||
                    after == "(" || after == "[")
                    continue;
            }
            emit(out, view, code[k].line, "D3",
                 "comparator orders '" + lhs.text + "' and '" + rhs.text +
                     "' by pointer value");
        }
    }
}

// --- P2: default by-reference captures in deferred callbacks ---------

/**
 * Flag a lambda argument of at/after/schedule/defer/post whose capture
 * list holds a bare `&` (default capture by reference).
 */
void
checkP2(FileView &view, FileResult &out)
{
    const std::vector<Token> &code = view.code;
    static const std::set<std::string> kSinks = {"at", "after",
                                                 "schedule", "defer",
                                                 "post"};
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != TokKind::kIdent ||
            kSinks.count(code[i].text) == 0 || code[i + 1].text != "(")
            continue;
        if (i > 0 && code[i - 1].kind == TokKind::kIdent)
            continue; // declaration of a function with a sink name
        for (const auto &[begin, end] : splitTopLevel(code, i + 1, nullptr)) {
            if (begin >= end || code[begin].text != "[")
                continue; // not a lambda argument
            // A default capture must lead the list: `[&]` or `[&, x]`.
            if (code[begin + 1].text != "&" ||
                (code[begin + 2].text != "]" && code[begin + 2].text != ","))
                continue;
            emit(out, view, code[begin + 1].line, "P2",
                 "deferred callback passed to '" + code[i].text +
                     "()' default-captures by reference; the callback "
                     "outlives this frame");
        }
    }
}

// --- U1: unit-safety at call boundaries -------------------------------

/** Collect unit-carrying function signatures from parameter lists. */
void
collectSignatures(const FileView &view, FileFacts &facts)
{
    const std::vector<Token> &code = view.code;
    static const std::set<std::string> kNotFunctions = {
        "if", "for", "while", "switch", "return", "sizeof", "catch",
        "alignof", "decltype", "noexcept", "static_assert", "assert"};
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != TokKind::kIdent ||
            kNotFunctions.count(code[i].text) != 0 ||
            code[i + 1].text != "(")
            continue;
        auto chunks = splitTopLevel(code, i + 1, nullptr);
        if (chunks.empty())
            continue;

        Signature sig;
        sig.file = view.path;
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
        facts.signatures[code[i].text].push_back(std::move(sig));
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
checkU1(FileView &view, const GlobalModel &model, FileResult &out)
{
    const std::vector<Token> &code = view.code;
    static const std::set<std::string> kCallContexts = {
        "return", "co_return", "case", "else", "do"};
    for (size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != TokKind::kIdent ||
            code[i + 1].text != "(")
            continue;
        auto sit = model.signatures.find(code[i].text);
        if (sit == model.signatures.end())
            continue;
        if (i > 0) {
            const std::string &prev = code[i - 1].text;
            if (code[i - 1].kind == TokKind::kIdent &&
                kCallContexts.count(prev) == 0)
                continue; // `EventId after(...)` — a declaration
            if (prev == ">" || prev == "*" || prev == "&")
                continue; // declarator / template return type
        }
        auto chunks = splitTopLevel(code, i + 1, nullptr);
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
                emit(out, view, arg.line, "U1",
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
                    emit(out, view, arg.line, "U1",
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

const std::vector<RuleInfo> &
ruleTable()
{
    return kRules;
}

LintResult
lintFiles(const std::vector<FileInput> &files)
{
    LintResult result;

    // Phase 1: per-file views and facts.
    std::vector<FileView> views(files.size());
    std::vector<FileFacts> facts(files.size());
    for (size_t i = 0; i < files.size(); ++i) {
        views[i] = buildView(files[i]);
        collectPointerKeyedContainers(views[i], facts[i]);
        collectBenignContainerNames(views[i], facts[i].benign_names);
        collectSignatures(views[i], facts[i]);
    }

    // Phase 2: the global program model.
    GlobalModel model;
    for (const FileFacts &f : facts) {
        for (const ContainerDecl &d : f.d1_decls)
            model.containers_by_name.emplace(d.name, d);
        model.benign_names.insert(f.benign_names.begin(),
                                  f.benign_names.end());
        for (const auto &[name, sigs] : f.signatures) {
            auto &dst = model.signatures[name];
            dst.insert(dst.end(), sigs.begin(), sigs.end());
        }
    }

    // Phase 3: per-file rule checks, merged in input order.
    for (size_t i = 0; i < files.size(); ++i) {
        FileView &view = views[i];
        FileResult out;
        for (const auto &[line, message] : facts[i].d1_decl_findings)
            emit(out, view, line, "D1", std::string(message));
        checkD1Iteration(view, model, out);
        checkD2(view, out);
        checkD3(view, out);
        checkP2(view, out);
        checkU1(view, model, out);

        result.findings.insert(result.findings.end(),
                               out.findings.begin(), out.findings.end());
        result.suppressed.insert(result.suppressed.end(),
                                 out.suppressed.begin(),
                                 out.suppressed.end());
        for (const Suppression &s : view.suppressions) {
            if (s.used)
                continue;
            Finding f;
            f.file = view.path;
            f.line = s.comment_line;
            f.rule = s.rule;
            f.message = "suppression allow(" + s.rule +
                        ") matched no finding; the hazard it justified "
                        "is gone";
            f.hint = "delete the stale allow() comment";
            result.unused_suppressions.push_back(std::move(f));
        }
    }
    auto order = [](const Finding &a, const Finding &b) {
        if (a.file != b.file)
            return a.file < b.file;
        if (a.line != b.line)
            return a.line < b.line;
        return a.rule < b.rule;
    };
    std::stable_sort(result.findings.begin(), result.findings.end(),
                     order);
    std::stable_sort(result.suppressed.begin(), result.suppressed.end(),
                     order);
    std::stable_sort(result.unused_suppressions.begin(),
                     result.unused_suppressions.end(), order);
    return result;
}

} // namespace isol_lint
