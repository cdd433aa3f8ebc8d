/**
 * @file
 * Hand-rolled C++ lexer for isol-lint.
 *
 * Produces identifiers, numbers, string/char literals and punctuation
 * with line information. Comments and preprocessor directives are
 * consumed without emitting tokens (their text — include paths, macro
 * bodies on one logical line — would only confuse the rule).
 */

#include "lint.hh"

#include <array>
#include <cctype>

namespace isol_lint
{

namespace
{

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Two-character operators recognised as single tokens. `<=`, `>=`,
 * `<<` and `>>` stay merged so comparisons and shifts inside an
 * argument list never look like template angles.
 */
constexpr std::array<const char *, 19> kTwoCharPuncts = {
    "::", "->", "++", "--", "+=", "-=", "*=", "/=", "%=", "==",
    "!=", "<=", ">=", "&&", "||", "<<", ">>", "|=", "&=",
};

} // namespace

std::vector<Token>
tokenize(const std::string &src)
{
    std::vector<Token> out;
    const size_t n = src.size();
    size_t i = 0;
    int line = 1;
    bool at_line_start = true;

    auto peek = [&](size_t ahead) -> char {
        return i + ahead < n ? src[i + ahead] : '\0';
    };

    while (i < n) {
        const char c = src[i];

        if (c == '\n') {
            ++line;
            ++i;
            at_line_start = true;
            continue;
        }
        if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
            ++i;
            continue;
        }

        // Preprocessor directive: consume the logical line (with \-
        // continuations) without emitting tokens.
        if (c == '#' && at_line_start) {
            while (i < n) {
                if (src[i] == '\\' && peek(1) == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                if (src[i] == '\n')
                    break;
                ++i;
            }
            continue;
        }
        at_line_start = false;

        // Line comment.
        if (c == '/' && peek(1) == '/') {
            while (i < n && src[i] != '\n')
                ++i;
            continue;
        }
        // Block comment.
        if (c == '/' && peek(1) == '*') {
            i += 2;
            while (i < n && !(src[i] == '*' && peek(1) == '/')) {
                if (src[i] == '\n')
                    ++line;
                ++i;
            }
            if (i < n)
                i += 2;
            continue;
        }

        // Raw string literal R"delim( ... )delim".
        if (c == 'R' && peek(1) == '"') {
            size_t start = i;
            int start_line = line;
            i += 2;
            std::string delim;
            while (i < n && src[i] != '(')
                delim += src[i++];
            std::string close = ")" + delim + "\"";
            size_t end = src.find(close, i);
            if (end == std::string::npos) {
                i = n;
            } else {
                for (size_t k = i; k < end; ++k) {
                    if (src[k] == '\n')
                        ++line;
                }
                i = end + close.size();
            }
            out.push_back({TokKind::kString, src.substr(start, i - start),
                           start_line});
            continue;
        }

        // String / char literal with escapes.
        if (c == '"' || c == '\'') {
            size_t start = i;
            ++i;
            while (i < n && src[i] != c) {
                if (src[i] == '\\' && i + 1 < n)
                    ++i;
                if (src[i] == '\n')
                    ++line;
                ++i;
            }
            if (i < n)
                ++i;
            out.push_back({c == '"' ? TokKind::kString : TokKind::kChar,
                           src.substr(start, i - start), line});
            continue;
        }

        // Identifier / keyword.
        if (isIdentStart(c)) {
            size_t start = i;
            while (i < n && isIdentChar(src[i]))
                ++i;
            out.push_back({TokKind::kIdent, src.substr(start, i - start),
                           line});
            continue;
        }

        // Number (incl. hex, exponents, digit separators, suffixes).
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
            size_t start = i;
            while (i < n &&
                   (isIdentChar(src[i]) || src[i] == '.' || src[i] == '\'' ||
                    ((src[i] == '+' || src[i] == '-') && i > start &&
                     (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                      src[i - 1] == 'p' || src[i - 1] == 'P'))))
                ++i;
            out.push_back({TokKind::kNumber, src.substr(start, i - start),
                           line});
            continue;
        }

        // Punctuation: prefer a known two-char operator.
        if (i + 1 < n) {
            const std::string two = src.substr(i, 2);
            bool merged = false;
            for (const char *op : kTwoCharPuncts) {
                if (two == op) {
                    out.push_back({TokKind::kPunct, two, line});
                    i += 2;
                    merged = true;
                    break;
                }
            }
            if (merged)
                continue;
        }
        out.push_back({TokKind::kPunct, std::string(1, c), line});
        ++i;
    }
    return out;
}

} // namespace isol_lint
