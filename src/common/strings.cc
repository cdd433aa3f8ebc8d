#include "common/strings.hh"

#include <cctype>
#include <cstdio>

#include "common/types.hh"

namespace isol
{

std::vector<std::string>
splitString(std::string_view text, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (true) {
        size_t pos = text.find(sep, start);
        if (pos == std::string_view::npos) {
            out.emplace_back(text.substr(start));
            break;
        }
        out.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> out;
    size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        if (i > start)
            out.emplace_back(text.substr(start, i - start));
    }
    return out;
}

std::string
trimString(std::string_view text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

std::optional<uint64_t>
parseUint(std::string_view text)
{
    if (text.empty())
        return std::nullopt;
    uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (value > (UINT64_MAX - digit) / 10)
            return std::nullopt; // overflow
        value = value * 10 + digit;
    }
    return value;
}

std::optional<int64_t>
parseNs(std::string_view text, int64_t unit_ns)
{
    auto parsed = parseUint(text);
    if (!parsed || *parsed > static_cast<uint64_t>(INT64_MAX / unit_ns))
        return std::nullopt;
    return static_cast<int64_t>(*parsed) * unit_ns;
}

std::optional<uint64_t>
parseSize(std::string_view text, std::optional<uint64_t> max_value)
{
    std::string t = trimString(text);
    if (t.empty())
        return std::nullopt;
    if (max_value && t == "max")
        return max_value;

    uint64_t mult = 1;
    char last = static_cast<char>(
        std::tolower(static_cast<unsigned char>(t.back())));
    switch (last) {
      case 'k': mult = KiB; break;
      case 'm': mult = MiB; break;
      case 'g': mult = GiB; break;
      case 't': mult = GiB * 1024; break;
      default: break;
    }
    if (mult != 1)
        t.pop_back();

    auto base = parseUint(t);
    if (!base)
        return std::nullopt;
    if (*base > UINT64_MAX / mult)
        return std::nullopt;
    return *base * mult;
}

std::string
formatDouble(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

} // namespace isol
