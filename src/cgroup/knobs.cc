#include "cgroup/knobs.hh"

#include <cmath>
#include <cstdlib>

#include "common/strings.hh"

namespace isol::cgroup
{

namespace
{

/** Split "key=value"; returns false if there is no '='. */
bool
splitKeyValue(const std::string &token, std::string &key, std::string &value)
{
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    key = token.substr(0, eq);
    value = token.substr(eq + 1);
    return true;
}

std::optional<double>
parseDouble(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    // strtod also reads "nan" and "inf", which slip past every range
    // check the callers make.
    if (end == nullptr || *end != '\0' || !std::isfinite(v))
        return std::nullopt;
    return v;
}

} // namespace

std::optional<PrioClass>
parsePrioClass(const std::string &text)
{
    std::string t = trimString(text);
    if (t == "no-change")
        return PrioClass::kNoChange;
    if (t == "promote-to-rt" || t == "rt" || t == "realtime")
        return PrioClass::kPromoteToRt;
    if (t == "restrict-to-be" || t == "be" || t == "best-effort")
        return PrioClass::kRestrictToBe;
    if (t == "idle")
        return PrioClass::kIdle;
    return std::nullopt;
}

const char *
prioClassName(PrioClass cls)
{
    switch (cls) {
      case PrioClass::kNoChange: return "no-change";
      case PrioClass::kPromoteToRt: return "promote-to-rt";
      case PrioClass::kRestrictToBe: return "restrict-to-be";
      case PrioClass::kIdle: return "idle";
    }
    return "?";
}

std::optional<IoMaxLimits>
parseIoMax(const std::string &text, IoMaxLimits base)
{
    IoMaxLimits out = base;
    for (const std::string &token : splitWhitespace(text)) {
        std::string key;
        std::string value;
        if (!splitKeyValue(token, key, value))
            return std::nullopt;
        // "max" maps to 0 == unlimited.
        auto parsed = value == "max" ? std::optional<uint64_t>(0)
                                     : parseSize(value);
        if (!parsed)
            return std::nullopt;
        if (key == "rbps")
            out.rbps = *parsed;
        else if (key == "wbps")
            out.wbps = *parsed;
        else if (key == "riops")
            out.riops = *parsed;
        else if (key == "wiops")
            out.wiops = *parsed;
        else
            return std::nullopt;
    }
    return out;
}

std::optional<IoLatencyConfig>
parseIoLatency(const std::string &text)
{
    IoLatencyConfig out;
    for (const std::string &token : splitWhitespace(text)) {
        std::string key;
        std::string value;
        if (!splitKeyValue(token, key, value))
            return std::nullopt;
        if (key == "target") {
            auto target = parseNs(value, usToNs(1));
            if (!target)
                return std::nullopt;
            out.target = *target;
        } else {
            return std::nullopt;
        }
    }
    return out;
}

std::optional<IoCostModel>
parseIoCostModel(const std::string &text, IoCostModel base)
{
    IoCostModel out = base;
    for (const std::string &token : splitWhitespace(text)) {
        std::string key;
        std::string value;
        if (!splitKeyValue(token, key, value))
            return std::nullopt;
        if (key == "ctrl") {
            if (value == "user")
                out.user = true;
            else if (value == "auto")
                out.user = false;
            else
                return std::nullopt;
            continue;
        }
        if (key == "model") {
            if (value != "linear")
                return std::nullopt; // only the linear model exists
            continue;
        }
        auto parsed = parseSize(value);
        if (!parsed)
            return std::nullopt;
        if (key == "rbps")
            out.rbps = *parsed;
        else if (key == "rseqiops")
            out.rseqiops = *parsed;
        else if (key == "rrandiops")
            out.rrandiops = *parsed;
        else if (key == "wbps")
            out.wbps = *parsed;
        else if (key == "wseqiops")
            out.wseqiops = *parsed;
        else if (key == "wrandiops")
            out.wrandiops = *parsed;
        else
            return std::nullopt;
    }
    return out;
}

std::optional<IoCostQos>
parseIoCostQos(const std::string &text, IoCostQos base)
{
    IoCostQos out = base;
    for (const std::string &token : splitWhitespace(text)) {
        std::string key;
        std::string value;
        if (!splitKeyValue(token, key, value))
            return std::nullopt;
        if (key == "enable") {
            if (value != "0" && value != "1")
                return std::nullopt;
            out.enable = value == "1";
            continue;
        }
        if (key == "ctrl") {
            if (value != "user" && value != "auto")
                return std::nullopt;
            continue;
        }
        if (key == "rlat" || key == "wlat") {
            auto lat = parseNs(value, usToNs(1));
            if (!lat)
                return std::nullopt;
            (key == "rlat" ? out.rlat : out.wlat) = *lat;
            continue;
        }
        auto parsed = parseDouble(value);
        if (!parsed || *parsed < 0.0)
            return std::nullopt;
        if (key == "rpct")
            out.rpct = *parsed;
        else if (key == "wpct")
            out.wpct = *parsed;
        else if (key == "min")
            out.vrate_min = *parsed;
        else if (key == "max")
            out.vrate_max = *parsed;
        else
            return std::nullopt;
    }
    if (out.vrate_min > out.vrate_max)
        return std::nullopt;
    if (out.rpct > 100.0 || out.wpct > 100.0)
        return std::nullopt;
    return out;
}

std::optional<uint32_t>
parseWeight(const std::string &text, uint32_t min_weight,
            uint32_t max_weight)
{
    std::string t = trimString(text);
    // Accept the "default <w>" form used by io.weight.
    if (t.rfind("default ", 0) == 0)
        t = trimString(t.substr(8));
    auto parsed = parseUint(t);
    if (!parsed || *parsed < min_weight || *parsed > max_weight)
        return std::nullopt;
    return static_cast<uint32_t>(*parsed);
}

} // namespace isol::cgroup
