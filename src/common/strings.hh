/**
 * @file
 * Small string utilities used by the cgroup sysfs-style knob parsers and
 * the report emitters.
 */

#ifndef ISOL_COMMON_STRINGS_HH
#define ISOL_COMMON_STRINGS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace isol
{

/** Split `text` on `sep`, keeping empty fields. */
std::vector<std::string> splitString(std::string_view text, char sep);

/** Split `text` on any run of whitespace, dropping empty fields. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** Strip leading and trailing whitespace. */
std::string trimString(std::string_view text);

/**
 * Parse a non-negative integer, optionally suffixed with k/m/g/t (binary
 * multipliers, case-insensitive), e.g. "64k" -> 65536. Returns nullopt on
 * malformed input. "max" is accepted when `max_value` is provided and maps
 * to it (mirrors cgroup v2 io.max syntax).
 */
std::optional<uint64_t> parseSize(std::string_view text,
                                  std::optional<uint64_t> max_value = {});

/** Parse a plain non-negative base-10 integer. */
std::optional<uint64_t> parseUint(std::string_view text);

/**
 * Parse a plain non-negative base-10 count of `unit_ns`-ns units (e.g.
 * ms: 1000000) as ns. Returns nullopt on malformed input or when the ns
 * do not fit an int64_t (SimTime).
 */
std::optional<int64_t> parseNs(std::string_view text, int64_t unit_ns);

/** Format a double with fixed precision. */
std::string formatDouble(double value, int precision);

} // namespace isol

#endif // ISOL_COMMON_STRINGS_HH
