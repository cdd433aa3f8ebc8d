/**
 * @file
 * isol_lint CLI: scan src/, bench/, and tools/ for determinism (D),
 * capture-safety (P), and unit-safety (U) hazards — see lint.hh.
 *
 * Usage:
 *   isol_lint [--root DIR] [--github] [--verbose] [--list-rules]
 *             [file...]
 *
 * With explicit files, lints exactly those. Otherwise walks
 * <root>/{src,bench,tools} for *.cc / *.hh, skipping the known-bad
 * fixture corpus under tools/isol_lint/fixtures/.
 *
 * Exit status: 0 when clean, 1 on any unsuppressed finding or stale
 * allow() comment, 2 on usage or I/O errors. `--github` switches to
 * GitHub Actions annotation format (`::error file=...`) for CI.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"

namespace fs = std::filesystem;
using isol_lint::Finding;

namespace
{

bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

bool
lintableExtension(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" || ext == ".h" ||
           ext == ".hpp";
}

/** Path relative to root when under it, with forward slashes. */
std::string
displayPath(const fs::path &path, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(path, root, ec);
    fs::path shown = (ec || rel.empty() || *rel.begin() == "..")
                         ? path
                         : rel;
    return shown.generic_string();
}

std::vector<fs::path>
collectFiles(const fs::path &root)
{
    std::vector<fs::path> files;
    for (const char *dir : {"src", "bench", "tools"}) {
        fs::path base = root / dir;
        if (!fs::is_directory(base))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file() ||
                !lintableExtension(entry.path()))
                continue;
            if (entry.path().generic_string().find(
                    "isol_lint/fixtures") != std::string::npos)
                continue;
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

void
printFinding(const Finding &f, bool github, const char *kind)
{
    const bool error = kind == nullptr;
    if (github) {
        std::printf("::%s file=%s,line=%d::[%s] %s\n",
                    error ? "error" : "notice", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
        return;
    }
    std::printf("%s:%d: %s%s[%s] %s\n", f.file.c_str(), f.line,
                error ? "" : kind, error ? "" : " ", f.rule.c_str(),
                f.message.c_str());
    if (error)
        std::printf("    hint: %s\n", f.hint.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = ".";
    bool github = false;
    bool verbose = false;
    std::vector<fs::path> explicit_files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "isol_lint: %s needs a value\n",
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--github") {
            github = true;
        } else if (arg == "--verbose" || arg == "-v") {
            verbose = true;
        } else if (arg == "--root") {
            const char *v = value("--root");
            if (v == nullptr)
                return 2;
            root = v;
        } else if (arg == "--list-rules") {
            for (const isol_lint::RuleInfo &r : isol_lint::ruleTable()) {
                std::printf("%s  %s\n    fix: %s\n", r.id, r.summary,
                            r.hint);
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: isol_lint [--root DIR] [--github] [--verbose] "
                "[--list-rules] [file...]\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "isol_lint: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        } else {
            explicit_files.emplace_back(arg);
        }
    }

    std::vector<fs::path> files =
        explicit_files.empty() ? collectFiles(root) : explicit_files;
    if (files.empty()) {
        std::fprintf(stderr, "isol_lint: no input files under %s\n",
                     root.string().c_str());
        return 2;
    }

    std::vector<isol_lint::FileInput> inputs;
    inputs.reserve(files.size());
    for (const fs::path &path : files) {
        std::string content;
        if (!readFile(path, content)) {
            std::fprintf(stderr, "isol_lint: cannot read %s\n",
                         path.string().c_str());
            return 2;
        }
        inputs.push_back({displayPath(path, root), std::move(content)});
    }
    isol_lint::LintResult result = isol_lint::lintFiles(inputs);

    for (const Finding &f : result.findings)
        printFinding(f, github, nullptr);
    if (verbose) {
        for (const Finding &f : result.suppressed)
            printFinding(f, github, "suppressed");
    }
    for (const Finding &f : result.unused_suppressions)
        printFinding(f, github, "stale-suppression");

    std::fprintf(stderr,
                 "isol_lint: %zu files, %zu findings (%zu suppressed, "
                 "%zu stale suppressions)\n",
                 files.size(), result.findings.size(),
                 result.suppressed.size(),
                 result.unused_suppressions.size());
    bool failed = !result.findings.empty() ||
                  !result.unused_suppressions.empty();
    return failed ? 1 : 0;
}
