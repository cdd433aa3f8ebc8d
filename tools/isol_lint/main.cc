/**
 * @file
 * isol_lint CLI: scan src/, bench/, and tools/ for unit-safety (U1)
 * hazards — see lint.hh.
 *
 * Usage:
 *   isol_lint [--root DIR] [--github] [file...]
 *
 * With explicit files, lints exactly those. Otherwise walks
 * <root>/{src,bench,tools} for *.cc / *.hh, skipping the known-bad
 * fixture corpus under tools/isol_lint/fixtures/.
 *
 * Exit status: 0 when clean, 1 on any finding, 2 on usage or I/O
 * errors. `--github` switches to GitHub Actions annotation format
 * (`::error file=...`) for CI.
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
printFinding(const Finding &f, bool github)
{
    if (github) {
        std::printf("::error file=%s,line=%d::[%s] %s\n", f.file.c_str(),
                    f.line, f.rule.c_str(), f.message.c_str());
        return;
    }
    std::printf("%s:%d: [%s] %s\n    hint: %s\n", f.file.c_str(), f.line,
                f.rule.c_str(), f.message.c_str(), f.hint.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = ".";
    bool github = false;
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
        } else if (arg == "--root") {
            const char *v = value("--root");
            if (v == nullptr)
                return 2;
            root = v;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: isol_lint [--root DIR] [--github] "
                        "[file...]\n");
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
    std::vector<Finding> findings = isol_lint::lintFiles(inputs);
    for (const Finding &f : findings)
        printFinding(f, github);
    std::fprintf(stderr, "isol_lint: %zu files, %zu findings\n",
                 files.size(), findings.size());
    return findings.empty() ? 0 : 1;
}
