/**
 * @file
 * isolbench — command-line front end to isol-bench-sim.
 *
 * Lets a user compose a scenario without writing C++: pick a knob,
 * declare apps in fio-ish syntax, set cgroup knob values in kernel sysfs
 * syntax, run, and get a per-app report.
 *
 * Usage:
 *   isolbench [options] --app <spec> [--app <spec> ...]
 *
 * Options:
 *   --knob <none|mq-deadline|bfq|io.max|io.latency|io.cost|kyber>
 *   --cores <n>           CPU cores (default 10)
 *   --devices <n>         SSDs, apps round-robin (default 1)
 *   --device <flash|optane>
 *   --duration <ms>       run time (default 2000, at most 3600000)
 *   --warmup <ms>         stats excluded before this (default 300,
 *                         shorter than --duration)
 *   --precondition        steady-state fill before the run
 *   --seed <n>            RNG seed (default 1)
 *   --adversary <queue-flood|gc-storm|square-wave|flush-storm|slow-drain>
 *                         add a misbehaving tenant in cgroup "adv"
 *   --check-invariants    enable the runtime invariant checker
 *   --set <cgroup>:<file>=<value>
 *                         e.g. --set be:io.max="259:0 rbps=104857600"
 *   --csv                 emit CSV instead of an aligned table
 *
 * App spec: name=<s>,class=<lc|batch|be>,cgroup=<s>[,qd=<n>][,bs=<n|Nk>]
 *           [,rw=<read|write|mixed>][,seq][,rate=<bytes/s|Nm|Ng>]
 *           [,start=<ms>][,dur=<ms>][,count=<n>]
 *
 * Examples:
 *   isolbench --knob io.max \
 *     --app name=noisy,class=batch,cgroup=noisy \
 *     --app name=victim,class=lc,cgroup=victim \
 *     --set noisy:io.max="259:0 rbps=536870912"
 *
 *   isolbench --knob io.cost --app class=lc,cgroup=prio \
 *     --app class=be,cgroup=be,count=4 --set prio:io.weight=10000
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "stats/table.hh"

using namespace isol;
using namespace isol::isolbench;

namespace
{

struct AppArg
{
    workload::JobSpec spec;
    std::string cgroup = "apps";
    uint32_t count = 1;
};

struct KnobWrite
{
    std::string cgroup;
    std::string file;
    std::string value;
};

// Longest --duration accepted. Each app keeps one 8-byte bandwidth bin
// per 100 ms of simulated time from t = 0, so an hour costs 288 KB per
// app; a duration near SimTime's limit would not fit in memory.
constexpr SimTime kMaxDuration = secToNs(int64_t{3600});

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "isolbench: %s\n(run with --help for usage)\n",
                 msg.c_str());
    std::exit(2);
}

void
printUsage()
{
    std::puts(
        "isolbench - cgroup I/O-control isolation benchmark (simulated)\n"
        "\n"
        "  isolbench [options] --app <spec> [--app <spec> ...]\n"
        "\n"
        "options:\n"
        "  --knob none|mq-deadline|bfq|io.max|io.latency|io.cost|kyber\n"
        "  --cores N | --devices N | --device flash|optane\n"
        "  --duration MS (at most 3600000, one hour) | --warmup MS\n"
        "  --precondition | --seed N\n"
        "  --adversary queue-flood|gc-storm|square-wave|flush-storm|\n"
        "              slow-drain    (misbehaving tenant in cgroup 'adv')\n"
        "  --check-invariants        (runtime invariant checker)\n"
        "  --set CGROUP:FILE=VALUE   (kernel sysfs syntax)\n"
        "  --csv\n"
        "\n"
        "app spec (comma-separated):\n"
        "  name=S class=lc|batch|be cgroup=S qd=N bs=N|Nk\n"
        "  rw=read|write|mixed seq rate=N|Nm|Ng start=MS dur=MS count=N");
}

std::optional<Knob>
parseKnob(const std::string &text)
{
    if (text == "none")
        return Knob::kNone;
    if (text == "mq-deadline")
        return Knob::kMqDeadline;
    if (text == "bfq")
        return Knob::kBfq;
    if (text == "io.max")
        return Knob::kIoMax;
    if (text == "io.latency")
        return Knob::kIoLatency;
    if (text == "io.cost")
        return Knob::kIoCost;
    if (text == "kyber")
        return Knob::kKyber;
    return std::nullopt;
}

/**
 * Parse one `--app` spec. `class=` picks the preset the other fields
 * override, so it applies first wherever it appears. The duration stays
 * 0 ("until the end of the run") unless `dur=` sets it, so `--duration`
 * counts wherever it sits on the command line.
 */
AppArg
parseApp(const std::string &text)
{
    std::vector<std::pair<std::string, std::string>> fields;
    for (const std::string &field : splitString(text, ',')) {
        size_t eq = field.find('=');
        if (eq == std::string::npos)
            fields.emplace_back(field, "");
        else
            fields.emplace_back(field.substr(0, eq), field.substr(eq + 1));
    }

    AppArg app;
    app.spec = workload::batchApp("app", 0);
    for (const auto &[key, value] : fields) {
        if (key != "class")
            continue;
        if (value == "lc")
            app.spec = workload::lcApp("app", 0);
        else if (value == "batch")
            app.spec = workload::batchApp("app", 0);
        else if (value == "be")
            app.spec = workload::beApp("app", 0);
        else
            usageError("unknown app class '" + value + "'");
    }
    for (const auto &[key, value] : fields) {
        if (key == "name") {
            app.spec.name = value;
        } else if (key == "class") {
            // Applied above, before every other field.
        } else if (key == "cgroup") {
            app.cgroup = value;
        } else if (key == "qd") {
            auto parsed = parseUint(value);
            if (!parsed || *parsed == 0 || *parsed > UINT32_MAX)
                usageError("bad qd '" + value + "'");
            app.spec.iodepth = static_cast<uint32_t>(*parsed);
        } else if (key == "bs") {
            auto parsed = parseSize(value);
            if (!parsed || *parsed == 0 || *parsed > UINT32_MAX)
                usageError("bad bs '" + value + "'");
            app.spec.block_size = static_cast<uint32_t>(*parsed);
        } else if (key == "rw") {
            if (value == "read") {
                app.spec.read_fraction = 1.0;
            } else if (value == "write") {
                app.spec.op = OpType::kWrite;
                app.spec.read_fraction = 0.0;
            } else if (value == "mixed") {
                app.spec.read_fraction = 0.5;
            } else {
                usageError("bad rw '" + value + "'");
            }
        } else if (key == "seq") {
            app.spec.pattern = AccessPattern::kSequential;
        } else if (key == "rate") {
            auto parsed = parseSize(value);
            if (!parsed)
                usageError("bad rate '" + value + "'");
            app.spec.rate_bps = *parsed;
        } else if (key == "start") {
            auto parsed = parseNs(value, msToNs(1));
            if (!parsed)
                usageError("bad start '" + value + "'");
            app.spec.start_time = *parsed;
        } else if (key == "dur") {
            auto parsed = parseNs(value, msToNs(1));
            if (!parsed)
                usageError("bad dur '" + value + "'");
            app.spec.duration = *parsed;
        } else if (key == "count") {
            auto parsed = parseUint(value);
            if (!parsed || *parsed == 0 || *parsed > UINT32_MAX)
                usageError("bad count '" + value + "'");
            app.count = static_cast<uint32_t>(*parsed);
        } else if (!key.empty()) {
            usageError("unknown app field '" + key + "'");
        }
    }
    return app;
}

KnobWrite
parseSet(const std::string &text)
{
    size_t colon = text.find(':');
    size_t eq = text.find('=', colon == std::string::npos ? 0 : colon);
    if (colon == std::string::npos || eq == std::string::npos ||
        eq < colon) {
        usageError("--set expects CGROUP:FILE=VALUE, got '" + text + "'");
    }
    KnobWrite write;
    write.cgroup = text.substr(0, colon);
    write.file = text.substr(colon + 1, eq - colon - 1);
    write.value = text.substr(eq + 1);
    return write;
}

} // namespace

int
main(int argc, char **argv)
{
    ScenarioConfig cfg;
    cfg.name = "cli";
    cfg.duration = secToNs(int64_t{2});
    cfg.warmup = msToNs(300);

    std::vector<AppArg> apps;
    std::vector<KnobWrite> writes;
    bool csv = false;
    workload::AdversaryKind adversary = workload::AdversaryKind::kNone;

    auto next_value = [&](int &i, const char *opt) -> std::string {
        if (i + 1 >= argc)
            usageError(strCat("missing value for ", opt));
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage();
            return 0;
        } else if (arg == "--knob") {
            auto knob = parseKnob(next_value(i, "--knob"));
            if (!knob)
                usageError("unknown knob");
            cfg.knob = *knob;
        } else if (arg == "--cores") {
            auto parsed = parseUint(next_value(i, "--cores"));
            if (!parsed || *parsed == 0)
                usageError("bad --cores");
            cfg.num_cores = static_cast<uint32_t>(*parsed);
        } else if (arg == "--devices") {
            auto parsed = parseUint(next_value(i, "--devices"));
            if (!parsed || *parsed == 0)
                usageError("bad --devices");
            cfg.num_devices = static_cast<uint32_t>(*parsed);
        } else if (arg == "--device") {
            std::string device = next_value(i, "--device");
            if (device == "flash")
                cfg.device = ssd::samsung980ProLike();
            else if (device == "optane")
                cfg.device = ssd::optaneLike();
            else
                usageError("unknown --device (flash|optane)");
        } else if (arg == "--duration") {
            auto parsed = parseNs(next_value(i, "--duration"), msToNs(1));
            if (!parsed || *parsed == 0)
                usageError("bad --duration");
            cfg.duration = *parsed;
        } else if (arg == "--warmup") {
            auto parsed = parseNs(next_value(i, "--warmup"), msToNs(1));
            if (!parsed)
                usageError("bad --warmup");
            cfg.warmup = *parsed;
        } else if (arg == "--precondition") {
            cfg.precondition = true;
        } else if (arg == "--seed") {
            auto parsed = parseUint(next_value(i, "--seed"));
            if (!parsed)
                usageError("bad --seed");
            cfg.seed = *parsed;
        } else if (arg == "--adversary") {
            auto parsed =
                workload::parseAdversary(next_value(i, "--adversary"));
            if (!parsed)
                usageError("unknown --adversary (queue-flood|gc-storm|"
                           "square-wave|flush-storm|slow-drain|none)");
            adversary = *parsed;
        } else if (arg == "--check-invariants") {
            cfg.check_invariants = true;
        } else if (arg == "--app") {
            apps.push_back(parseApp(next_value(i, "--app")));
        } else if (arg == "--set") {
            writes.push_back(parseSet(next_value(i, "--set")));
        } else if (arg == "--csv") {
            csv = true;
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }

    if (cfg.duration > kMaxDuration)
        usageError("--duration exceeds one hour (3600000 ms)");
    if (cfg.warmup >= cfg.duration)
        usageError("--warmup must be shorter than --duration");
    if (apps.empty()) {
        printUsage();
        return 2;
    }

    try {
        struct Placed
        {
            uint32_t index;
            std::string name;
        };
        Scenario scenario(cfg);
        std::vector<Placed> placed;
        uint32_t device_rr = 0;
        for (const AppArg &app : apps) {
            for (uint32_t c = 0; c < app.count; ++c) {
                workload::JobSpec spec = app.spec;
                if (app.count > 1)
                    spec.name = strCat(spec.name, c);
                if (spec.start_time >= cfg.duration) {
                    usageError("app '" + spec.name +
                               "' starts at or after --duration");
                }
                // Compared as a difference: start + dur may not fit.
                if (spec.duration == 0 ||
                    spec.duration > cfg.duration - spec.start_time) {
                    spec.duration = cfg.duration - spec.start_time;
                }
                std::string name = spec.name;
                uint32_t idx = scenario.addApp(
                    std::move(spec), app.cgroup,
                    device_rr++ % cfg.num_devices);
                placed.push_back(Placed{idx, name});
            }
        }
        if (adversary != workload::AdversaryKind::kNone)
            scenario.addAdversary(adversary, "adv");
        for (const KnobWrite &write : writes) {
            scenario.tree().writeFile(scenario.group(write.cgroup),
                                      write.file, write.value);
        }
        scenario.run();

        stats::Table table({"app", "cgroup", "MiB/s", "IOPS",
                            "P50 us", "P99 us", "P99.9 us"});
        for (const Placed &p : placed) {
            const workload::FioJob &job = scenario.app(p.index);
            double secs = nsToSec(scenario.windowNs());
            table.addRow(
                {p.name, scenario.appGroup(p.index).name(),
                 formatDouble(job.windowBandwidth() /
                                  static_cast<double>(MiB), 1),
                 formatDouble(static_cast<double>(job.windowIos()) /
                                  secs, 0),
                 formatDouble(nsToUs(job.latency().percentile(50)), 1),
                 formatDouble(nsToUs(job.latency().percentile(99)), 1),
                 formatDouble(nsToUs(job.latency().percentile(99.9)),
                              1)});
        }
        std::fputs(csv ? table.toCsv().c_str()
                       : table.toAligned().c_str(),
                   stdout);
        std::printf("%saggregate %.2f GiB/s, CPU %.1f%%, knob %s\n",
                    csv ? "# " : "\n", scenario.aggregateGiBs(),
                    scenario.cpuUtilization() * 100.0,
                    knobName(cfg.knob));
    } catch (const FatalError &e) {
        std::fprintf(stderr, "isolbench: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        // Invariant violations from result validation or the runtime
        // checker.
        std::fprintf(stderr, "isolbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
