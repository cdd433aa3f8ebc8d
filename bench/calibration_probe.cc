/**
 * @file
 * Calibration probe: prints the simulator's key operating points next to
 * the paper's measured values so model constants can be tuned. Not a
 * paper figure itself — a development and regression tool.
 *
 * Every probe point is an independent simulation; they all fan out
 * across the sweep pool and the table is printed from the collected
 * slots in a fixed order.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.hh"
#include "isolbench/d1_overhead.hh"
#include "isolbench/scenario.hh"
#include "isolbench/sweep.hh"
#include "stats/table.hh"

using namespace isol;
using namespace isol::isolbench;

int
main(int argc, char **argv)
{
    bench::parseArgs(argc, argv);
    stats::Table table({"metric", "paper", "simulated"});
    D1Options opts;

    // Every probe is an independent simulation returning one double.
    auto lcP99 = [&opts](Knob knob, uint32_t apps) {
        return [&opts, knob, apps] {
            return runLcScaling(knob, apps, opts).p99_us;
        };
    };
    auto lcCpu = [&opts](Knob knob, uint32_t apps) {
        return [&opts, knob, apps] {
            return runLcScaling(knob, apps, opts).cpu_util;
        };
    };
    auto batchGibs = [&opts](Knob knob, uint32_t apps, uint32_t ssds) {
        return [&opts, knob, apps, ssds] {
            return runBatchScaling(knob, apps, ssds, opts).agg_gibs;
        };
    };
    const std::vector<std::function<double()>> probes = {
        lcP99(Knob::kNone, 1),
        lcP99(Knob::kMqDeadline, 1),
        lcP99(Knob::kBfq, 1),
        lcP99(Knob::kNone, 16),
        lcP99(Knob::kIoCost, 16),
        lcCpu(Knob::kNone, 8),
        lcCpu(Knob::kIoCost, 8),
        batchGibs(Knob::kNone, 17, 1),
        batchGibs(Knob::kMqDeadline, 17, 1),
        batchGibs(Knob::kBfq, 17, 1),
        batchGibs(Knob::kNone, 17, 7),
        batchGibs(Knob::kMqDeadline, 17, 7),
        batchGibs(Knob::kBfq, 17, 7),
        batchGibs(Knob::kIoMax, 17, 7),
        batchGibs(Knob::kIoCost, 17, 7),
    };
    const std::vector<double> v = sweep::map<double>(
        probes.size(), [&probes](size_t i) { return probes[i](); });
    const double none1 = v[0], mq1 = v[1], bfq1 = v[2];
    const double none16 = v[3], cost16 = v[4];
    const double none8_cpu = v[5], cost8_cpu = v[6];
    const double bnone1 = v[7], bmq1 = v[8], bbfq1 = v[9];
    const double bnone7 = v[10], bmq7 = v[11], bbfq7 = v[12];
    const double bmax7 = v[13], bcost7 = v[14];

    // --- LC-app latency (Fig. 3) ---
    table.addRow({"LC x1 none P99 (us)", "~90-120", std::to_string(none1)});
    table.addRow({"LC x1 mq-dl P99 delta", "+7.55%",
                  std::to_string((mq1 / none1 - 1) * 100) + "%"});
    table.addRow({"LC x1 bfq P99 delta", "+18.87%",
                  std::to_string((bfq1 / none1 - 1) * 100) + "%"});

    table.addRow({"LC x16 none P99 (us)", "181.2",
                  std::to_string(none16)});
    table.addRow({"LC x16 io.cost P99 (us)", "268.3",
                  std::to_string(cost16)});

    table.addRow({"LC x8 none CPU", "78.22%",
                  std::to_string(none8_cpu * 100) + "%"});
    table.addRow({"LC x8 io.cost CPU", "80.27%",
                  std::to_string(cost8_cpu * 100) + "%"});

    // --- Batch bandwidth (Fig. 4) ---
    table.addRow({"batch x17 1ssd none GiB/s", "2.94",
                  std::to_string(bnone1)});
    table.addRow({"batch x17 1ssd mq-dl GiB/s", "1.81",
                  std::to_string(bmq1)});
    table.addRow({"batch x17 1ssd bfq GiB/s", "0.69",
                  std::to_string(bbfq1)});

    table.addRow({"batch x17 7ssd none GiB/s", "9.87",
                  std::to_string(bnone7)});
    table.addRow({"batch x17 7ssd mq-dl GiB/s", "4.24",
                  std::to_string(bmq7)});
    table.addRow({"batch x17 7ssd bfq GiB/s", "2.14",
                  std::to_string(bbfq7)});
    table.addRow({"batch x17 7ssd io.max GiB/s", "8.94",
                  std::to_string(bmax7)});
    table.addRow({"batch x17 7ssd io.cost GiB/s", "9.32",
                  std::to_string(bcost7)});

    std::fputs(table.toAligned().c_str(), stdout);
    bench::emitSweepReport();
    return 0;
}
