/**
 * @file
 * Reproduces Fig. 5 (Q3/Q4): bandwidth-fairness scalability with uniform
 * workloads.
 *
 * Panels: (a) Jain fairness + aggregated bandwidth, uniform weights,
 * scaling cgroups 2..8; (b) the same at 16 cgroups (past CPU
 * saturation); (c)+(d) linearly increasing weights, 2..16 cgroups.
 * Four batch-apps per cgroup (enough to saturate the SSD); fairness runs
 * are repeated for a standard deviation, as in the paper.
 *
 * Every (cgroups, knob) grid point is an independent simulation, so the
 * whole panel fans out across the sweep pool (--jobs N / ISOL_JOBS) and
 * the table is printed from the collected slots in grid order.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "common/strings.hh"
#include "isolbench/d2_fairness.hh"
#include "stats/table.hh"

using namespace isol;
using namespace isol::isolbench;

namespace
{

void
runPanel(const char *title, bool weighted,
         const std::vector<uint32_t> &group_counts,
         const FairnessOptions &opts)
{
    bench::banner(title);

    struct GridPoint
    {
        uint32_t cgroups;
        Knob knob;
    };
    std::vector<GridPoint> grid;
    for (uint32_t cgroups : group_counts) {
        for (Knob knob : kAllKnobs)
            grid.push_back({cgroups, knob});
    }

    std::vector<FairnessResult> results = sweep::map<FairnessResult>(
        grid.size(), [&grid, &opts, weighted](size_t i) {
            return runFairness(grid[i].knob, grid[i].cgroups, weighted,
                               FairnessMix::kUniform, opts);
        });

    stats::Table table({"cgroups", "knob", "jain", "jain-stddev",
                        "agg GiB/s"});
    for (const FairnessResult &res : results) {
        table.addRow({strCat(res.cgroups), knobName(res.knob),
                      isol::formatDouble(res.jain_mean, 3),
                      isol::formatDouble(res.jain_std, 3),
                      bench::gibs(res.agg_gibs_mean)});
    }
    std::fputs(table.toAligned().c_str(), stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    FairnessOptions opts;
    bench::parseArgs(argc, argv, &opts.adversary);
    bool quick = bench::quickMode();
    opts.repeats = quick ? 1 : 2;
    opts.duration = quick ? msToNs(800) : msToNs(1200);
    opts.warmup = quick ? msToNs(250) : msToNs(300);

    std::printf("Fig. 5: bandwidth fairness scalability; uniform "
                "workload, 4 batch-apps per cgroup\n");
    if (opts.adversary != workload::AdversaryKind::kNone) {
        std::printf("chaos tenant: cgroup 'adv' runs the %s adversary "
                    "(excluded from fairness stats)\n",
                    workload::adversaryName(opts.adversary));
    }

    std::vector<uint32_t> scaling = quick
        ? std::vector<uint32_t>{2, 8}
        : std::vector<uint32_t>{2, 4, 8};
    runPanel("Fig. 5(a): uniform weights, scaling cgroups",
             false, scaling, opts);
    runPanel("Fig. 5(b): uniform weights, 16 cgroups (past CPU "
             "saturation)", false, {16}, opts);
    runPanel("Fig. 5(c): linearly increasing weights, scaling "
             "cgroups", true, scaling, opts);
    runPanel("Fig. 5(d): linearly increasing weights, 16 "
             "cgroups", true, {16}, opts);
    bench::emitSweepReport();
    return 0;
}
