#include "isolbench/validate.hh"

#include <cmath>

#include "common/logging.hh"
#include "isolbench/scenario.hh"

namespace isol::isolbench::validate
{

void
checkConservation(std::vector<Issue> &issues, const std::string &who,
                  uint64_t submitted, uint64_t completed, uint64_t failed,
                  uint64_t max_outstanding)
{
    if (completed > submitted) {
        issues.push_back(
            {"io-conservation",
             strCat(who, ": completed ", completed, " > submitted ",
                    submitted)});
        return;
    }
    if (failed > completed) {
        issues.push_back({"io-conservation",
                          strCat(who, ": failed ", failed,
                                 " > completed ", completed)});
        return;
    }
    uint64_t outstanding = submitted - completed;
    if (outstanding > max_outstanding) {
        issues.push_back(
            {"io-conservation",
             strCat(who, ": ", outstanding,
                    " requests neither completed nor failed (max "
                    "outstanding ", max_outstanding, ")")});
    }
}

void
checkThroughput(std::vector<Issue> &issues, const std::string &who,
                double gibs)
{
    if (!std::isfinite(gibs) || gibs < 0.0) {
        issues.push_back({"throughput",
                          strCat(who, ": bandwidth ", gibs,
                                 " GiB/s is negative or non-finite")});
    }
}

void
checkPercentiles(std::vector<Issue> &issues, const std::string &who,
                 int64_t p50, int64_t p95, int64_t p99)
{
    if (p50 < 0 || p95 < 0 || p99 < 0) {
        issues.push_back({"latency-percentiles",
                          strCat(who, ": negative percentile (p50=", p50,
                                 " p95=", p95, " p99=", p99, ")")});
        return;
    }
    if (p50 > p95 || p95 > p99) {
        issues.push_back(
            {"latency-percentiles",
             strCat(who, ": percentiles not monotone (p50=", p50,
                    " p95=", p95, " p99=", p99, ")")});
    }
}

void
checkRatio(std::vector<Issue> &issues, const std::string &who,
           double value)
{
    if (!std::isfinite(value) || value < 0.0 || value > 1.0) {
        issues.push_back({"ratio",
                          strCat(who, ": ", value,
                                 " outside [0, 1] or non-finite")});
    }
}

std::vector<Issue>
checkScenario(Scenario &scenario)
{
    std::vector<Issue> issues;

    // Apps can still hold in-flight I/O when simulated time expires, so
    // conservation is bounded by the total queue depth, not zero.
    uint64_t total_iodepth = 0;
    for (uint32_t i = 0; i < scenario.numApps(); ++i)
        total_iodepth += scenario.app(i).spec().iodepth;

    for (uint32_t d = 0; d < scenario.numDevices(); ++d) {
        blk::BlockDevice &bdev = scenario.device(d);
        checkConservation(issues, strCat("nvme", d), bdev.submitted(),
                          bdev.completed(),
                          bdev.faultStats().failed_ios, total_iodepth);
    }

    checkThroughput(issues, "aggregate", scenario.aggregateGiBs());
    checkRatio(issues, "cpu-utilization", scenario.cpuUtilization());

    for (uint32_t i = 0; i < scenario.numApps(); ++i) {
        workload::FioJob &job = scenario.app(i);
        const std::string &name = job.spec().name;
        checkThroughput(issues, name, scenario.appGiBs(i));
        if (job.windowIos() > 0) {
            const stats::Histogram &lat = job.latency();
            checkPercentiles(issues, name, lat.percentile(50),
                             lat.percentile(95), lat.percentile(99));
        }
        if (job.windowIos() > job.totalIos()) {
            issues.push_back(
                {"io-conservation",
                 strCat(name, ": window I/Os ", job.windowIos(),
                        " > total I/Os ", job.totalIos())});
        }
    }
    return issues;
}

void
enforce(const std::vector<Issue> &issues, const std::string &context)
{
    if (issues.empty())
        return;
    std::string msg = strCat("result validation failed for ", context,
                             " (", issues.size(), " issues):");
    for (const Issue &issue : issues)
        msg += strCat(" [", issue.check, "] ", issue.detail, ";");
    if (msg.back() == ';')
        msg.pop_back();
    throw InvariantViolation(msg);
}

} // namespace isol::isolbench::validate
