#include "workload/adversary.hh"

#include "common/logging.hh"

namespace isol::workload
{

const char *
adversaryName(AdversaryKind kind)
{
    switch (kind) {
      case AdversaryKind::kNone: return "none";
      case AdversaryKind::kQueueFlood: return "queue-flood";
      case AdversaryKind::kGcStorm: return "gc-storm";
      case AdversaryKind::kSquareWave: return "square-wave";
      case AdversaryKind::kFlushStorm: return "flush-storm";
      case AdversaryKind::kSlowDrain: return "slow-drain";
    }
    return "?";
}

std::optional<AdversaryKind>
parseAdversary(std::string_view name)
{
    if (name == "none")
        return AdversaryKind::kNone;
    for (AdversaryKind kind : kAllAdversaries) {
        if (name == adversaryName(kind))
            return kind;
    }
    return std::nullopt;
}

JobSpec
adversaryApp(AdversaryKind kind, const std::string &name, SimTime duration)
{
    JobSpec spec;
    spec.name = name;
    spec.duration = duration;
    switch (kind) {
      case AdversaryKind::kNone:
        fatal("adversaryApp: kNone is not an adversary");
        break;
      case AdversaryKind::kQueueFlood:
        spec.pattern = AccessPattern::kRandom;
        spec.block_size = 4 * KiB;
        spec.iodepth = 512;
        spec.qd_ramp_start = 4;
        spec.qd_ramp_interval = msToNs(25);
        break;
      case AdversaryKind::kGcStorm:
        spec.op = OpType::kWrite;
        spec.read_fraction = 0.0;
        spec.pattern = AccessPattern::kRandom;
        spec.block_size = 16 * KiB;
        spec.iodepth = 128;
        break;
      case AdversaryKind::kSquareWave:
        spec.pattern = AccessPattern::kRandom;
        spec.block_size = 4 * KiB;
        spec.iodepth = 256;
        spec.burst_on = msToNs(25);
        spec.burst_off = msToNs(25);
        break;
      case AdversaryKind::kFlushStorm:
        spec.op = OpType::kWrite;
        spec.read_fraction = 0.0;
        spec.pattern = AccessPattern::kRandom;
        spec.block_size = 4 * KiB;
        spec.iodepth = 32;
        spec.fsync_every = 8;
        break;
      case AdversaryKind::kSlowDrain:
        spec.pattern = AccessPattern::kRandom;
        spec.block_size = 4 * KiB;
        spec.iodepth = 256;
        spec.reap_stall = usToNs(50);
        break;
    }
    return spec;
}

} // namespace isol::workload
