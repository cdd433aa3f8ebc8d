#include "ssd/config.hh"

namespace isol::ssd
{

SsdConfig
samsung980ProLike()
{
    SsdConfig cfg;
    cfg.name = "samsung980pro-like";
    cfg.medium = MediumType::kFlash;
    cfg.channels = 8;
    cfg.dies_per_channel = 8;
    cfg.page_size = 4 * KiB;
    cfg.pages_per_block = 256;
    cfg.user_capacity = 8 * GiB;
    // Higher than a retail 980 PRO's ~9% because the simulated geometry
    // has coarse blocks-per-die granularity; the GC *dynamics* (greedy
    // victims, WAF in the 2-3 range under random overwrite) match.
    cfg.overprovision = 0.28;
    cfg.read_latency = usToNs(78);
    cfg.program_latency = usToNs(140);
    cfg.erase_latency = msToNs(3);
    cfg.latency_jitter = 0.10;
    cfg.slow_read_prob = 0.0005;
    cfg.slow_read_factor = 4.0;
    cfg.controller_latency = usToNs(3);
    cfg.channel_bw = 1200 * MiB;
    cfg.link_bw = 3276 * MiB; // ~3.2 GiB/s effective host link
    cfg.write_cache_pages = 1024;
    cfg.gc_bg_threshold = 0.12;
    return cfg;
}

SsdConfig
optaneLike()
{
    SsdConfig cfg;
    cfg.name = "optane-like";
    cfg.medium = MediumType::kPhaseChange;
    cfg.channels = 7;
    cfg.dies_per_channel = 1;
    cfg.page_size = 4 * KiB;
    cfg.pages_per_block = 256; // unused by phase-change media
    cfg.user_capacity = 8 * GiB;
    cfg.overprovision = 0.0;
    cfg.read_latency = usToNs(10);
    cfg.program_latency = usToNs(11);
    cfg.erase_latency = 0; // no erase
    cfg.latency_jitter = 0.05;
    cfg.slow_read_prob = 0.0;
    cfg.slow_read_factor = 1.0;
    cfg.controller_latency = usToNs(2);
    cfg.channel_bw = 2500 * MiB;
    cfg.link_bw = 2560 * MiB; // ~2.5 GiB/s
    cfg.write_cache_pages = 0; // writes are synchronous on Optane
    cfg.gc_bg_threshold = 0.0;
    return cfg;
}

} // namespace isol::ssd
