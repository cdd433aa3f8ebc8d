/**
 * @file
 * SSD device configuration: geometry, flash timings, host link, garbage
 * collection thresholds — plus the two presets used by the paper's
 * evaluation (a Samsung 980 PRO-like flash SSD and an Intel Optane-like
 * low-latency SSD).
 */

#ifndef ISOL_SSD_CONFIG_HH
#define ISOL_SSD_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "fault/fault.hh"

namespace isol::ssd
{

/** Storage medium family; Optane-style media skip the FTL/GC machinery. */
enum class MediumType : uint8_t { kFlash, kPhaseChange };

/**
 * Full device model configuration.
 *
 * The default values are meaningless; use the presets below or build your
 * own. All capacities are in bytes and all times in simulated ns.
 */
struct SsdConfig
{
    std::string name = "ssd";
    MediumType medium = MediumType::kFlash;

    // --- Geometry ---
    uint32_t channels = 8; //!< flash channels
    uint32_t dies_per_channel = 8; //!< dies per channel
    uint64_t page_size = 4 * KiB; //!< FTL mapping / page granularity
    uint32_t pages_per_block = 256; //!< pages per erase block
    uint64_t user_capacity = 8 * GiB; //!< LBA space exposed to the host
    double overprovision = 0.125; //!< extra physical space fraction

    // --- Flash timings ---
    SimTime read_latency = usToNs(78); //!< tR, die busy per page read
    SimTime program_latency = usToNs(140); //!< tProg per page program
    SimTime erase_latency = msToNs(3); //!< tErase per block erase
    double latency_jitter = 0.10; //!< +- uniform jitter fraction
    double slow_read_prob = 0.0005; //!< read-retry probability
    double slow_read_factor = 4.0; //!< retry multiplier on tR

    // --- Controller / transfer ---
    SimTime controller_latency = usToNs(3); //!< fixed per-request overhead
    uint64_t channel_bw = 1200 * MiB; //!< per-channel transfer, bytes/s
    uint64_t link_bw = static_cast<uint64_t>(3.2 * 1024) * MiB;
        //!< host link (PCIe/controller), bytes/s — caps total bandwidth

    // --- Write cache ---
    uint32_t write_cache_pages = 1024; //!< buffered pages before backpressure

    // --- Garbage collection ---
    double gc_bg_threshold = 0.12; //!< start GC when free frac below this
    double gc_fg_threshold = 0.04; //!< stall host writes below this

    // --- Fault injection (strictly opt-in; disabled by default) ---
    fault::DeviceFaultConfig faults;

    /** Total dies in the device. */
    uint32_t numDies() const { return channels * dies_per_channel; }

    /** Logical pages in the user-visible LBA space. */
    uint64_t numLogicalPages() const { return user_capacity / page_size; }

    /** Physical blocks per die. */
    uint32_t
    blocksPerDie() const
    {
        double phys = static_cast<double>(user_capacity) *
                      (1.0 + overprovision);
        double per_die = phys / numDies();
        return static_cast<uint32_t>(
            per_die / static_cast<double>(page_size * pages_per_block));
    }
};

/**
 * Flash SSD preset calibrated against the paper's measured shape for the
 * Samsung 980 PRO (≈2.9 GiB/s 4 KiB random-read saturation through the
 * evaluated host stack, ≈80 µs QD1 read latency, strongly asymmetric
 * writes, GC under sustained writes).
 */
SsdConfig samsung980ProLike();

/**
 * Intel Optane-like preset: flat low latency, no GC, symmetric read/write,
 * lower total bandwidth — a different performance model, used by the paper
 * to confirm generalisability.
 */
SsdConfig optaneLike();

} // namespace isol::ssd

#endif // ISOL_SSD_CONFIG_HH
