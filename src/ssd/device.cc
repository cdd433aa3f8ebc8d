#include "ssd/device.hh"

#include <algorithm>

#include "common/logging.hh"

namespace isol::ssd
{

namespace
{
// Programs kept in flight per die (committed in the FTL but not yet
// programmed); small so GC decisions stay current.
constexpr uint32_t kDieProgramQd = 6;

// Reads served per write-path op when the cache is NOT under pressure:
// controllers favour reads until flush pressure builds.
constexpr uint32_t kReadBurst = 3;

// Write-path ops served per read when the cache IS under pressure: the
// controller must drain the cache, but reads are not fully starved.
constexpr uint32_t kPressureWriteBurst = 4;

// Cache occupancy fraction beyond which the controller enters flush
// mode and the arbitration ratio flips toward the write path.
constexpr double kFlushPressure = 0.75;
} // namespace

SsdDevice::SsdDevice(sim::Simulator &sim, const SsdConfig &cfg,
                     uint64_t seed)
    : sim_(sim), cfg_(cfg), rng_(seed), ftl_(cfg),
      faults_(cfg.faults, cfg.numDies(), cfg.user_capacity,
              seed ^ 0x9e3779b97f4a7c15ULL),
      link_(sim)
{
    const uint32_t dies = cfg_.numDies();
    dies_.resize(dies);
    channels_.reserve(cfg_.channels);
    for (uint32_t i = 0; i < cfg_.channels; ++i)
        channels_.push_back(std::make_unique<FifoServer>(sim_));
    pending_programs_.resize(dies);
    programs_inflight_.assign(dies, 0);
    gc_active_.assign(dies, false);
}

void
SsdDevice::precondition(double fill_fraction, double overwrite_passes)
{
    ftl_.preconditionSequentialFill(fill_fraction);
    if (overwrite_passes > 0.0) {
        uint64_t count = static_cast<uint64_t>(
            overwrite_passes * static_cast<double>(
                                   cfg_.numLogicalPages() * fill_fraction));
        ftl_.preconditionRandomOverwrite(count, rng_);
    }
    ftl_.resetStats();
}

SimTime
SsdDevice::jitter(SimTime base)
{
    double factor = 1.0;
    if (cfg_.latency_jitter > 0.0)
        factor = 1.0 + cfg_.latency_jitter * (2.0 * rng_.uniform() - 1.0);
    // Injected latency-spike windows slow every die operation.
    factor *= faults_.serviceMultiplier(sim_.now());
    if (factor == 1.0)
        return base;
    return static_cast<SimTime>(static_cast<double>(base) * factor);
}

SimTime
SsdDevice::readServiceTime()
{
    SimTime t = jitter(cfg_.read_latency);
    if (cfg_.slow_read_prob > 0.0 && rng_.chance(cfg_.slow_read_prob)) {
        t = static_cast<SimTime>(static_cast<double>(t) *
                                 cfg_.slow_read_factor);
    }
    return t;
}

SimTime
SsdDevice::programTime()
{
    SimTime t = jitter(cfg_.program_latency);
    if (faults_.thermalEnabled()) {
        double mult = faults_.programMultiplier(sim_.now());
        if (mult != 1.0)
            t = static_cast<SimTime>(static_cast<double>(t) * mult);
        faults_.noteProgram(sim_.now(), t);
    }
    return t;
}

SimTime
SsdDevice::transferTime(uint64_t bytes, uint64_t bw) const
{
    if (bw == 0)
        return 0;
    return static_cast<SimTime>(
        static_cast<double>(bytes) / static_cast<double>(bw) * 1e9);
}

FifoServer &
SsdDevice::channelOf(uint32_t die)
{
    return *channels_[die / cfg_.dies_per_channel];
}

// --- Per-die controller scheduling ----------------------------------------

bool
SsdDevice::writePressure() const
{
    if (cfg_.write_cache_pages == 0)
        return false;
    return static_cast<double>(cache_used_) >=
           kFlushPressure * static_cast<double>(cfg_.write_cache_pages);
}

void
SsdDevice::dieRead(uint32_t die, SimTime service, Callback done)
{
    dies_[die].reads.push_back(
        DieQueue::Op{service, std::move(done)});
    pumpDie(die);
}

void
SsdDevice::dieWrite(uint32_t die, SimTime service, Callback done)
{
    dies_[die].write_path.push_back(
        DieQueue::Op{service, std::move(done)});
    pumpDie(die);
}

void
SsdDevice::pumpDie(uint32_t die)
{
    DieQueue &q = dies_[die];
    if (q.busy)
        return;
    bool has_read = !q.reads.empty();
    bool has_write = !q.write_path.empty();
    if (!has_read && !has_write)
        return;

    // Arbitration by duty ratio: kReadBurst reads per write-path op
    // normally; flipped to kPressureWriteBurst write ops per read when
    // the cache needs flushing. Neither side ever fully starves.
    bool pick_write;
    if (!has_write) {
        pick_write = false;
    } else if (!has_read) {
        pick_write = true;
    } else if (writePressure()) {
        pick_write = q.write_credit < kPressureWriteBurst;
    } else {
        pick_write = q.read_credit >= kReadBurst;
    }
    if (pick_write) {
        q.read_credit = 0;
        ++q.write_credit;
    } else {
        ++q.read_credit;
        q.write_credit = 0;
    }

    auto &queue = pick_write ? q.write_path : q.reads;
    DieQueue::Op op = std::move(queue.front());
    queue.pop_front();
    q.busy = true;
    q.busy_ns += op.service;
    ++q.jobs;
    // Parking the completion on the die (instead of capturing it) keeps
    // the event capture at two words — inside the inline buffer.
    q.active_done = std::move(op.done);
    sim_.after(op.service, [this, die] {
        DieQueue &dq = dies_[die];
        dq.busy = false;
        Callback done = std::move(dq.active_done);
        done();
        pumpDie(die);
    });
}

void
SsdDevice::submit(OpType op, uint64_t offset, uint32_t size, Callback done)
{
    if (size == 0)
        fatal("SsdDevice::submit: zero-sized I/O");
    offset %= cfg_.user_capacity;

    if (cfg_.medium == MediumType::kPhaseChange) {
        submitPcm(op, offset, size, std::move(done));
        return;
    }
    if (op == OpType::kRead)
        submitFlashRead(offset, size, std::move(done));
    else
        submitFlashWrite(offset, size, std::move(done));
}

// --- Read pipeline -------------------------------------------------------

void
SsdDevice::submitFlashRead(uint64_t offset, uint32_t size, Callback done)
{
    uint64_t first = offset / cfg_.page_size;
    uint64_t last = (offset + size - 1) / cfg_.page_size;
    // Arena slot; the arena also owns slots whose I/O was cut off by the
    // end of the simulation (their events destroyed unfired).
    ReadState *state = read_states_.acquire();
    state->remaining = static_cast<uint32_t>(last - first + 1);
    state->size = size;
    state->done = std::move(done);

    for (uint64_t lpn = first; lpn <= last; ++lpn) {
        PhysLoc loc = ftl_.lookupRead(lpn);
        uint32_t die = loc.die;
        SimTime service = readServiceTime();
        if (faults_.mediaEnabled()) {
            fault::MediaFaultModel::ReadOutcome out =
                faults_.readOutcome(lpn * cfg_.page_size, die, service);
            service = out.service;
            // The read is serviced from the failing block, then the FTL
            // remaps the survivors and retires the block.
            if (out.remap && ftl_.growBadBlock(lpn))
                ++faults_.mutableStats().remapped_blocks;
        }
        dieRead(die, service, [this, die, state] {
            SimTime xfer = transferTime(cfg_.page_size, cfg_.channel_bw);
            channelOf(die).enqueue(xfer, [this, state] {
                if (--state->remaining == 0)
                    finishRead(state);
            });
        });
    }
}

void
SsdDevice::finishRead(ReadState *state)
{
    // The controller latency is per-request pipeline latency, not link
    // occupancy: completion fires controller_latency after the DMA, but
    // the link is free for the next transfer immediately.
    SimTime xfer = transferTime(state->size, cfg_.link_bw);
    link_.enqueue(xfer, [this, state] {
        sim_.after(cfg_.controller_latency, [this, state] {
            bytes_read_ += state->size;
            ++reads_completed_;
            Callback done = std::move(state->done);
            read_states_.release(state);
            done();
        });
    });
}

// --- Write pipeline ------------------------------------------------------

void
SsdDevice::submitFlashWrite(uint64_t offset, uint32_t size, Callback done)
{
    uint64_t first = offset / cfg_.page_size;
    uint64_t last = (offset + size - 1) / cfg_.page_size;
    // A recycled admit keeps its lpns capacity: zero allocations once
    // the pool and vectors are warm.
    WriteAdmit *admit = write_admits_.acquire();
    admit->lpns.clear();
    admit->lpns.reserve(last - first + 1);
    for (uint64_t lpn = first; lpn <= last; ++lpn)
        admit->lpns.push_back(lpn);
    admit->size = size;
    admit->done = std::move(done);

    SimTime xfer = transferTime(size, cfg_.link_bw);
    link_.enqueue(xfer, [this, admit] {
        sim_.after(cfg_.controller_latency, [this, admit] {
            cache_wait_.push_back(admit);
            tryAdmitWrites();
        });
    });
}

void
SsdDevice::tryAdmitWrites()
{
    while (!cache_wait_.empty()) {
        WriteAdmit *head = cache_wait_.front();
        uint32_t pages = static_cast<uint32_t>(head->lpns.size());
        uint32_t capacity = std::max<uint32_t>(cfg_.write_cache_pages, 1);
        if (cache_used_ + pages > capacity && cache_used_ > 0)
            return; // wait for cache slots (oversized writes admit alone)
        cache_wait_.pop_front();
        admitWrite(head);
    }
}

void
SsdDevice::admitWrite(WriteAdmit *admit)
{
    cache_used_ += static_cast<uint32_t>(admit->lpns.size());
    bytes_written_ += admit->size;
    ++writes_completed_;
    // Host-visible completion: data is in the device write cache. Move
    // the callback out first — it may submit and recycle pool slots.
    Callback done = std::move(admit->done);
    done();

    for (uint64_t lpn : admit->lpns) {
        // The cached copy supersedes flash: free the old page for GC now.
        ftl_.noteOverwrite(lpn);
        uint32_t die = ftl_.takeHostWriteDie();
        pending_programs_[die].push_back(lpn);
        pumpDiePrograms(die);
    }
    write_admits_.release(admit);
}

void
SsdDevice::pumpDiePrograms(uint32_t die)
{
    while (!pending_programs_[die].empty() &&
           programs_inflight_[die] < kDieProgramQd &&
           !ftl_.hostWriteStalled(die)) {
        uint64_t lpn = pending_programs_[die].front();
        pending_programs_[die].pop_front();
        ftl_.commitHostWrite(lpn, die);
        ++programs_inflight_[die];

        SimTime xfer = transferTime(cfg_.page_size, cfg_.channel_bw);
        channelOf(die).enqueue(xfer, [this, die] {
            SimTime prog = programTime();
            dieWrite(die, prog, [this, die] { onProgramDone(die); });
        });
    }
    pumpGc(die);
}

void
SsdDevice::onProgramDone(uint32_t die)
{
    if (programs_inflight_[die] == 0)
        panic("SsdDevice: program in-flight underflow");
    --programs_inflight_[die];
    if (cache_used_ == 0)
        panic("SsdDevice: write cache underflow");
    --cache_used_;
    pumpGc(die);
    pumpDiePrograms(die);
    tryAdmitWrites();
}

// --- Garbage collection --------------------------------------------------

void
SsdDevice::pumpGc(uint32_t die)
{
    if (gc_active_[die])
        return;
    // Always finish a drained victim, even above the threshold; otherwise
    // only work when the free fraction is below the background threshold.
    bool erase_pending = ftl_.victimReadyForErase(die);
    if (!erase_pending && !ftl_.needsGc(die))
        return;

    if (erase_pending) {
        gc_active_[die] = true;
        dieWrite(die, jitter(cfg_.erase_latency), [this, die] {
            ftl_.gcCommitErase(die);
            gc_active_[die] = false;
            pumpGc(die);
            pumpDiePrograms(die);
            tryAdmitWrites();
        });
        return;
    }
    if (ftl_.gcHasMove(die)) {
        gc_active_[die] = true;
        // Die-internal copyback: read + program back-to-back on the die.
        SimTime move = readServiceTime() + programTime();
        dieWrite(die, move, [this, die] {
            ftl_.gcCommitMove(die);
            gc_active_[die] = false;
            pumpGc(die);
        });
        return;
    }
    // A fresh victim was selected but is already fully invalid.
    if (ftl_.victimReadyForErase(die))
        pumpGc(die);
}

// --- Phase-change (Optane-like) path --------------------------------------

void
SsdDevice::submitPcm(OpType op, uint64_t offset, uint32_t size,
                     Callback done)
{
    uint64_t first = offset / cfg_.page_size;
    uint64_t last = (offset + size - 1) / cfg_.page_size;
    ReadState *state = read_states_.acquire();
    state->remaining = static_cast<uint32_t>(last - first + 1);
    state->size = size;
    state->done = std::move(done);
    bool is_read = op == OpType::kRead;

    for (uint64_t lpn = first; lpn <= last; ++lpn) {
        uint32_t die = static_cast<uint32_t>(lpn % cfg_.numDies());
        SimTime service = jitter(is_read ? cfg_.read_latency
                                         : cfg_.program_latency);
        // Phase-change media are symmetric: everything shares one queue.
        dieRead(die, service, [this, state, is_read] {
            if (--state->remaining > 0)
                return;
            SimTime xfer = transferTime(state->size, cfg_.link_bw);
            link_.enqueue(xfer, [this, state, is_read] {
                if (is_read) {
                    bytes_read_ += state->size;
                    ++reads_completed_;
                } else {
                    bytes_written_ += state->size;
                    ++writes_completed_;
                }
                Callback done = std::move(state->done);
                read_states_.release(state);
                done();
            });
        });
    }
}

// --- Statistics ----------------------------------------------------------

SimTime
SsdDevice::totalDieBusyNs() const
{
    SimTime total = 0;
    for (const DieQueue &die : dies_)
        total += die.busy_ns;
    return total;
}

double
SsdDevice::dieUtilization() const
{
    SimTime now = sim_.now();
    if (now <= 0)
        return 0.0;
    return static_cast<double>(totalDieBusyNs()) /
           (static_cast<double>(now) * static_cast<double>(dies_.size()));
}

} // namespace isol::ssd
