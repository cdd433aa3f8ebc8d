#include "blk/mq_deadline.hh"

namespace isol::blk
{

namespace
{
// Age past which a queued write is served ahead of reads (iosched
// write_expire, kernel default 5 s). read_expire is not modelled: each
// direction is one FIFO, so an expired read is next in line anyway.
constexpr SimTime kWriteExpire = secToNs(int64_t{5});
} // namespace

MqDeadline::MqDeadline(sim::Simulator &sim, MqDeadlineParams params)
    : sim_(sim), params_(params)
{
}

MqDeadline::Level
MqDeadline::levelOf(const Request &req)
{
    switch (req.prio) {
      case cgroup::PrioClass::kPromoteToRt:
        return kRt;
      case cgroup::PrioClass::kIdle:
        return kIdle;
      case cgroup::PrioClass::kNoChange:
      case cgroup::PrioClass::kRestrictToBe:
        return kBe;
    }
    return kBe;
}

void
MqDeadline::insert(Request *req)
{
    ClassQueues &cls = classes_[levelOf(*req)];
    DirQueue &dir = req->op == OpType::kRead ? cls.read : cls.write;
    dir.fifo.push_back(Pending{req, sim_.now()});
    ++queued_;
}

SimTime
MqDeadline::oldestAge(const ClassQueues &cls) const
{
    SimTime oldest = -1;
    if (!cls.read.fifo.empty())
        oldest = sim_.now() - cls.read.fifo.front().arrival;
    if (!cls.write.fifo.empty()) {
        SimTime age = sim_.now() - cls.write.fifo.front().arrival;
        if (age > oldest)
            oldest = age;
    }
    return oldest;
}

Request *
MqDeadline::popDir(ClassQueues &cls, OpType dir)
{
    DirQueue &q = dir == OpType::kRead ? cls.read : cls.write;
    if (q.fifo.empty())
        return nullptr;
    Request *req = q.fifo.front().req;
    q.fifo.pop_front();
    --queued_;
    return req;
}

Request *
MqDeadline::popFrom(ClassQueues &cls)
{
    bool has_read = !cls.read.fifo.empty();
    bool has_write = !cls.write.fifo.empty();
    if (!has_read && !has_write)
        return nullptr;

    // Continue the current batch if it still has credit and requests.
    if (cls.batch_left > 0) {
        Request *req = popDir(cls, cls.batch_dir);
        if (req) {
            --cls.batch_left;
            return req;
        }
    }

    // Pick a direction: reads preferred, writes served when starved or
    // when a write deadline has expired.
    OpType dir = OpType::kRead;
    if (!has_read) {
        dir = OpType::kWrite;
    } else if (has_write) {
        bool write_expired =
            sim_.now() - cls.write.fifo.front().arrival > kWriteExpire;
        if (write_expired || cls.starved >= params_.writes_starved) {
            dir = OpType::kWrite;
        }
    }
    if (dir == OpType::kWrite)
        cls.starved = 0;
    else if (has_write)
        ++cls.starved;

    cls.batch_dir = dir;
    cls.batch_left = params_.fifo_batch - 1;
    return popDir(cls, dir);
}

Request *
MqDeadline::selectNext()
{
    // Aging: serve a starving lower class before higher classes.
    for (int level = kNumLevels - 1; level > 0; --level) {
        ClassQueues &cls = classes_[level];
        SimTime age = oldestAge(cls);
        if (age >= 0 && age > params_.prio_aging_expire) {
            Request *req = popFrom(cls);
            if (req) {
                ++cls.inflight;
                return req;
            }
        }
    }
    // A lower class may only dispatch when every higher class is fully
    // drained (nothing queued, nothing in flight).
    for (auto &cls : classes_) {
        Request *req = popFrom(cls);
        if (req) {
            ++cls.inflight;
            return req;
        }
        if (cls.inflight > 0)
            return nullptr; // block lower classes
    }
    return nullptr;
}

void
MqDeadline::onComplete(Request *req)
{
    ClassQueues &cls = classes_[levelOf(*req)];
    if (cls.inflight == 0)
        return; // request predates a scheduler switch
    --cls.inflight;
    // Lower classes may have been blocked on this class's in-flight I/O.
    kick();
}

bool
MqDeadline::empty() const
{
    return queued_ == 0;
}

size_t
MqDeadline::queued() const
{
    return queued_;
}

} // namespace isol::blk
