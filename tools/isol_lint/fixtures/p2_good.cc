// isol-lint fixture: P2 known-good — deferred callbacks capture by
// value (or [this] for the owning component), so nothing dangles when
// the callback runs after the frame is gone.
#include <functional>

struct Sched
{
    void after(long long delay, std::function<void()> cb);
};

struct Worker
{
    Sched sched;
    int completions = 0;

    void
    arm(int token)
    {
        long long wait_ns = 0;
        sched.after(wait_ns, [this, token] { completions += token; });
    }
};
