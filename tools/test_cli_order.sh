#!/bin/sh
# Argument order must not change an isolbench run. Each case runs one
# scenario with its arguments in two orders and requires identical
# stdout:
#   1. --duration after --app still sets how long that app runs;
#   2. class= is the preset the other app fields override, so a field
#      written before it (bs=) still counts.
# It also requires an app that starts at or after --duration to be a
# usage error (exit 2), whichever of the two comes first, and so are a
# --warmup not shorter than --duration, a --duration over its one-hour
# ceiling, a time in ms whose ns do not fit SimTime (--duration,
# --warmup, start=, dur=), and a qd=, bs= or count= over 32 bits (a
# narrowing would wrap it to a small or zero value). The over-long
# duration runs under a 1 GiB address-space limit where the binary can
# start under one, so a run that tries to allocate for it fails fast
# instead of eating memory. --jobs is not an option: the CLI runs one
# scenario, which no worker pool can split.
#
# Usage: tools/test_cli_order.sh path/to/isolbench
set -eu

CLI="$1"
APP=name=a,class=batch,cgroup=a

same() {
    first=$("$CLI" $1)
    second=$("$CLI" $2)
    if [ "$first" != "$second" ]; then
        printf 'order changed the result:\n  %s\n%s\n  %s\n%s\n' \
            "$1" "$first" "$2" "$second" >&2
        exit 1
    fi
}

same "--knob none --duration 2200 --warmup 100 --app $APP" \
     "--knob none --app $APP --duration 2200 --warmup 100"
RUN="--knob none --duration 300 --warmup 100"
same "$RUN --app $APP,bs=128k" \
     "$RUN --app name=a,bs=128k,class=batch,cgroup=a"

usage() {
    status=0
    "$CLI" $1 >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        printf 'want usage error (exit 2), got %s:\n  %s\n' \
            "$status" "$1" >&2
        exit 1
    fi
}

usage "$RUN --app $APP,start=500"
usage "--knob none --warmup 100 --app $APP,start=300 --duration 300"
usage "--knob none --duration 18446744073709551615 --app $APP"
usage "--knob none --duration 300 --warmup 18446744073709551 --app $APP"
usage "$RUN --app $APP,start=18446744073709551"
usage "$RUN --app $APP,dur=18446744073709551"
usage "--knob none --duration 300 --warmup 300 --app $APP"
usage "--knob none --warmup 301 --app $APP --duration 300"
usage "--knob none --duration 3600001 --app $APP"
usage "$RUN --app name=a,class=lc,cgroup=a,bs=4294971392"
usage "$RUN --app $APP,bs=8589934592"
usage "$RUN --app $APP,qd=4294967297"
usage "$RUN --app $APP,count=4294967296"
usage "$RUN --jobs 2 --app $APP"
HUGE="--knob none --duration 9223372036854 \
--app name=a,class=lc,start=9223372036853"
# An ASan build cannot start under the limit (its shadow memory needs
# terabytes of address space), so it runs the case without one.
if (ulimit -v 1048576 && "$CLI" --help) >/dev/null 2>&1; then
    (ulimit -v 1048576 && usage "$HUGE")
else
    usage "$HUGE"
fi
echo "cli order: OK"
