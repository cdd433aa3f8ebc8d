#!/bin/sh
# Argument order must not change an isolbench run. Each case runs one
# scenario with its arguments in two orders and requires identical
# stdout:
#   1. --duration after --app still sets how long that app runs;
#   2. class= is the preset the other app fields override, so a field
#      written before it (bs=) still counts.
# It also requires an app that starts at or after --duration to be a
# usage error (exit 2), whichever of the two comes first.
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

late() {
    status=0
    "$CLI" $1 >/dev/null 2>&1 || status=$?
    if [ "$status" -ne 2 ]; then
        printf 'app past --duration: want exit 2, got %s:\n  %s\n' \
            "$status" "$1" >&2
        exit 1
    fi
}

late "$RUN --app $APP,start=500"
late "--knob none --warmup 100 --app $APP,start=300 --duration 300"
echo "cli order: OK"
