#!/bin/sh
# cli_numeric.sh OUT "FLAGS" COMMAND...
#
# For every numeric FLAG and each malformed value (8abc, 1e3, -1), run
# COMMAND FLAG VALUE and require a usage error that does no work: exit
# status 1, a stderr that names the flag, nothing on stdout, and no
# OUT file (the output COMMAND would otherwise write).
out=$1
flags=$2
shift 2
status=0
for flag in $flags; do
    for bad in 8abc 1e3 -1; do
        rm -f "$out" "$out.stdout" "$out.stderr"
        "$@" "$flag" "$bad" > "$out.stdout" 2> "$out.stderr"
        code=$?
        problem=
        if [ $code -ne 1 ]; then
            problem="exit $code"
        elif ! grep -q -- "$flag" "$out.stderr"; then
            problem="stderr does not name the flag"
        elif [ -s "$out.stdout" ]; then
            problem="wrote to stdout"
        elif [ -e "$out" ]; then
            problem="wrote $out"
        fi
        if [ -n "$problem" ]; then
            echo "FAIL: $flag $bad: $problem" >&2
            cat "$out.stderr" >&2
            status=1
        fi
    done
done
rm -f "$out" "$out.stdout" "$out.stderr"
exit $status
