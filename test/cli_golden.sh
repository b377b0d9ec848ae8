#!/bin/sh
# Fixed-seed runs of the stoke CLI whose stdout and exit codes are
# pinned by cli_golden.expected (each run takes well under a second;
# stderr, which carries the error messages, is not pinned).
# Usage: sh cli_golden.sh PATH/TO/stoke_cli.exe
# Left out on purpose: `encode` (its output depends on the host's
# native-execution support) and `--metrics` (it prints timings).
stoke=$1

run () {
  echo "\$ stoke $*"
  "$stoke" "$@" 2>/dev/null
  echo "[exit $?]"
}

run list
run show exp
run optimize add --eta 0 --proposals 3000 --seed 3
run optimize add --eta 0 --proposals 3000 --seed 3 --domains 2
run refine add --eta 1e6 --proposals 3000 --seed 3
run validate delta --eta 1e6 --proposals 20000
run validate delta --eta 1e6 --proposals 20000 --chains 4
run frontier add --etas 1,1e6,1e12 --proposals 3000 --seed 3
run frontier add --proposals 3000 --seed 3 --cold --no-validate
run verify dot --bb-timeout 0
run verify delta --bb-timeout 0
run verify sin --fpcore
run verify delta --fpcore
run lint exp
# rejected before any work: usage errors exit 124, run-time errors 1
run show nosuch
run optimize add --eta=-1
run optimize add --proposals=-5
run frontier add --etas=1,,2
run frontier add --warm-frac 2
