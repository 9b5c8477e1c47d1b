#!/usr/bin/env bash
# One command for the benchmark ledger: builds the standalone crate in
# this directory (release, offline) and runs it.  `run.sh --help` lists
# the modes; the driver calls
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export ASR_LEDGER_HOME="$here"
exec cargo run --quiet --release --offline --manifest-path "$here/Cargo.toml" -- "$@"
