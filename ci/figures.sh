#!/bin/sh
# Prints the paper outputs that are deterministic (every figure and table
# except `ablation`, which prints build times) at XTWIG_SCALE=0.05,
# XTWIG_QUERIES=40. CI diffs the result against ci/figures-0.05.txt, so an
# optimization that changes any estimate, truth or synopsis byte shows up
# as a diff. Regenerate the file only for a change that means to move
# the figures:
#
#     sh ci/figures.sh > ci/figures-0.05.txt
set -eu
export XTWIG_SCALE=0.05 XTWIG_QUERIES=40
for bin in fig4 fig9a fig9b fig9c table1 table2 baselines singlepath negative; do
    echo "== $bin"
    cargo run -q --release --offline -p xtwig-bench --bin "$bin"
done
