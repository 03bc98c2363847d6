# The bench_throughput rows that scripts/check.sh --bench-smoke gates at
# 0.7x of the committed baseline, as a --benchmark_filter regex. Sourced
# by check.sh (the gate) and by bench_ab.sh (the same-host A/B of those
# rows), so the two always measure the same rows.
THROUGHPUT_GATE_FILTER='FileReplay|BM_GreedyCover/|IngestCeiling|ExecuteIngest'
