# Development entry points for the TopkRGS reproduction.

GO ?= go

.PHONY: all build vet analyze analyze-json test race bench perf speedup loadbench refreshbench experiments fuzz serve clean

all: build vet analyze test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis: conventions (bitset aliasing, float
# compares, panic and error hygiene) plus the contract-verification
# layer (allocfree, visitoralias, ctxflow, sentinelwrap, atomicguard).
# See DESIGN.md §7.
analyze:
	$(GO) run ./cmd/vetsuite ./...

# Machine-readable findings (schema vetsuite-findings/2). CI diffs this
# against the checked-in empty baseline; regenerate the baseline with
#   make analyze-json && cp vetsuite-findings.json .vetsuite-baseline.json
# after adding an analyzer (the rule table is part of the output).
analyze-json:
	$(GO) run ./cmd/vetsuite -json ./... > vetsuite-findings.json

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# One Go benchmark per paper table/figure plus ablations (gene-scaled).
bench:
	$(GO) test -bench=. -benchmem ./...

# Perf trajectory: Mine benchmarks with allocation counts, plus the
# miner×workers nodes/sec table archived as BENCH_fig6.json. Compare the
# JSON against the checked-in copy to judge a kernel change.
perf: speedup
	$(GO) test -run '^$$' -bench 'Mine' -benchmem -count=5 ./...
	$(GO) run ./cmd/benchrunner -exp perf -scale 30

# Work-stealing speedup curve: topk wall time across worker counts on
# three sizes of the PC profile, archived as BENCH_speedup.json. The
# k=60 / 70% minsup point saturates the per-row top-k lists, so the
# curve exercises the full streaming-merge + frontier machinery, not a
# trivially pruned tree. The 4-worker wall-clock assertion only binds
# on machines with >= 4 CPUs (it is skipped with a warning elsewhere);
# CI enforces it.
speedup:
	$(GO) run ./cmd/benchrunner -exp speedup -scale 15 -minsups 0.7 -k 60 -assert-speedup 1.0

# Serving read-path trajectory: closed- and open-loop load against an
# in-process server (rule-major batch kernel + prediction cache),
# archived as BENCH_serving.json. The gate fails the run when any
# (mode, batch) cell's p99 latency exceeds 1.5x its archived value —
# compare the JSON against the checked-in copy to judge a read-path
# change, like `make perf` for the mining kernel.
loadbench:
	$(GO) run ./cmd/loadgen -scale 30 -requests 200 -concurrency 4 -qps 200 -gate 1.5

# Streaming ingestion trajectory: per-append wall time of the
# datastore's incremental snapshot refresh vs a from-scratch
# discretize+transform of the same matrix, archived as
# BENCH_refresh.json. Compare the JSON against the checked-in copy to
# judge an ingestion-path change.
refreshbench:
	$(GO) run ./cmd/benchrunner -exp refresh -scale 4 -refresh-chunks 8

# Paper-scale regeneration of every table and figure into results/.
experiments:
	mkdir -p results
	$(GO) run ./cmd/benchrunner -exp table1       > results/table1.txt
	$(GO) run ./cmd/benchrunner -exp table2       > results/table2.txt
	$(GO) run ./cmd/benchrunner -exp defaultclass > results/defaultclass.txt
	$(GO) run ./cmd/benchrunner -exp fig6 -datasets ALL,LC -budget 500000 > results/fig6_all_lc.txt
	$(GO) run ./cmd/benchrunner -exp fig6 -datasets PC -budget 500000 -minsups 0.95,0.9,0.85 > results/fig6_pc.txt
	$(GO) run ./cmd/benchrunner -exp fig6 -datasets OC -budget 500000 -minsups 0.95,0.9 -topkbudget 50000000 > results/fig6_oc.txt
	$(GO) run ./cmd/benchrunner -exp fig6e        > results/fig6e.txt
	$(GO) run ./cmd/benchrunner -exp fig7         > results/fig7.txt
	$(GO) run ./cmd/benchrunner -exp fig8         > results/fig8.txt
	$(GO) run ./cmd/benchrunner -exp minsupsweep  > results/minsupsweep.txt
	$(GO) run ./cmd/benchrunner -exp groupcount   > results/groupcount.txt
	$(GO) run ./cmd/benchrunner -exp topgenes     > results/topgenes.txt
	$(GO) run ./cmd/benchrunner -exp ablation -budget 500000 > results/ablation.txt

# Serve the checked-in model fixture locally. Point real deployments at
# models written by `go run ./cmd/rcbt -train ... -save model.json`.
serve:
	$(GO) run ./cmd/rcbtserved -model fixture=internal/serve/testdata/model.json -addr :8344

# Short fuzzing sessions over the dataset parsers, the bit-set algebra,
# the discretizer and the dataset snapshot decoders.
fuzz:
	$(GO) test -fuzz FuzzReadMatrix -fuzztime 30s ./internal/dataset/
	$(GO) test -fuzz FuzzReadDataset -fuzztime 30s ./internal/dataset/
	$(GO) test -fuzz FuzzSetOps -fuzztime 30s ./internal/bitset/
	$(GO) test -fuzz FuzzFusedOps -fuzztime 30s ./internal/bitset/
	$(GO) test -fuzz FuzzDiscretize -fuzztime 30s ./internal/discretize/
	$(GO) test -fuzz FuzzLoadSnapshot -fuzztime 30s ./internal/datastore/

clean:
	rm -f test_output.txt bench_output.txt
