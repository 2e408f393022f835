// Command perfbench is the repository's end-to-end benchmark. run.sh
// builds it and rcbtserved from the source tree, then runs
//
//	perfbench -workload classify|refresh|train -seed N -seconds S -trace 0|1 \
//	    -server BIN -work DIR
//
// A run starts real rcbtserved processes (shipped defaults plus a
// -data-dir) and drives them over HTTP from this one process, with at
// most nproc connections and nproc goroutines issuing requests. It
// prints a report and, as its last line, one JSON object:
// {"correct","attempted","failed","metrics"}. With -trace 0 the metrics
// are the end-to-end ones. With -trace 1 the run is made twice with the
// same seed, untraced and then traced; the metrics are the per-layer
// ones, and the report adds the tracing overhead (traced minus untraced
// end-to-end). A failed output check makes "correct" false and the exit
// status 1.
//
// # Workloads
//
// classify — the read path alone: decode → discretize → cache → batch
// score → encode. One PC/4 model (102 rows × 3,150 genes) is trained at
// set-up. Requests arrive open-loop at 200/s, timed from their
// scheduled send. Most are single rows of raw expression values (~59 KB
// of JSON each); every 50th is a 64-row batch of item ids. Every other
// row repeats one of 16 hot pool rows and the rest are fresh (a pool row
// with one selected gene moved to the next discretization interval), so
// the prediction cache sees both hits and misses. The write path does
// nothing here, so every write-path change should predict no change on
// this workload. Decoding raw values is ~95% of a request (1 row: 1.9 ms
// p50; 8 rows: 12.6 ms), the hot layer this workload exposes.
//
// refresh — writes beside reads, the only workload running the whole
// write path: fit (~140 ms), transform (~2 ms), snapshot persist
// (~35–55 ms), the 150 ms debounce, the job queue, train (~80 ms, mostly
// FindLB), model save and RegisterModel. A PC/4 dataset gets a four-row
// labelled append every second, slower than a refresh, so each append
// normally gets its own re-train; the server's default auto-refresh
// hot-swaps each model. A raw-values classify stream runs at 200/s
// against the newest dataset's model throughout, so reads pay for
// write-path CPU (with 2 cores, FindAll alone fans out to
// runtime.NumCPU goroutines) and for the cache a swap empties:
// classify_p99_ms here moves with write-path CPU even when no read-path
// code changed. After six appends the workload moves to a fresh dataset
// so mining cost stays bounded as rows grow.
//
// train — mining-dominated jobs. One closed-loop client submits train
// jobs through POST /v1/jobs, one at a time, on an OC/20 dataset (210
// rows × 757 genes) with minsupFrac 0.9 and workers = nproc: ~1.0 M
// nodes, ~2.4 s of mining and <1 ms of FindLB, where in refresh mining
// is ~5% of a train. It gives the engine and its work stealing a
// workload that shows their effect (workers=2 mined OC/30 in 320–414 ms
// against 218–230 ms sequential); fit and FindLB changes should predict
// no change here. After the jobs, raw-values rows are classified at
// 800/s against the OC/20 model. (Classified beside the jobs, their
// p50 spread by 26% between runs with how the Go scheduler interleaved
// them with the mining goroutines.)
//
// Tables are those of the synth profiles at their own fixed seeds, in
// their generated row order (see cohort): training cost varies up to
// ten-fold between synth seeds and two-fold between row orders, which
// would bury any change under the table's luck. The -seed drives the
// classify traffic: which rows are hot, which fresh rows are made and
// in what order.
//
// Each workload's windows are shares of -seconds; at 25 they are 12.5 s
// of classify traffic on classify, 16.7 s of appends and reads on
// refresh, and 10 s of jobs then 4.2 s of reads on train. Then, on the
// workload's model with its other traffic stopped, 4,000 classify
// requests go back to back and a ladder follows.
//
// # Host speed
//
// The benchmark was made on a 2-vCPU guest of a shared host. There the
// same code ran up to twice as slowly when other guests loaded the
// physical cores, in spells from seconds to longer than half an hour:
// over ten seeds the middle half of the wall-clock classify_p50_ms,
// refresh_p50_ms and train_p50_s spread by 0.3–1.0 of their medians,
// and the server's own CPU time per operation doubled between one
// spell and the next. The guest has no hardware counters to count
// instructions with. So a speedometer (speed.go) times a fixed,
// allocation-free unit of standard-library work (parse a row of JSON
// numbers, sort a column, intersect bitsets) on a thread of its own
// every 100 ms through the run, and each gated time is scaled by 2 ms
// over the median unit time within 5 s of the interval it was measured
// in: the time it would take on a host running the unit in 2 ms. With
// 2 ms the scaled medians of a slow spell came within 4–13% of the
// unscaled ones of a quiet spell. Over ten seeds per workload in a slow
// spell, the middle half of the three scaled CPU times spread by
// 0.03–0.08 of their medians, where unscaled they spread by 0.05–0.15;
// setup_s by 0.08–0.14, against 0.13–0.21. The report prints every time
// unscaled too.
//
// # End-to-end metrics
//
// Every metric is printed on every workload, named with its unit. The
// JSON line, which BENCHMARK.json bounds, carries setup_s, the three
// server-CPU metrics and fail_ratio, the first four at the reference
// speed.
//
//   - setup_s: process start → first model serving (data generation,
//     server start, dataset create, initial train). Set-up runs eleven
//     times (five on train, where each mines for ~1.3 s); the median is
//     reported.
//   - classify_cpu_ms: server CPU per classify request over 4,000
//     requests of the workload's mix sent back to back from nproc
//     workers. At a low fixed rate a request's CPU also holds the
//     runtime waking idle threads for it, a share that shrank by a
//     fifth when another process kept the cores busy; back to back it
//     stays small. Server CPU is the sum over its threads of
//     /proc/<pid>/task/<tid>/schedstat: the kernel leaves out of it the
//     time the hypervisor ran other guests and the time a thread waited
//     for a core.
//   - refresh_cpu_ms: server CPU from rows sent to their model serving,
//     median over the run. On refresh, each append's, less the classify
//     stream's CPU per second (taken over the spells between one
//     append's model serving and the next append) times its duration;
//     later appends of a dataset train on more rows and cost more (the
//     sixth ~1.6 times the first). Classify and train append nothing,
//     so their samples are the set-ups' dataset creates (create → train
//     job → serving).
//   - train_cpu_s: server CPU from train job submit to succeeded,
//     median over the run. On train, the client's jobs; on classify and
//     refresh, the set-ups' jobs (refresh's auto-refresh jobs overlap
//     its reads).
//   - fail_ratio: (failed + 1) / (attempted + 1) over every classify,
//     append, refresh-served, train and CPU-read operation, output
//     checks included. The add-one keeps it above zero; one new
//     failure moves it far past its bound.
//
// Report only:
//
//   - classify_p50_ms, classify_p99_ms: classify latency at the
//     workload's fixed rate, timed from the scheduled send, over the
//     window's requests (2,500, 3,333 and 3,333). The p99 is the median
//     of the p99s of the window's consecutive parts of 1,000 requests
//     (ten beyond each p99): the machine's noise comes in spells of
//     seconds, and one spell should not set a run's tail.
//   - classify_max_rps: the highest rate on a 5% ladder at which a step
//     of 1,000 requests keeps its p99 within 100 ms, its send backlog
//     from growing by more than 25 ms between its first and last
//     quarter, and fails nothing. A closed-loop burst measures the
//     saturation rate; the ladder starts at 85% of it and moves as a
//     staircase for four steps.
//   - refresh_p50_ms: rows sent → GET /v1/models first reporting a
//     model of that dataset version, polled every 10 ms, over the
//     operations refresh_cpu_ms uses. refresh_p90_ms needs ten samples
//     beyond it (100 per run), more than a run holds, so the report
//     states it dropped.
//   - train_p50_s: train job submit → succeeded, model registered. On
//     train, the client's jobs; on refresh, the auto-refresh jobs (from
//     their records); on classify, the set-ups' jobs.
//   - peak_rss_mb: the median over the set-up servers of their VmHWM
//     once the model serves, and peak_rss_end_mb, the measured server's
//     VmHWM at the end (full-size PC training is killed at ~7.6 GB
//     inside FindLB, so memory is a user limit). Both follow when the
//     Go collector runs against the allocations: over five seeds the
//     OC/20 set-ups' peaks ran from 43 to 62 MB and their median spread
//     by 0.2, too close to the largest bound a gated metric may have
//     (0.25).
//
// Output checks run after the timed window: every classify label must
// equal the in-process rcbt prediction of a model that may have served
// it (across a swap, any version from the one seen before the send to
// the one seen after the reply); every served model envelope must equal
// a from-scratch rcbt.TrainContext on the same snapshot, apart from
// meta.createdAt. The report counts attempted, succeeded and failed
// operations per kind, and flags a window whose generator fell behind
// (its own send delay above 5 ms at p99, or more than 25 sends overdue)
// instead of passing its delay off as server latency.
//
// # Per-layer metrics (traced run)
//
// Each is timed around the benchmark's own call into a public function,
// replaying the workload's recorded inputs in-process after the window,
// or read from a public endpoint. Each should move the end-to-end
// metric named, on the workload named, and the gated CPU metric of the
// same operation (classify_cpu_ms, refresh_cpu_ms or train_cpu_s):
//
//	metric                              measured at                        moves                     on
//	serve.decode_us_per_row             json decode of recorded bodies     classify_p50, max_rps     classify
//	serve.encode_us_per_req             json encode of the responses       classify_p50, max_rps     classify
//	discretize.rowitems_us_per_row      Discretizer.RowItems               classify_p50              classify
//	serve.cache_hit_ratio, _evictions   /metrics deltas, window to ladder  classify_p50; p99 at swap classify, refresh
//	rcbt.score_us_per_row               BatchScorer.PredictInto            classify_p99 (batches)    classify
//	discretize.fit_ms, fit_allocs       discretize.FitMatrix per snapshot  refresh_p50, setup_s      refresh (not train)
//	discretize.transform_ms             Discretizer.Transform              refresh_p50, setup_s      refresh (not train)
//	datastore.append_ms, persist_ms     Store.Append on an own store       refresh_p50               refresh
//	jobs.debounce_wait_ms, queue, run   GET /v1/jobs record timestamps     refresh_p50, train_p50    refresh, train
//	core.mine_ms, engine.nodes(_per_s)  core.MineContext per class         train_p50                 train (~5% of refresh)
//	engine.nodes_overhead_ratio         nodes at nproc ÷ nodes at 1 worker train_p50                 train
//	lowerbound.findlb_ms, alloc_mb,     lowerbound.FindAll per rank        refresh_p50, peak_rss     refresh (not train)
//	  rules_found
//	cba.select_ms, selected_ratio       cba.CoverageSelect per rank        refresh_p50               refresh
//	rcbt.train_ms, train_alloc_mb       rcbt.TrainContext                  refresh_p50, train_p50    refresh, train
//	rcbt.save_ms, model_kb              Model.Save                         refresh_p50, train_p50    refresh, train
//	serve.register_ms                   Server.RegisterModel in-process    refresh_p50               refresh
//	loadgen.late_p99_ms, backlog_max    the generator itself               validity of classify_*    all
//
// persist_ms is an append minus a fit and transform of the same matrix.
// On classify and train, which append nothing, Store.Append replays the
// set-up's rows as a create of all but the last four and an append of
// those. The traced run keeps its spans (name, start, end, parent, op
// id) in memory, writes them as JSON lines under -work when it ends,
// and prints each layer's self time (a span minus its children) and
// each step's share of the blocking path of every operation kind.
package main
