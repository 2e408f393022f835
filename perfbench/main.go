package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

var workloads = map[string]func(context.Context, *bench) (*outcome, error){
	"classify": runClassify,
	"refresh":  runRefresh,
	"train":    runTrain,
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "classify, refresh or train")
	seed := flag.Int64("seed", 1, "workload seed: every generated row derives from it")
	seconds := flag.Float64("seconds", 30, "run length: each workload's windows are shares of it; the ladder after them sends a fixed number of requests")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	bin := flag.String("server", "", "rcbtserved binary")
	work := flag.String("work", "", "directory for run files (data dirs, logs, spans)")
	root := flag.String("root", ".", "source tree the binaries were built from (hashed into the output)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload classify|refresh|train -seed N -seconds S -trace 0|1 -server BIN -work DIR")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := mainErr(ctx, run, *workload, *seed, *seconds, *trace == 1, *bin, *work, *root)
	stop()
	os.Exit(code)
}

func mainErr(ctx context.Context, run func(context.Context, *bench) (*outcome, error), workload string, seed int64, seconds float64, traced bool, bin, work, root string) int {
	conns := runtime.NumCPU()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n", workload, seed, seconds, traced)
	fmt.Printf("# env nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s\n",
		conns, runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), treeHash(root))

	pass := func(tr *tracer) (*bench, *outcome, error) {
		dir, err := os.MkdirTemp(work, fmt.Sprintf("run-%s-%d-", workload, seed))
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir) // vetsuite:allow uncheckederr -- best-effort cleanup of run files
		b := &bench{bin: bin, dir: dir, seed: seed, seconds: seconds, conns: conns, tr: tr, ops: map[string]*counter{}, speed: startSpeedometer()}
		out, err := run(ctx, b)
		b.speed.stopSampling()
		return b, out, err
	}
	b, out, err := pass(nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	e2e := endToEnd(b, out)
	res := accounting(b)
	report(os.Stdout, b, out, e2e)
	res.Metrics = map[string]metric{}
	for _, name := range gated {
		res.Metrics[name] = e2e[name]
	}

	if traced {
		tb, tout, err := pass(newTracer())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", workload, err)
			return 1
		}
		tres := accounting(tb)
		fmt.Println("# traced pass (same seed; spans, /metrics scrapes and in-process replays on):")
		report(os.Stdout, tb, tout, nil)
		tb.tr.report(os.Stdout)
		te2e := endToEnd(tb, tout)
		fmt.Println("# trace: tracing overhead, traced minus untraced pass")
		for _, name := range sortedNames(e2e) {
			fmt.Printf("#   %-18s %+12.4f %s (untraced %.4f)\n", name, te2e[name].Value-e2e[name].Value, e2e[name].Unit, e2e[name].Value)
		}
		spans := filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
		if err := tb.tr.writeSpans(spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Printf("# trace: %d spans written to %s\n", len(tb.tr.spans), spans)
		res.Correct = res.Correct && tres.Correct
		res.Attempted += tres.Attempted
		res.Failed += tres.Failed
		res.Metrics = map[string]metric{}
		values := tb.tr.metrics(tout)
		for _, m := range perLayerNames {
			v, ok := values[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: per-layer metric %s has no samples\n", m.name)
				return 1
			}
			res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		}
	}

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// accounting totals the run's operations. correct is false when any
// output check failed.
func accounting(b *bench) result {
	res := result{Correct: true}
	for _, c := range b.ops {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	for _, e := range b.errors {
		if strings.Contains(e, " check: ") {
			res.Correct = false
		}
	}
	return res
}

// gated are the end-to-end metrics of the JSON line, the ones
// BENCHMARK.json bounds; the package doc says why the others are
// printed in the report only.
var gated = []string{"setup_s", "classify_cpu_ms", "refresh_cpu_ms", "train_cpu_s", "fail_ratio"}

// endToEnd computes the metrics a user of the service sees.
func endToEnd(b *bench, out *outcome) map[string]metric {
	attempted, failed := 0, 0
	for _, c := range b.ops {
		attempted += c.attempted
		failed += c.failed
	}
	// Gated times are scaled to the reference host speed (see speed.go).
	return map[string]metric{
		"setup_s":          {median(b.scaledAll(out.setup)), "s"},
		"classify_p50_ms":  {median(out.classify), "ms"},
		"classify_p99_ms":  {out.p99, "ms"},
		"classify_max_rps": {out.maxRPS, "1/s"},
		"refresh_p50_ms":   {median(out.refresh), "ms"},
		"train_p50_s":      {median(out.train), "s"},
		"classify_cpu_ms":  {b.scaled(out.classifyCPU), "ms"},
		"refresh_cpu_ms":   {median(b.scaledAll(out.refreshCPU)), "ms"},
		"train_cpu_s":      {median(b.scaledAll(out.trainCPU)), "s"},
		"peak_rss_mb":      {median(out.setupRSS), "MB"},
		"peak_rss_end_mb":  {out.peakRSS, "MB"},
		// Add-one estimate of the failure share: never 0, and a single
		// new failure moves it far beyond any bound.
		"fail_ratio": {float64(failed+1) / float64(attempted+1), "ratio"},
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable run summary: every metric with its
// unit and sample count, the operation accounting, and what qualifies
// the numbers.
func report(w io.Writer, b *bench, out *outcome, e2e map[string]metric) {
	kinds := make([]string, 0, len(b.ops))
	for k := range b.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := b.ops[k]
		fmt.Fprintf(w, "# ops %-9s attempted=%d succeeded=%d failed=%d\n", k, c.attempted, c.succeeded, c.failed)
	}
	for _, e := range b.errors {
		fmt.Fprintf(w, "# failure: %s\n", e)
	}
	late := quantile(out.late, 0.99)
	fmt.Fprintf(w, "# loadgen late_p99_ms=%.3f backlog_max=%d (%d stream sends)\n", late, out.backlogMax, len(out.late))
	if late > ms(behindLate) || out.backlogMax > behindBacklog {
		fmt.Fprintf(w, "# WARNING: the generator fell behind (late_p99 above %v or backlog above %d); classify_* latencies include its own delay\n", behindLate, behindBacklog)
	}
	for i, p := range out.probes {
		if i == 0 {
			fmt.Fprintf(w, "# ladder saturation=%.1f/s (closed loop, n=%d)\n", p.rate, p.n)
			continue
		}
		fmt.Fprintf(w, "# ladder rate=%.1f/s n=%d p99=%.3fms backlog_growth=%.3fms failed=%d backlog_max=%d gave_up=%v pass=%v\n",
			p.rate, p.n, p.p99, p.growth, p.failed, p.backlog, p.gaveUp, p.pass)
	}
	if len(out.singles) > 0 {
		fmt.Fprintf(w, "# classify singles n=%d p50=%.3fms p99=%.3fms\n", len(out.singles), median(out.singles), quantile(out.singles, 0.99))
	}
	if len(out.batches) > 0 {
		fmt.Fprintf(w, "# classify batches n=%d p50=%.3fms p90=%.3fms\n", len(out.batches), median(out.batches), quantile(out.batches, 0.9))
	}
	fmt.Fprintf(w, "# set-up samples: setup_s=%.3f create_to_serving_ms=%.1f train_s=%.3f rss_mb=%.1f\n", unscaled(out.setup), out.setupRefresh, out.setupTrain, out.setupRSS)
	units := b.speed.units()
	fmt.Fprintf(w, "# speed: unit_ms n=%d p10=%.3f p50=%.3f p90=%.3f (reference %v)\n", len(units), quantile(units, 0.1), median(units), quantile(units, 0.9), referenceUnit)
	fmt.Fprintf(w, "# server CPU at reference speed: refresh_ms=%.1f train_s=%.3f\n", b.scaledAll(out.refreshCPU), b.scaledAll(out.trainCPU))
	fmt.Fprintf(w, "# unscaled: setup_s=%.3f refresh_cpu_ms=%.1f train_cpu_s=%.3f classify_cpu_ms=%.4f\n",
		median(unscaled(out.setup)), median(unscaled(out.refreshCPU)), median(unscaled(out.trainCPU)), out.classifyCPU.v)
	if e2e == nil {
		return
	}
	counts := map[string]string{
		"setup_s":          fmt.Sprintf("median of %d set-ups, at reference speed", len(out.setup)),
		"classify_p50_ms":  fmt.Sprintf("n=%d, timed from scheduled send", len(out.classify)),
		"classify_p99_ms":  fmt.Sprintf("median of the p99s of %d parts %.3f, n=%d, timed from scheduled send", len(out.partP99), out.partP99, len(out.classify)),
		"classify_max_rps": fmt.Sprintf("p99 <= %v and backlog growth <= %v, %d ladder steps of %.0f%%", ladderLimit, ladderGrowth, len(out.probes)-1, (ladderStep-1)*100),
		"refresh_p50_ms":   fmt.Sprintf("n=%d, polled every %v", len(out.refresh), pollInterval),
		"train_p50_s":      fmt.Sprintf("n=%d", len(out.train)),
		"classify_cpu_ms":  fmt.Sprintf("server CPU per request, closed loop, n=%d, at reference speed", cpuRequests),
		"refresh_cpu_ms":   fmt.Sprintf("server CPU, rows sent to serving, median of %d, at reference speed", len(out.refreshCPU)),
		"train_cpu_s":      fmt.Sprintf("server CPU, job submit to succeeded, median of %d, at reference speed", len(out.trainCPU)),
		"peak_rss_mb":      fmt.Sprintf("server VmHWM at first model serving, median of %d set-ups", len(out.setupRSS)),
		"peak_rss_end_mb":  "the measured server's VmHWM at the end of the run",
		"fail_ratio":       "(failed+1)/(attempted+1)",
	}
	for _, name := range sortedNames(e2e) {
		note := counts[name]
		if !slices.Contains(gated, name) {
			note += "; report only"
		}
		fmt.Fprintf(w, "# metric %-18s %14.4f %-5s (%s)\n", name, e2e[name].Value, e2e[name].Unit, note)
	}
	if n := len(out.classify) / max(1, len(out.partP99)); !hasTail(n, 0.99) {
		fmt.Fprintf(w, "# WARNING: classify_p99_ms parts hold %d samples, fewer than 10 beyond p99\n", n)
	}
	if hasTail(len(out.refresh), 0.9) {
		fmt.Fprintf(w, "# metric %-18s %14.4f %-5s (n=%d)\n", "refresh_p90_ms", quantile(out.refresh, 0.9), "ms", len(out.refresh))
	} else {
		fmt.Fprintf(w, "# metric refresh_p90_ms dropped: n=%d holds fewer than 10 samples beyond p90\n", len(out.refresh))
	}
}

// scaled is sp at the reference speed.
func (b *bench) scaled(sp cpuSpan) float64 { return sp.v * b.speed.scale(sp.from, sp.to) }

func (b *bench) scaledAll(sps []cpuSpan) []float64 {
	out := make([]float64, len(sps))
	for i, sp := range sps {
		out[i] = b.scaled(sp)
	}
	return out
}

func unscaled(sps []cpuSpan) []float64 {
	out := make([]float64, len(sps))
	for i, sp := range sps {
		out[i] = sp.v
	}
	return out
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash identifies the source the binaries were built from: a
// SHA-256 over the path and content of every Go source and module file
// under root. It stands in for the commit, which a source tree without
// version-control metadata does not carry.
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
