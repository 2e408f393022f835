package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/engine"
)

// SpeedupCurvePoint is one (dataset size, workers) cell of the speedup
// experiment: topk wall time across worker counts on synth datasets of
// increasing size, with the node-overexploration ratio recorded so the
// perf trajectory pins both wall-clock scaling and search efficiency.
type SpeedupCurvePoint struct {
	Dataset            string  `json:"dataset"`
	Rows               int     `json:"rows"`
	Items              int     `json:"items"`
	Workers            int     `json:"workers"`
	Minsup             float64 `json:"minsup"`
	K                  int     `json:"k"`
	NsPerOp            int64   `json:"ns_per_op"`
	Speedup            float64 `json:"speedup"`
	Nodes              int     `json:"nodes"`
	SeqNodes           int     `json:"seq_nodes"`
	NodesOverheadRatio float64 `json:"nodes_overhead_ratio"`
	Groups             int     `json:"groups"`
	// NProc and GOMAXPROCS record the CPUs the run had: speedups only
	// compare between archives taken with the same counts.
	NProc      int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// SpeedupCurveConfig tunes the speedup experiment. Zero fields take the
// defaults below.
type SpeedupCurveConfig struct {
	// Scale is the divisor of the LARGEST dataset; the curve also runs
	// the same profile at 2x and 4x that divisor (smaller datasets), so
	// scaling behavior is visible across problem sizes.
	Scale   Scale
	Dataset string  // profile base name; default "PC"
	Minsup  float64 // relative support; default 0.8
	K       int     // default 10
	Workers []int   // default {1, 2, 4, 8}
	Repeats int     // timed repetitions per cell, best-of; default 3
}

// SpeedupCurve times the topk miner across worker counts on a series
// of synth dataset sizes and reports wall-clock speedup relative to
// the sequential run of the same dataset. The parallel engine is
// deterministic — every worker count produces identical output — so
// the group count is reported to make the invariant visible; the node
// ratio tracks how much extra tree the workers explore before the
// shared floors catch up.
func SpeedupCurve(ctx context.Context, w io.Writer, cfg SpeedupCurveConfig) ([]SpeedupCurvePoint, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Dataset == "" {
		cfg.Dataset = "PC"
	}
	if cfg.Minsup == 0 {
		cfg.Minsup = 0.8
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4, 8}
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 3
	}

	// Smallest to largest: divisor 4s, 2s, s.
	scales := []Scale{cfg.Scale * 4, cfg.Scale * 2, cfg.Scale}
	var out []SpeedupCurvePoint
	for _, sc := range scales {
		var pr *prepared
		for _, p := range profiles(sc) {
			if baseName(p.Name) == cfg.Dataset {
				var err error
				if pr, err = prepare(p); err != nil {
					return nil, err
				}
				break
			}
		}
		if pr == nil {
			return nil, fmt.Errorf("bench: no profile named %q", cfg.Dataset)
		}
		ms := minsupAbs(pr.dTrain, cfg.Minsup)
		header(w, fmt.Sprintf("Speedup curve on %s (rows=%d items=%d minsup=%.2f k=%d, best of %d)",
			pr.profile.Name, pr.dTrain.NumRows(), pr.dTrain.NumItems(), cfg.Minsup, cfg.K, cfg.Repeats))
		fmt.Fprintf(w, "%-8s %12s %9s %10s %11s %8s\n",
			"workers", "time", "speedup", "nodes", "nodes-ratio", "groups")

		var base time.Duration
		seqNodes := 0
		for _, workers := range cfg.Workers {
			workers := workersOr1(workers)
			opts := engine.Options{K: cfg.K, Minsup: ms, Workers: workers}
			var best time.Duration
			var nodes, groups int
			for rep := 0; rep < cfg.Repeats; rep++ {
				var res *engine.Result
				var stats engine.Stats
				var err error
				elapsed := timeIt(func() {
					res, stats, err = mineVia(ctx, "topk", pr.dTrain, opts)
				})
				if err != nil {
					return nil, fmt.Errorf("bench: speedup %s/w%d: %w", pr.profile.Name, workers, err)
				}
				if best == 0 || elapsed < best {
					best = elapsed
					nodes = stats.Nodes
					groups = len(res.Groups)
				}
			}
			if workers == 1 {
				base = best
				seqNodes = nodes
			}
			pt := SpeedupCurvePoint{
				Dataset:    pr.profile.Name,
				Rows:       pr.dTrain.NumRows(),
				Items:      pr.dTrain.NumItems(),
				Workers:    workers,
				Minsup:     cfg.Minsup,
				K:          cfg.K,
				NsPerOp:    best.Nanoseconds(),
				Nodes:      nodes,
				Groups:     groups,
				NProc:      runtime.NumCPU(),
				GOMAXPROCS: runtime.GOMAXPROCS(0),
			}
			if base > 0 {
				pt.Speedup = base.Seconds() / best.Seconds()
			}
			if seqNodes > 0 {
				pt.SeqNodes = seqNodes
				pt.NodesOverheadRatio = float64(nodes) / float64(seqNodes)
			}
			out = append(out, pt)
			fmt.Fprintf(w, "%-8d %12s %8.2fx %10d %10.3fx %8d\n",
				pt.Workers, fmtDur(best, false), pt.Speedup, pt.Nodes, pt.NodesOverheadRatio, pt.Groups)
		}
	}
	return out, nil
}

// LargestAt returns the point for the given worker count on the
// biggest dataset of the curve (the CI gate's subject), or nil.
func LargestAt(pts []SpeedupCurvePoint, workers int) *SpeedupCurvePoint {
	var best *SpeedupCurvePoint
	for i := range pts {
		pt := &pts[i]
		if pt.Workers != workers {
			continue
		}
		if best == nil || pt.Rows*pt.Items > best.Rows*best.Items {
			best = pt
		}
	}
	return best
}
