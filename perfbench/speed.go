package main

import (
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed. A 2-vCPU guest on a shared host runs the same code
// up to twice as slowly when other guests load the physical cores its
// vCPUs share, in spells from milliseconds to longer than a run.
// Steal-free CPU time moves with it, since the work itself takes
// longer; only a count of instructions would not, and the guest has no
// hardware counters. So through the whole run a speedometer times a
// fixed unit of work on a thread of its own every speedPeriod, and a
// time measured over an interval is scaled by referenceUnit over the
// median unit time within speedWindow of that interval: the time it
// would take on a host that runs the unit in referenceUnit.
const (
	speedPeriod = 100 * time.Millisecond
	// referenceUnit sets the reference speed. On the 2.1 GHz Xeon vCPUs
	// the benchmark was built on the unit took 3-5 ms in a slow spell,
	// and at 2 ms the scaled times of that spell came within 4-13% of
	// the unscaled ones of a quiet spell.
	referenceUnit = 2 * time.Millisecond
	// speedWindow reaches past both ends of an interval. The server's
	// own work slows the unit on the shared cores too, so the window
	// spans the server's busy and idle moments around every operation
	// alike, while still following the host's slower spells. (Over only
	// the interval itself, the per-append refresh_cpu_ms spread twice
	// as much as unscaled.)
	speedWindow = 5 * time.Second
)

type speedSample struct {
	at   time.Time // when the unit ended
	unit time.Duration
}

// speedometer samples the unit time through a run.
type speedometer struct {
	mu      sync.Mutex
	samples []speedSample
	stop    chan struct{}
	done    chan struct{}
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *speedometer) run() {
	defer close(s.done)
	// Thread CPU time needs the goroutine on one thread throughout.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	u := newSpeedUnit()
	t := time.NewTicker(speedPeriod)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		c0, err0 := threadCPU()
		u.run()
		c1, err1 := threadCPU()
		if err0 != nil || err1 != nil {
			continue
		}
		s.mu.Lock()
		s.samples = append(s.samples, speedSample{at: time.Now(), unit: c1 - c0})
		s.mu.Unlock()
	}
}

// stopSampling ends the sampling and waits for the sampler to return.
func (s *speedometer) stopSampling() {
	close(s.stop)
	<-s.done
}

// scale is referenceUnit over the median unit time of the samples taken
// within speedWindow of [from, to]; 1 when there are none.
func (s *speedometer) scale(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var units []float64
	for _, x := range s.samples {
		if !x.at.Before(from.Add(-speedWindow)) && !x.at.After(to.Add(speedWindow)) {
			units = append(units, float64(x.unit))
		}
	}
	if len(units) == 0 {
		return 1
	}
	return float64(referenceUnit) / median(units)
}

// units are the unit times sampled, in ms.
func (s *speedometer) units() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.samples))
	for i, x := range s.samples {
		out[i] = ms(x.unit)
	}
	return out
}

// threadCPU is the calling thread's CPU time, to the nanosecond
// (CLOCK_THREAD_CPUTIME_ID; getrusage's thread times move in ticks).
func threadCPU() (time.Duration, error) {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// speedUnit is the fixed work: the kinds the server spends its time on,
// built from the standard library only so that no change to the
// repository changes it. It parses a raw-values row of JSON numbers (as
// a classify request does), sorts a column of values (as a discretizer
// fit does) and intersects bitsets with population counts (as mining
// does). It allocates nothing: an allocation could make the thread
// assist the benchmark's own garbage collection, whose work would be
// timed with the unit.
type speedUnit struct {
	row    string
	column []float64
	sorted []float64
	a, b   []uint64
	sink   int // keeps the results live
}

func newSpeedUnit() *speedUnit {
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, 3150)
	for i := range vals {
		vals[i] = r.NormFloat64() * 100
	}
	row := []byte{}
	for i, v := range vals {
		if i > 0 {
			row = append(row, ',')
		}
		row = strconv.AppendFloat(row, v, 'g', -1, 64)
	}
	u := &speedUnit{row: string(row), column: make([]float64, 20000), sorted: make([]float64, 20000),
		a: make([]uint64, 16384), b: make([]uint64, 16384)}
	for i := range u.column {
		u.column[i] = r.Float64()
	}
	for i := range u.a {
		u.a[i], u.b[i] = r.Uint64(), r.Uint64()
	}
	return u
}

func (u *speedUnit) run() {
	n := 0
	for i := 0; i < 3; i++ {
		for rest := u.row; rest != ""; {
			var tok string
			tok, rest, _ = strings.Cut(rest, ",")
			if v, err := strconv.ParseFloat(tok, 64); err == nil && v > 0 {
				n++
			}
		}
	}
	copy(u.sorted, u.column)
	sort.Float64s(u.sorted)
	for k := 0; k < 8; k++ {
		for i := range u.a {
			n += bits.OnesCount64(u.a[i] & (u.b[i] >> uint(k)))
		}
	}
	u.sink += n
}
