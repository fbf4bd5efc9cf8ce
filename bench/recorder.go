package main

import (
	"fmt"
	"time"
)

// quality is what one operation's output looked like: the effectiveness
// scores of Result.Report and a digest of the reclaimed table.
type quality struct {
	eis, recall, precision float64
	digest                 uint64
}

// grantWindow is the shortest stretch the host's tick counters (10 ms a tick,
// per CPU) resolve to about a percent.
const grantWindow = 250 * time.Millisecond

// shortOp (ms) is the latency under which a sample stays on the wall clock.
// The host takes the CPU away in slices of a millisecond and more, so an
// operation well under one either is interrupted, and lands in the tail, or is
// not: the median of gentd_churn's cache hits (0.27 ms) read 0.32 ms at a
// 46 % share and would read 0.15 ms in granted time. Every other series is 4
// ms and up.
const shortOp = 1.0

// recorder accumulates one run's observations. Times are kept twice: as the
// wall clock measured them, and in granted time — wall time × the share of
// the CPU time it asked for that the host granted over the stretch the
// operation ran in (see grantedShare: one fixed rule, nothing is fitted). The
// single closed-loop client drives the recorder, so it is not locked.
type recorder struct {
	// warm marks the untimed warm-up pass: outputs are still recorded (they
	// are the reference), latencies are discarded.
	warm bool
	// lat pools, per class, the latency of every timed operation over all
	// passes, in granted ms: what the percentiles are taken over. raw is the
	// same pool in wall-clock ms.
	lat, raw map[string][]float64
	// Per timed pass: its throughput section in granted seconds, and the share
	// the host granted over the whole pass. perPass is the operations in one
	// section.
	walls, granted []float64
	perPass        int
	// timed is the number of timed operations, all classes (a sample can stand
	// for several: see observeN).
	timed int
	// The pass under way: when it began and the host's counters then, the
	// operations its section has seen, the section's wall time once closed.
	t0      time.Time
	cpu0    hostCPU
	n       int
	section time.Duration
	// The open grant window: the samples observed since winT0 wait in pending
	// for the window to close and tell them their share.
	winT0   time.Time
	winCPU  hostCPU
	pending []pendingSample
	// cpu reads the host's counters (readHostCPU; tests substitute a fake).
	cpu func() hostCPU
	// pipeline is Result.Timing.Total() of the operations a traced run
	// replays, and mirror their client-observed latency: what the traced
	// run's spans are compared against. Both in wall-clock ms, like the spans.
	pipeline, mirror []float64

	attempted, failed int
	failures          []string
	// first is the first output seen per key; every later operation with the
	// same key must reproduce it. The keys of the warm-up pass (order[:refs])
	// are the run's reference outputs: quality means and the run digest are
	// taken over them, so neither depends on how many passes fitted.
	first map[string]quality
	order []string
	refs  int
}

type pendingSample struct {
	class string
	ms    float64
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]float64), raw: make(map[string][]float64), first: make(map[string]quality), cpu: readHostCPU}
}

func (r *recorder) beginPass() {
	r.t0, r.cpu0, r.n, r.section = time.Now(), r.cpu(), 0, 0
	r.winT0, r.winCPU = r.t0, r.cpu0
}

// observe records one operation's latency under its class.
func (r *recorder) observe(class string, d time.Duration) { r.observeN(class, d, 1) }

// observeN records n operations that took d between them as one sample, their
// mean latency: a batch call, whose items share one wall time.
func (r *recorder) observeN(class string, d time.Duration, n int) {
	r.attempted += n
	if r.warm {
		return
	}
	r.pending = append(r.pending, pendingSample{class, ms(d) / float64(n)})
	r.timed += n
	if r.section == 0 {
		r.n += n
	}
	if time.Since(r.winT0) >= grantWindow {
		r.closeWindow(r.cpu())
	}
}

// closeWindow moves the pending samples into the pools, scaled by the share
// the host granted since the window opened.
func (r *recorder) closeWindow(now hostCPU) {
	g := grantedShare(r.winCPU, now)
	for _, s := range r.pending {
		r.raw[s.class] = append(r.raw[s.class], s.ms)
		if s.ms >= shortOp {
			s.ms *= g
		}
		r.lat[s.class] = append(r.lat[s.class], s.ms)
	}
	r.pending, r.winT0, r.winCPU = r.pending[:0], time.Now(), now
}

// endSection closes the pass's throughput section: operations observed after
// it (a workload's batch call) keep their latency series but do not count
// into ops_per_s. Without a call the whole pass counts.
func (r *recorder) endSection() {
	if r.section == 0 {
		r.section = time.Since(r.t0)
	}
}

func (r *recorder) commitPass() {
	r.endSection()
	if r.warm {
		return
	}
	now := r.cpu()
	// The pass's last stretch may be too short to resolve; it takes the
	// share of the whole pass.
	if time.Since(r.winT0) < grantWindow {
		r.winCPU = r.cpu0
	}
	r.closeWindow(now)
	g := grantedShare(r.cpu0, now)
	r.walls = append(r.walls, r.section.Seconds()*g)
	r.granted = append(r.granted, g)
	r.perPass = r.n
}

// replayable records, for an operation the traced run replays, what the
// program itself reported as pipeline time beside what the client saw.
func (r *recorder) replayable(wall, pipeline time.Duration) {
	if r.warm {
		return
	}
	r.mirror = append(r.mirror, ms(wall))
	r.pipeline = append(r.pipeline, ms(pipeline))
}

// fail counts one failed or refused operation (or failed check).
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// output records what an operation produced under key (the source name, plus
// the epoch where outputs may legitimately change with it).
func (r *recorder) output(key string, q quality) {
	prev, ok := r.first[key]
	if !ok {
		r.first[key] = q
		r.order = append(r.order, key)
		return
	}
	if prev != q {
		r.fail("%s: output changed (digest %016x → %016x, eis %.6f → %.6f)",
			key, prev.digest, q.digest, prev.eis, q.eis)
	}
}

// qualityMeans averages the reference outputs.
func (r *recorder) qualityMeans() (eis, recall, precision float64) {
	n := float64(r.refs)
	if n == 0 {
		return 0, 0, 0
	}
	for _, k := range r.order[:r.refs] {
		q := r.first[k]
		eis += q.eis
		recall += q.recall
		precision += q.precision
	}
	return eis / n, recall / n, precision / n
}
