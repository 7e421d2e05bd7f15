package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
)

// tally accumulates one run's measurements across rounds.
type tally struct {
	attempted, failed int
	failures          []string

	setups []float64 // seconds per round
	rates  []float64 // confirmed jobs per second per round
	lat    []float64 // per-request (or per-arrival) round trip, ms
	groups []int     // end offsets in lat of groups of >= minSamples samples
	timed  time.Duration
	jobs   int64
	alloc  uint64 // bytes allocated inside timed windows
	gcs    uint32
	pause  uint64 // ns of GC pause inside timed windows
	steal  cpuTicks

	// Quality, over the first plan.minRounds rounds: a fixed set of
	// inputs, since every run reaches them.
	cost, bound        int64
	outcomes           map[string]int
	admitted, arrivals int

	// Traced run: span self time by phase name, the number of traced
	// solve requests and streamed arrivals it covers, per-event stage
	// timings, and what the last server's /metrics said.
	phaseNS        map[string]int64
	tracedRequests int
	tracedArrivals int
	transitions    int
	repairs        int
	queueMS        []float64
	flushMS        []float64
	flushSum       float64
	flushCount     float64
	phaseLabels    map[string]bool
}

func newTally() *tally {
	return &tally{outcomes: map[string]int{}, phaseNS: map[string]int64{}, phaseLabels: map[string]bool{}}
}

// fail records one failed request, arrival group or check.
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// window times fn as one round's timed window, with the allocation and
// GC counters it moved.
func (t *tally) window(fn func()) time.Duration {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ticks := readCPUTicks()
	start := time.Now()
	fn()
	el := time.Since(start)
	t.steal.add(readCPUTicks().minus(ticks))
	runtime.ReadMemStats(&after)
	t.timed += el
	t.alloc += after.TotalAlloc - before.TotalAlloc
	t.gcs += after.NumGC - before.NumGC
	t.pause += after.PauseTotalNs - before.PauseTotalNs
	return el
}

// closeGroup ends the current latency group once it holds n samples.
func (t *tally) closeGroup(n int) {
	start := 0
	if len(t.groups) > 0 {
		start = t.groups[len(t.groups)-1]
	}
	if len(t.lat)-start >= max(n, 1) {
		t.groups = append(t.groups, len(t.lat))
	}
}

// latency is the q-quantile of each latency group (a stream session, or
// solve rounds holding at least minSamples requests), median over
// groups: a stall on the machine moves it less than it moves a pooled
// quantile. Samples after the last full group join that group.
func (t *tally) latency(q float64) float64 {
	var qs []float64
	start := 0
	for i, end := range t.groups {
		if i == len(t.groups)-1 {
			end = len(t.lat)
		}
		qs = append(qs, percentile(append([]float64(nil), t.lat[start:end]...), q))
		start = end
	}
	return median(qs)
}

// confirm adds a round's verified job count to the throughput figures.
func (t *tally) confirm(jobs int64, el time.Duration) {
	t.jobs += jobs
	t.rates = append(t.rates, float64(jobs)/el.Seconds())
}

// structuralSpans group phases rather than measure one; the server
// leaves them out of busyd_solve_phase_seconds, and so does the
// benchmark.
var structuralSpans = map[string]bool{"request": true, "solve": true, "batch": true}

// addTrace adds an echoed span tree's self time per phase.
func (t *tally) addTrace(n *trace.Node) {
	n.Walk(func(n *trace.Node) {
		if structuralSpans[n.Name] {
			return
		}
		self := n.DurationNS
		for _, c := range n.Children {
			self -= c.DurationNS
		}
		t.phaseNS[n.Name] += max(self, 0)
	})
}

// runner drives one run: rounds of set-up plus timed window against a
// fresh in-process server.
type runner struct {
	in     *inputs
	seqs   [][]solveInput // the current round's timed requests per client
	p      plan
	traced bool
	client *http.Client
	t      *tally
	traces int // traceparent ids handed out
}

func (r *runner) round(quality bool) error {
	switch r.in.workload {
	case "stream-journal":
		return r.streamRound(quality)
	default:
		return r.solveRound(quality)
	}
}

// measure runs rounds until the timed windows reach the plan's length
// and the latency sample count supports a p99. It also returns the head
// of the first round's solve requests, which the traced run replays per
// layer.
func measure(in *inputs, p plan, traced bool) (*tally, [][]solveInput, error) {
	r := &runner{in: in, p: p, traced: traced, client: newClient(), t: newTally()}
	defer r.client.CloseIdleConnections()
	var replay [][]solveInput
	for round := 0; ; round++ {
		r.seqs = nil // release the last round's requests before drawing more
		seqs, err := in.round(round)
		if err != nil {
			return nil, nil, err
		}
		if round == 0 {
			for _, seq := range seqs {
				n := min(len(seq), (p.replayRequests+clients-1)/clients)
				replay = append(replay, append([]solveInput(nil), seq[:n]...))
			}
		}
		r.seqs = seqs
		// Start every round from a collected heap, so one round's garbage
		// is not charged to the next round's set-up.
		runtime.GC()
		if err := r.round(round < p.minRounds); err != nil {
			return nil, nil, err
		}
		r.client.CloseIdleConnections()
		r.t.closeGroup(p.minSamples)
		done := round+1 >= p.minRounds && r.t.timed >= p.seconds && len(r.t.lat) >= p.minSamples
		if done || round+1 >= p.maxRounds {
			break
		}
	}
	return r.t, replay, nil
}

// traceparent returns a fresh W3C traceparent header value; sending one
// opts the request into the echoed span tree.
func (r *runner) traceparent() string {
	r.traces++
	return fmt.Sprintf("00-%032x-%016x-01", r.traces, 1)
}

// scrape reads the server's /metrics: the busyd_solve_phase_seconds
// phase labels and the stream flush-size histogram's sum and count.
func (r *runner) scrape(d *daemon) error {
	resp, err := r.client.Get(d.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "busyd_solve_phase_seconds_count{"):
			if i := strings.Index(line, `phase="`); i >= 0 {
				rest := line[i+len(`phase="`):]
				r.t.phaseLabels[rest[:strings.IndexByte(rest, '"')]] = true
			}
		case strings.HasPrefix(line, "busyd_stream_flush_size_sum "):
			v, _ := strconv.ParseFloat(strings.TrimPrefix(line, "busyd_stream_flush_size_sum "), 64)
			r.t.flushSum += v
		case strings.HasPrefix(line, "busyd_stream_flush_size_count "):
			v, _ := strconv.ParseFloat(strings.TrimPrefix(line, "busyd_stream_flush_size_count "), 64)
			r.t.flushCount += v
		}
	}
	return sc.Err()
}

// observedPhases lists the phase names the echoed span trees carried.
func (t *tally) observedPhases() []string {
	var out []string
	for name := range t.phaseNS {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// drain reads and discards a response body so its connection is reused.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	body.Close()
}
