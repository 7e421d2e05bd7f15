package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/job"
	"repro/internal/server"
	"repro/internal/trace"
)

// solveReply is one /v1/solve round trip as the client saw it.
type solveReply struct {
	status int
	cache  string
	body   []byte
	lat    time.Duration
	err    error
}

func (r *runner) post(base string, s solveInput, traceparent string) solveReply {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/solve", bytes.NewReader(s.body))
	if err != nil {
		return solveReply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set(trace.TraceparentHeader, traceparent)
	}
	start := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return solveReply{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	return solveReply{status: resp.StatusCode, cache: resp.Header.Get("X-Busytime-Cache"), body: body, lat: lat, err: err}
}

// closedLoop sends each client's sequence from its own goroutine, the
// next request only after the previous reply, and returns the replies
// per client.
func (r *runner) closedLoop(base string, seqs [][]solveInput, traceparents [][]string) [][]solveReply {
	out := make([][]solveReply, len(seqs))
	var wg sync.WaitGroup
	for c := range seqs {
		out[c] = make([]solveReply, len(seqs[c]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, s := range seqs[c] {
				tp := ""
				if traceparents != nil {
					tp = traceparents[c][k]
				}
				out[c][k] = r.post(base, s, tp)
			}
		}()
	}
	wg.Wait()
	return out
}

// split deals a flat request list round-robin over the clients.
func split(xs []solveInput) [][]solveInput {
	out := make([][]solveInput, clients)
	for i, x := range xs {
		out[i%clients] = append(out[i%clients], x)
	}
	return out
}

// solveRound is one round of solve-mix or solve-delta: set-up (server
// construction plus the warm-up pass or reopt-cache priming, from both
// clients) and then each client's timed sequence.
func (r *runner) solveRound(quality bool) error {
	start := time.Now()
	d, err := startDaemon(nil)
	if err != nil {
		return err
	}
	setup := split(r.in.setup)
	for c, replies := range r.closedLoop(d.base, setup, nil) {
		for k, rep := range replies {
			r.t.attempted++
			if _, err := checkReply(setup[c][k].in, rep); err != nil {
				r.t.fail(1, "set-up request %d/%d: %v", c, k, err)
			}
		}
	}
	r.t.setups = append(r.t.setups, time.Since(start).Seconds())

	var tps [][]string
	if r.traced {
		tps = make([][]string, len(r.seqs))
		for c, seq := range r.seqs {
			for range seq {
				tps[c] = append(tps[c], r.traceparent())
			}
		}
	}
	var replies [][]solveReply
	el := r.t.window(func() { replies = r.closedLoop(d.base, r.seqs, tps) })

	var jobs int64
	for c, seq := range r.seqs {
		for k, rep := range replies[c] {
			r.t.attempted++
			r.t.lat = append(r.t.lat, ms(rep.lat))
			res, err := checkReply(seq[k].in, rep)
			if err != nil {
				r.t.fail(1, "%s request %d/%d: %v", r.in.workload, c, k, err)
				continue
			}
			jobs += int64(res.N)
			if quality {
				r.t.cost += res.Cost
				r.t.bound += res.LowerBound
				r.t.outcomes[rep.cache]++
			}
			if res.Cache == "repair" {
				r.t.repairs++
				r.t.transitions += res.Transition
			}
			if r.traced && res.Trace != nil {
				r.t.addTrace(res.Trace)
				r.t.tracedRequests++
			}
		}
	}
	r.t.confirm(jobs, el)
	if r.traced {
		if err := r.scrape(d); err != nil {
			return fmt.Errorf("scraping /metrics: %v", err)
		}
	}
	return d.stop()
}

// checkReply decodes a solve response and re-verifies it against the
// instance that was sent: status 200, certified, every job placed, no
// machine above g concurrent jobs, and the busy time and Observation 2.1
// bound re-derived by the client equal to the reported ones.
func checkReply(in job.Instance, rep solveReply) (*server.Result, error) {
	if rep.err != nil {
		return nil, rep.err
	}
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	var res server.Result
	if err := json.Unmarshal(rep.body, &res); err != nil {
		return nil, fmt.Errorf("decoding result: %v", err)
	}
	if !res.Certified {
		return nil, fmt.Errorf("not certified: %s", res.CertificateError)
	}
	if res.Cache != rep.cache {
		return nil, fmt.Errorf("cache header %q, body says %q", rep.cache, res.Cache)
	}
	if res.N != len(in.Jobs) || res.Scheduled != len(in.Jobs) {
		return nil, fmt.Errorf("result covers %d (scheduled %d) of %d jobs", res.N, res.Scheduled, len(in.Jobs))
	}
	cost, err := busyTime(in, res.Machine)
	if err != nil {
		return nil, err
	}
	if cost != res.Cost {
		return nil, fmt.Errorf("reported cost %d, assignment costs %d", res.Cost, cost)
	}
	if lb := in.LowerBound(); lb != res.LowerBound {
		return nil, fmt.Errorf("reported lower bound %d, instance has %d", res.LowerBound, lb)
	}
	return &res, nil
}

// busyTime checks that the assignment places every job on a machine
// that never runs more than g jobs at once, and returns its busy time:
// the length of the union of each machine's intervals, summed.
func busyTime(in job.Instance, machine []int) (int64, error) {
	if len(machine) != len(in.Jobs) {
		return 0, fmt.Errorf("assignment has %d entries for %d jobs", len(machine), len(in.Jobs))
	}
	order := make([]int, len(machine))
	for i := range order {
		if machine[i] < 0 {
			return 0, fmt.Errorf("job %d unplaced", in.Jobs[i].ID)
		}
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if machine[ja] != machine[jb] {
			return machine[ja] < machine[jb]
		}
		return in.Jobs[ja].Start() < in.Jobs[jb].Start()
	})
	var total int64
	var ends endHeap
	var segStart, segEnd int64
	for k, i := range order {
		j := in.Jobs[i]
		if k == 0 || machine[i] != machine[order[k-1]] {
			total += segEnd - segStart
			ends = ends[:0]
			segStart, segEnd = j.Start(), j.End()
		}
		for len(ends) > 0 && ends[0] <= j.Start() {
			heap.Pop(&ends)
		}
		heap.Push(&ends, j.End())
		if len(ends) > in.G {
			return 0, fmt.Errorf("machine %d runs %d jobs at time %d, capacity %d", machine[i], len(ends), j.Start(), in.G)
		}
		if j.Start() > segEnd {
			total += segEnd - segStart
			segStart, segEnd = j.Start(), j.End()
		} else {
			segEnd = max(segEnd, j.End())
		}
	}
	total += segEnd - segStart
	return total, nil
}

// endHeap is a min-heap of job end times.
type endHeap []int64

func (h endHeap) Len() int           { return len(h) }
func (h endHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h endHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *endHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
