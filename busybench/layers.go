package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	busytime "repro"
	"repro/internal/core"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/registry"
	"repro/internal/reopt"
	"repro/internal/server"
)

// layerTimes are the traced run's replays: the workload's own inputs
// pushed in-process through each layer's public functions, timed from
// the outside. Totals divide by the unit counts to give the per-layer
// means the report prints.
type layerTimes struct {
	requests   int // solve requests replayed
	components int
	declines   int
	decode     time.Duration
	wireResult time.Duration
	encode     time.Duration
	split      time.Duration
	classify   time.Duration
	place      time.Duration
	cost       time.Duration
	canonical  time.Duration

	arrivals  int // stream arrivals replayed
	commits   int
	offer     time.Duration
	stage     time.Duration
	commit    time.Duration
	bytes     int64
	recoverSm []float64 // seconds per OpenFileStore of the pre-built journal
}

// replaySolve replays the head of the first round's requests through
// decode, the igraph split and classification, the registry placement
// chain per component, cost and bound, the reopt canonical form, and the
// serving layer's WireResult and JSON encode.
func replaySolve(seqs [][]solveInput) (*layerTimes, error) {
	lt := &layerTimes{}
	ctx := context.Background()
	cold := busytime.NewSolver()
	for k := 0; ; k++ {
		seq := seqs[k%clients]
		if k/clients >= len(seq) {
			break
		}
		body := seq[k/clients].body
		lt.requests++

		start := time.Now()
		var wreq server.Request
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wreq); err != nil {
			return nil, err
		}
		req, err := wreq.ToSolverRequest()
		if err != nil {
			return nil, err
		}
		lt.decode += time.Since(start)
		inst := req.Instance

		start = time.Now()
		comps := igraph.SplitComponents(inst)
		lt.split += time.Since(start)
		lt.components += len(comps)

		start = time.Now()
		// The solver classifies the whole instance, then runs the chain on
		// it when it is one component and per component otherwise.
		classes := []igraph.Class{igraph.Classify(inst.Jobs)}
		if len(comps) > 1 {
			classes = make([]igraph.Class, len(comps))
			for i, c := range comps {
				classes[i] = igraph.Classify(c.Jobs)
			}
		} else {
			comps = []job.Instance{inst}
		}
		lt.classify += time.Since(start)
		subs := make([]core.Schedule, len(comps))
		names := make([]string, len(comps))
		for i, c := range comps {
			start = time.Now()
			var placed bool
			for _, alg := range registry.ForAll(registry.MinBusy, classes[i]) {
				sch, err := alg.SolveMinBusy(ctx, c)
				if err == nil {
					subs[i], names[i], placed = sch, alg.Name, true
					break
				}
				lt.declines++
			}
			lt.place += time.Since(start)
			if !placed {
				return nil, fmt.Errorf("no min-busy algorithm accepted component %d of request %d", i, k)
			}
		}
		sch := subs[0]
		if len(comps) > 1 {
			sch, _ = core.MergeComponents(inst, comps, subs, names)
		}
		start = time.Now()
		_ = sch.Cost()
		_ = inst.LowerBound()
		lt.cost += time.Since(start)

		start = time.Now()
		canon, _ := reopt.Canonical(inst)
		_ = reopt.FingerprintCanon(inst.G, canon, "")
		lt.canonical += time.Since(start)

		res, err := cold.Solve(ctx, req)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		wres := server.WireResult(res)
		lt.wireResult += time.Since(start)
		if !wres.Certified {
			return nil, fmt.Errorf("replayed request %d not certified: %s", k, wres.CertificateError)
		}
		start = time.Now()
		if err := encodeJSON(wres); err != nil {
			return nil, err
		}
		lt.encode += time.Since(start)
	}
	return lt, nil
}

// replayStream replays the head of the first round's sessions through the
// arrival decode, online.Session.Offer, journal.Writer.StageEvent,
// Commit into a memfd FileStore every flushSize arrivals, and the event
// encode; then times FileStore recovery of the pre-built journal.
func replayStream(in *inputs, flushSize int) (*layerTimes, error) {
	lt := &layerTimes{}
	f, path, err := memJournal(nil)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store, err := journal.OpenFileStore(path)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	for _, seq := range in.sessions {
		for _, s := range seq[:min(len(seq), in.p.replaySessions)] {
			if err := lt.replaySession(store, s, flushSize); err != nil {
				return nil, fmt.Errorf("replaying session %s: %v", s.session, err)
			}
		}
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	lt.bytes = fi.Size()

	for i := 0; i < 3; i++ {
		pf, ppath, err := memJournal(in.preJournal)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		st, err := journal.OpenFileStore(ppath)
		lt.recoverSm = append(lt.recoverSm, time.Since(start).Seconds())
		if err != nil {
			pf.Close()
			return nil, err
		}
		st.Close()
		pf.Close()
	}
	return lt, nil
}

func (lt *layerTimes) replaySession(store journal.Store, s streamInput, flushSize int) error {
	var open server.StreamOpen
	if err := json.Unmarshal(s.header, &open); err != nil {
		return err
	}
	strategy := open.Strategy
	if strategy == "" {
		alg, err := registry.For(registry.Online, igraph.General)
		if err != nil {
			return err
		}
		strategy = alg.Name
	}
	params := journal.OpenParams{G: open.G, Strategy: strategy, Budget: open.Budget}
	sess, _, err := journal.SessionFor(params)
	if err != nil {
		return err
	}
	w, err := journal.NewWriter(store, "replay-"+s.session, params)
	if err != nil {
		return err
	}
	n := s.lines.n()
	for i := 0; i < n; i++ {
		start := time.Now()
		var arr server.StreamArrival
		if err := json.Unmarshal(s.lines.line(i), &arr); err != nil {
			return err
		}
		j, err := arr.ToJob()
		if err != nil {
			return err
		}
		lt.decode += time.Since(start)

		start = time.Now()
		ev, err := sess.Offer(j)
		lt.offer += time.Since(start)
		if err != nil {
			return err
		}

		start = time.Now()
		_, err = w.StageEvent(journal.ArrivalOf(j), ev)
		lt.stage += time.Since(start)
		if err != nil {
			return err
		}
		if (i+1)%flushSize == 0 || i == n-1 {
			start = time.Now()
			err := w.Commit()
			lt.commit += time.Since(start)
			lt.commits++
			if err != nil {
				return err
			}
		}

		start = time.Now()
		if err := encodeJSON(server.WireStreamEvent(ev)); err != nil {
			return err
		}
		lt.encode += time.Since(start)
		lt.arrivals++
	}
	_, err = w.Close(sess.Summary())
	return err
}

// encodeJSON encodes v the way the server writes a response.
func encodeJSON(v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// per divides a total duration by a count, in ms; 0 for no units.
func per(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / float64(unit)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
