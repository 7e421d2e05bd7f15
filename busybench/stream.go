package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/server"
	"repro/internal/trace"
)

// lineBuf holds NDJSON lines back to back in one buffer. A session's
// thousands of lines then cost the collector two objects, not thousands,
// so the client's own garbage weighs as little as possible on the
// server's latency tail.
type lineBuf struct {
	buf  []byte
	ends []int
}

func (b *lineBuf) add(line []byte) {
	b.buf = append(b.buf, line...)
	b.ends = append(b.ends, len(b.buf))
}

func (b *lineBuf) n() int { return len(b.ends) }

func (b *lineBuf) line(i int) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.buf[start:b.ends[i]]
}

// sessionReply is one stream session as the client saw it: every event
// line after the open event (the close or error event last) and the
// per-arrival latency from writing the arrival to reading its event.
type sessionReply struct {
	events lineBuf
	lat    []time.Duration
	err    error
}

// errStopped ends a session's sender once the reader is done.
var errStopped = errors.New("stopped")

var (
	prefixOpen  = []byte(`{"type":"open"`)
	prefixClose = []byte(`{"type":"close"`)
	prefixError = []byte(`{"type":"error"`)
)

// runSession streams one session over a full-duplex request, keeping at
// most streamWindow arrivals unconfirmed. Event lines are only split
// here; decoding and checking wait until the timed window is over.
func (r *runner) runSession(base string, s streamInput, traceparent string) sessionReply {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/stream", pr)
	if err != nil {
		return sessionReply{err: err}
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if traceparent != "" {
		req.Header.Set(trace.TraceparentHeader, traceparent)
	}
	// One send time per unconfirmed arrival: the channel is the window.
	// Events come back in arrival order, so the reader pops the matching
	// send time.
	inflight := make(chan time.Time, streamWindow)
	stop := make(chan struct{})
	sent := make(chan error, 1)
	go func() {
		sent <- func() error {
			if _, err := pw.Write(s.header); err != nil {
				return err
			}
			for i := 0; i < s.lines.n(); i++ {
				select {
				case inflight <- time.Now():
				case <-stop:
					return errStopped
				}
				if _, err := pw.Write(s.lines.line(i)); err != nil {
					return err
				}
			}
			return pw.Close()
		}()
	}()
	rep := sessionReply{}
	finish := func(err error) sessionReply {
		close(stop)
		pr.CloseWithError(errStopped)
		if serr := <-sent; err == nil && serr != nil && !errors.Is(serr, errStopped) {
			err = serr
		}
		rep.err = err
		return rep
	}

	resp, err := r.client.Do(req)
	if err != nil {
		return finish(err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return finish(fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body)))
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = errors.New("stream ended without a close event")
			}
			return finish(err)
		}
		switch {
		case bytes.HasPrefix(line, prefixOpen):
			continue
		case bytes.HasPrefix(line, prefixClose), bytes.HasPrefix(line, prefixError):
			rep.events.add(line)
			return finish(nil)
		}
		select {
		case t := <-inflight:
			rep.lat = append(rep.lat, now.Sub(t))
		default:
			return finish(errors.New("event for an arrival never sent"))
		}
		rep.events.add(line)
	}
}

// streamRound is one round of stream-journal: set-up recovers a
// FileStore from the pre-built journal and starts the server on it; the
// timed window runs each client's sessions back to back, two sessions
// concurrently.
func (r *runner) streamRound(quality bool) error {
	f, path, err := memJournal(r.in.preJournal)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	store, err := journal.OpenFileStore(path)
	if err != nil {
		return err
	}
	d, err := startDaemon(store)
	if err != nil {
		store.Close()
		return err
	}
	r.t.setups = append(r.t.setups, time.Since(start).Seconds())

	tps := make([][]string, len(r.in.sessions))
	for c, seq := range r.in.sessions {
		tps[c] = make([]string, len(seq))
		if r.traced {
			for k := range seq {
				tps[c][k] = r.traceparent()
			}
		}
	}
	replies := make([][]sessionReply, len(r.in.sessions))
	el := r.t.window(func() {
		var wg sync.WaitGroup
		for c, seq := range r.in.sessions {
			replies[c] = make([]sessionReply, len(seq))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k, s := range seq {
					replies[c][k] = r.runSession(d.base, s, tps[c][k])
				}
			}()
		}
		wg.Wait()
	})

	// Check every session after the window, one checker per client.
	checks := make([][]sessionCheck, len(r.in.sessions))
	var wg sync.WaitGroup
	for c, seq := range r.in.sessions {
		checks[c] = make([]sessionCheck, len(seq))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, s := range seq {
				checks[c][k] = r.checkSession(d, s, replies[c][k])
			}
		}()
	}
	wg.Wait()

	var jobs int64
	for c, seq := range r.in.sessions {
		for k, s := range seq {
			r.t.attempted += s.lines.n()
			for _, l := range replies[c][k].lat {
				r.t.lat = append(r.t.lat, ms(l))
			}
			// One latency group per session: its 2000 arrivals give a p99
			// with 20 samples beyond it, and a host stall then moves the
			// quantile of one session, not of the run.
			r.t.closeGroup(r.p.minSamples)
			ch := checks[c][k]
			if ch.err != nil {
				r.t.fail(s.lines.n(), "session %s: %v", s.session, ch.err)
				continue
			}
			jobs += int64(ch.close.Arrivals)
			if quality {
				r.t.cost += ch.close.Cost
				r.t.bound += ch.close.LowerBound
				r.t.admitted += ch.close.Admitted
				r.t.arrivals += ch.close.Arrivals
			}
			if r.traced {
				r.t.queueMS = append(r.t.queueMS, ch.queueMS...)
				r.t.flushMS = append(r.t.flushMS, ch.flushMS...)
				if ch.trace != nil {
					r.t.addTrace(ch.trace)
					r.t.tracedArrivals += ch.close.Arrivals
				}
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

// sessionCheck is the verdict on one session and what the report takes
// from it.
type sessionCheck struct {
	close   server.StreamEvent
	trace   *trace.Node
	queueMS []float64
	flushMS []float64
	err     error
}

// checkSession verifies one session after the window: one assign or
// reject event per arrival in order, a close report byte-equal to
// journal.Certify on the same arrivals, and the served journal passing
// journal.Verify with the close report's chain hash.
func (r *runner) checkSession(d *daemon, s streamInput, rep sessionReply) sessionCheck {
	var ch sessionCheck
	ch.err = func() error {
		if rep.err != nil {
			return rep.err
		}
		n := s.lines.n()
		if rep.events.n() != n+1 {
			return fmt.Errorf("%d events for %d arrivals", rep.events.n()-1, n)
		}
		for i := 0; i < n; i++ {
			var ev server.StreamEvent
			if err := json.Unmarshal(rep.events.line(i), &ev); err != nil {
				return fmt.Errorf("decoding event %d: %v", i, err)
			}
			if (ev.Type != server.StreamEventAssign && ev.Type != server.StreamEventReject) || ev.Seq != i || ev.JobID != s.ids[i] {
				return fmt.Errorf("event %d is %s seq %d job %d, want the placement of job %d", i, ev.Type, ev.Seq, ev.JobID, s.ids[i])
			}
			ch.queueMS = append(ch.queueMS, float64(ev.QueueNS)/1e6)
			ch.flushMS = append(ch.flushMS, float64(ev.FlushNS)/1e6)
		}
		if err := json.Unmarshal(rep.events.line(n), &ch.close); err != nil {
			return fmt.Errorf("decoding close event: %v", err)
		}
		if ch.close.Type != server.StreamEventClose {
			return fmt.Errorf("session ended with %s: %s", ch.close.Type, ch.close.Error)
		}
		ch.trace, ch.close.Trace = ch.close.Trace, nil
		got, err := json.Marshal(ch.close)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, s.wantClose) {
			return fmt.Errorf("close report differs from journal.Certify:\n got  %s\n want %s", got, s.wantClose)
		}

		resp, err := r.client.Get(d.base + "/v1/stream/journal?session=" + s.session)
		if err != nil {
			return fmt.Errorf("fetching journal: %v", err)
		}
		defer drain(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fetching journal: status %d", resp.StatusCode)
		}
		recs, err := journal.DecodeRecords(resp.Body)
		if err != nil {
			return fmt.Errorf("decoding journal: %v", err)
		}
		cert, err := journal.Verify(recs)
		if err != nil {
			return fmt.Errorf("journal does not verify: %v", err)
		}
		if cert.Chain != ch.close.Chain {
			return fmt.Errorf("journal chain %s, close report says %s", cert.Chain, ch.close.Chain)
		}
		return nil
	}()
	return ch
}
