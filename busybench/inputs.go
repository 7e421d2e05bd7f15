package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"

	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/journal"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/workload"
)

// Instance shapes. Every solve request is a min-busy instance of
// n = 1000 jobs at capacity g = 4; every stream session is 2000
// weighted arrivals at g = 4.
const (
	solveN       = 1000
	solveG       = 4
	sparseTime   = 8000 // horizon of the sparse and clique instances
	sparseMaxLen = 120
	denseTime    = 1000 // dense general: horizon = max length
	streamN      = 2000
	streamG      = 4
	streamTime   = 40000
	streamMaxLen = 200
	// streamBudget is the fixed busy-time budget of the online-budget
	// sessions, low enough that both assign and reject events flow.
	streamBudget = 50000
	// streamWindow is the number of arrivals a client keeps unconfirmed:
	// above one, so micro-batching engages, and well under the server's
	// 128-arrival flush cap.
	streamWindow = 32
)

// Seed-stream tags: each input family draws from its own derived seeds,
// so warm-up and priming inputs can never coincide with timed ones.
const (
	tagMixWarmup = iota + 1
	tagMixTimed
	tagDeltaPrime
	tagDeltaChain
	tagStream
	tagStreamPre
)

// subSeed derives an independent generator seed from the run seed and a
// path of integers (splitmix64 finalizer per step).
func subSeed(seed int64, path ...int) int64 {
	h := uint64(seed)
	for _, p := range path {
		h ^= uint64(p) + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// solveInput is one pre-encoded /v1/solve request and the instance it
// carries, which the client re-verifies the response against.
type solveInput struct {
	in   job.Instance
	body []byte
}

// streamInput is one pre-encoded stream session: header line, one line
// per arrival, and the close event an uninterrupted session must end
// with, taken from journal.Certify on the same arrivals.
type streamInput struct {
	session   string
	header    []byte
	lines     lineBuf
	ids       []int
	wantClose []byte
}

// inputs generate everything a run sends from the seed alone. Set-up
// inputs (the solve-mix warm-up, the solve-delta priming set, the
// stream's pre-built journal) and the stream sessions are the same in
// every round; the timed solve requests are drawn fresh per round, so
// a run averages over many instances.
type inputs struct {
	workload   string
	seed       int64
	p          plan
	setup      []solveInput
	sessions   [][]streamInput // per client
	preJournal []byte
	digest     hash.Hash // over the shared inputs and the quality rounds
}

func newInputs(name string, seed int64, p plan) (*inputs, error) {
	in := &inputs{workload: name, seed: seed, p: p, digest: sha256.New()}
	fmt.Fprintf(in.digest, "%s\n", name)
	var err error
	switch name {
	case "solve-mix":
		for k := 0; k < p.mixWarmup && err == nil; k++ {
			err = in.addSetup(mixInstance(subSeed(seed, tagMixWarmup, k), k))
		}
	case "solve-delta":
		for k := 0; k < p.deltaPrime && err == nil; k++ {
			err = in.addSetup(workload.General(subSeed(seed, tagDeltaPrime, k), deltaConfig))
		}
	case "stream-journal":
		err = in.genStream()
	default:
		return nil, fmt.Errorf("unknown workload %q (want solve-mix, solve-delta or stream-journal)", name)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

func (in *inputs) addSetup(inst job.Instance) error {
	s, err := encodeSolve(inst)
	in.setup = append(in.setup, s)
	in.digest.Write(s.body)
	return err
}

// round generates round r's timed requests, one sequence per client
// (none on stream-journal). The quality rounds, the first p.minRounds,
// which every run reaches, also feed the input digest.
func (in *inputs) round(r int) ([][]solveInput, error) {
	seqs := make([][]solveInput, clients)
	add := func(c int, inst job.Instance) error {
		s, err := encodeSolve(inst)
		if err != nil {
			return err
		}
		if r < in.p.minRounds {
			in.digest.Write(s.body)
		}
		seqs[c] = append(seqs[c], s)
		return nil
	}
	switch in.workload {
	case "solve-mix":
		for k := 0; k < in.p.mixRound; k++ {
			// Dealt alternately, so both clients get the same class mix.
			if err := add(k%clients, mixInstance(subSeed(in.seed, tagMixTimed, r, k), k)); err != nil {
				return nil, err
			}
		}
	case "solve-delta":
		for c := range seqs {
			for _, inst := range deltaChain(subSeed(in.seed, tagDeltaChain, r, c), in.p.deltaSteps) {
				if err := add(c, inst); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, nil
	}
	return seqs, nil
}

// sum is the digest of every input of the quality rounds.
func (in *inputs) sum() string { return hex.EncodeToString(in.digest.Sum(nil)) }

// mixInstance is request k of a solve-mix sequence. Of every sixteen,
// fourteen are sparse (rotating general, proper, one-sided and cloud),
// one is a dense general instance and one a clique.
func mixInstance(seed int64, k int) job.Instance {
	sparse := workload.Config{N: solveN, G: solveG, MaxTime: sparseTime, MaxLen: sparseMaxLen}
	switch k % 16 {
	case 14:
		return workload.General(seed, workload.Config{N: solveN, G: solveG, MaxTime: denseTime, MaxLen: denseTime})
	case 15:
		return workload.Clique(seed, sparse)
	}
	sparseIdx := k/16*14 + k%16
	switch sparseIdx % 4 {
	case 0:
		return workload.General(seed, sparse)
	case 1:
		return workload.Proper(seed, sparse)
	case 2:
		return workload.OneSided(seed, sparse, sparseIdx%8 == 2)
	default:
		return workload.Cloud(seed, sparse)
	}
}

var deltaConfig = workload.Config{N: solveN, G: solveG, MaxTime: sparseTime, MaxLen: sparseMaxLen}

// deltaChain walks a chain of general instances from one seed: every
// eighth step resubmits the previous instance shifted in time (an exact
// canonical hit), every other step replaces the job at a uniformly random
// position, the earliest included, with a fresh random job.
func deltaChain(seed int64, steps int) []job.Instance {
	r := rand.New(rand.NewSource(seed))
	cur := workload.General(seed, deltaConfig)
	out := make([]job.Instance, 0, steps)
	out = append(out, cur)
	for len(out) < steps {
		next := cur.Clone()
		if len(out)%8 == 0 {
			shift := 1 + r.Int63n(100)
			for i := range next.Jobs {
				next.Jobs[i] = job.New(next.Jobs[i].ID, next.Jobs[i].Start()+shift, next.Jobs[i].End()+shift)
			}
		} else {
			pos := r.Intn(len(next.Jobs))
			s := r.Int63n(deltaConfig.MaxTime + 1)
			next.Jobs[pos] = job.New(next.Jobs[pos].ID, s, s+1+r.Int63n(deltaConfig.MaxLen))
		}
		out = append(out, next)
		cur = next
	}
	return out
}

func encodeSolve(inst job.Instance) (solveInput, error) {
	body, err := json.Marshal(server.Request{Instance: &inst})
	if err != nil {
		return solveInput{}, fmt.Errorf("encoding request: %v", err)
	}
	return solveInput{in: inst, body: body}, nil
}

// genStream builds the pre-built journal (closed sessions the store
// recovers at set-up) and each client's sessions.
func (in *inputs) genStream() error {
	var pre bytes.Buffer
	for k := 0; k < in.p.streamPre; k++ {
		_, recs, err := streamSession(subSeed(in.seed, tagStreamPre, k), fmt.Sprintf("pre-%d", k), k)
		if err != nil {
			return err
		}
		if err := journal.EncodeRecords(&pre, recs); err != nil {
			return err
		}
	}
	in.preJournal = pre.Bytes()
	in.digest.Write(in.preJournal)
	in.sessions = make([][]streamInput, clients)
	for c := range in.sessions {
		for k := 0; k < in.p.streamSessions; k++ {
			s, _, err := streamSession(subSeed(in.seed, tagStream, c, k), fmt.Sprintf("c%d-s%d", c, k), k)
			if err != nil {
				return err
			}
			in.digest.Write(s.header)
			in.digest.Write(s.lines.buf)
			in.sessions[c] = append(in.sessions[c], s)
		}
	}
	return nil
}

// streamParams is session k's strategy: even sessions use the default
// (strongest registered) strategy, odd ones admission control under the
// fixed budget.
func streamParams(k int) (strategy string, budget int64) {
	if k%2 == 1 {
		return "online-budget", streamBudget
	}
	return "", 0
}

// streamSession generates one session's arrivals and its certified
// journal records.
func streamSession(seed int64, id string, k int) (streamInput, []journal.Record, error) {
	arr := workload.WeightedArrivals(seed, workload.Config{N: streamN, G: streamG, MaxTime: streamTime, MaxLen: streamMaxLen})
	strategy, budget := streamParams(k)
	header, err := json.Marshal(server.StreamOpen{G: streamG, Strategy: strategy, Budget: budget, Session: id})
	if err != nil {
		return streamInput{}, nil, err
	}
	s := streamInput{session: id, header: append(header, '\n')}
	jarr := make([]journal.Arrival, len(arr.Jobs))
	for i, j := range arr.Jobs {
		line, err := json.Marshal(server.StreamArrival{ID: j.ID, Start: j.Start(), End: j.End(), Weight: j.Weight})
		if err != nil {
			return streamInput{}, nil, err
		}
		s.lines.add(append(line, '\n'))
		s.ids = append(s.ids, j.ID)
		jarr[i] = journal.ArrivalOf(j)
	}
	canonical := strategy
	if canonical == "" {
		alg, err := registry.For(registry.Online, igraph.General)
		if err != nil {
			return streamInput{}, nil, err
		}
		canonical = alg.Name
	}
	recs, cert, err := journal.Certify(id, journal.OpenParams{G: streamG, Strategy: canonical, Budget: budget}, jarr)
	if err != nil {
		return streamInput{}, nil, fmt.Errorf("certifying session %s: %v", id, err)
	}
	s.wantClose, err = json.Marshal(server.WireStreamClose(cert.Summary, id, cert.Chain))
	if err != nil {
		return streamInput{}, nil, err
	}
	return s, recs, nil
}
