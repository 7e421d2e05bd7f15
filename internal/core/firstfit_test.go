package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/workload"
)

// linearFirstFit is FirstFit with each thread a plain job list scanned
// for overlaps: the textbook algorithm of [13], kept as the test oracle
// for FirstFit's interval-treap threads.
func linearFirstFit(in job.Instance) Schedule {
	s := NewSchedule(in)
	// threads[m][t] holds the jobs on thread t of machine m.
	type thread []int
	var machines [][]thread

	fits := func(th thread, p int) bool {
		for _, q := range th {
			if in.Jobs[q].Overlaps(in.Jobs[p]) {
				return false
			}
		}
		return true
	}

	for _, p := range byLenDescOrder(in.Jobs) {
		placed := false
		for m := 0; m < len(machines) && !placed; m++ {
			for t := 0; t < len(machines[m]) && !placed; t++ {
				if fits(machines[m][t], p) {
					machines[m][t] = append(machines[m][t], p)
					s.Assign(p, m)
					placed = true
				}
			}
			if !placed && len(machines[m]) < in.G {
				machines[m] = append(machines[m], thread{p})
				s.Assign(p, m)
				placed = true
			}
		}
		if !placed {
			machines = append(machines, []thread{{p}})
			s.Assign(p, len(machines)-1)
		}
	}
	return s
}

// FirstFit's treap threads (the variant once exported as FirstFitFast)
// must produce the identical assignment to the linear oracle: same
// thread-visit order, same tie-breaking, only a faster overlap check.
func TestFirstFitFastMatchesFirstFit(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, g := range []int{1, 2, 4} {
			in := workload.General(seed, workload.Config{N: 60, G: g, MaxTime: 300, MaxLen: 80})
			a := linearFirstFit(in)
			b := FirstFit(in)
			for i := range a.Machine {
				if a.Machine[i] != b.Machine[i] {
					t.Fatalf("seed %d g %d: assignments differ at job %d: %d vs %d",
						seed, g, i, a.Machine[i], b.Machine[i])
				}
			}
		}
	}
}

func TestFirstFitFastValid(t *testing.T) {
	in := workload.Lightpaths(3, workload.Config{N: 80, G: 3, MaxTime: 500, MaxLen: 100})
	s := FirstFit(in)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Throughput() != len(in.Jobs) {
		t.Fatal("partial schedule")
	}
}

// Property: equivalence holds on arbitrary random instances, including
// heavy-overlap cliques.
func TestPropertyFirstFitFastEquivalence(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		g := int(gRaw%4) + 1
		jobs := make([]job.Job, n)
		for i := range jobs {
			s := r.Int63n(100)
			jobs[i] = job.New(i, s, s+1+r.Int63n(60))
		}
		in := job.Instance{Jobs: jobs, G: g}
		a := linearFirstFit(in)
		b := FirstFit(in)
		for i := range a.Machine {
			if a.Machine[i] != b.Machine[i] {
				return false
			}
		}
		return b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// BenchmarkScaleFirstFit times FirstFit against the linear oracle on
// general instances; the treap threads win once threads grow long.
func BenchmarkScaleFirstFit(b *testing.B) {
	for _, n := range []int{100, 1000, 4000} {
		in := workload.General(1, workload.Config{N: n, G: 4, MaxTime: int64(n) * 5, MaxLen: 200})
		for _, v := range []struct {
			name string
			run  func(job.Instance) Schedule
		}{{"treap", FirstFit}, {"linear", linearFirstFit}} {
			b.Run(fmt.Sprintf("%s/n=%d", v.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.run(in)
				}
			})
		}
	}
}
