package registry_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/igraph"
	"repro/internal/job"
	"repro/internal/registry"
)

// goldenPath holds the dispatch golden file shared with the facade's
// Solver tests; its header documents the format.
const goldenPath = "../../testdata/dispatch_golden.txt"

// goldenCase is one instance of the golden file with the header lines
// ("case ..." and "jobs ...") it was read from.
type goldenCase struct {
	head, jobs string
	in         job.Instance
}

// readGolden splits the golden file into its comment header and cases.
func readGolden(t *testing.T) (header string, cases []goldenCase, raw []byte) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var hdr strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
			hdr.WriteString(line + "\n")
		case strings.HasPrefix(line, "case "):
			cases = append(cases, goldenCase{head: line})
		case strings.HasPrefix(line, "jobs "):
			c := &cases[len(cases)-1]
			c.jobs = line
			c.in = parseGoldenCase(t, c.head, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return hdr.String(), cases, raw
}

// parseGoldenCase rebuilds the instance of a "case NAME g=G ..." line
// and its "jobs s-e[*w] ..." line.
func parseGoldenCase(t *testing.T, head, jobs string) job.Instance {
	t.Helper()
	var name string
	var g int
	if _, err := fmt.Sscanf(head, "case %s g=%d", &name, &g); err != nil {
		t.Fatalf("%q: %v", head, err)
	}
	in := job.Instance{G: g}
	for i, f := range strings.Fields(strings.TrimPrefix(jobs, "jobs ")) {
		span, weight, weighted := strings.Cut(f, "*")
		lo, hi, _ := strings.Cut(span, "-")
		s, err1 := strconv.ParseInt(lo, 10, 64)
		e, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: bad job %q", head, f)
		}
		j := job.New(i, s, e)
		if weighted {
			w, err := strconv.ParseInt(weight, 10, 64)
			if err != nil {
				t.Fatalf("%s: bad weight in %q", head, f)
			}
			j.Weight = w
		}
		in.Jobs = append(in.Jobs, j)
	}
	return in
}

// digest is the golden file's assignment digest.
func digest(s core.Schedule) string {
	h := sha256.New()
	for _, m := range s.Machine {
		fmt.Fprintf(h, "%d,", m)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRegistryDispatchGolden requires registry auto dispatch to
// reproduce the golden file byte for byte: every algorithm name, cost
// and machine assignment on every case, disconnected instances included.
// The golden results were captured from the class switches the registry
// dispatchers replaced, so this is the differential test against them.
func TestRegistryDispatchGolden(t *testing.T) {
	ctx := context.Background()
	header, cases, want := readGolden(t)
	if len(cases) < 360 {
		t.Fatalf("golden file has %d cases, want at least 360", len(cases))
	}
	var got bytes.Buffer
	got.WriteString(header)
	for _, c := range cases {
		class := igraph.Classify(c.in.Jobs)
		fmt.Fprintf(&got, "\n%s\n%s\n", c.head, c.jobs)
		s, name, err := registry.DispatchMinBusy(ctx, c.in, class, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.head, err)
		}
		fmt.Fprintf(&got, "min-busy class=%s algorithm=%s cost=%d digest=%s\n", class, name, s.Cost(), digest(s))
		ps, pname, err := registry.DispatchMinBusy(ctx, c.in, class, 3)
		if err != nil || pname != name || digest(ps) != digest(s) {
			t.Errorf("%s: 3 workers gave %s/%s (err %v), 1 worker %s/%s", c.head, pname, digest(ps), err, name, digest(s))
		}
		for _, budget := range []int64{c.in.LowerBound(), c.in.TotalLen() / 2} {
			s, name, err := registry.DispatchThroughput(ctx, c.in, budget, class)
			if err != nil {
				t.Fatalf("%s budget %d: %v", c.head, budget, err)
			}
			fmt.Fprintf(&got, "max-throughput budget=%d algorithm=%s scheduled=%d cost=%d digest=%s\n", budget, name, s.Throughput(), s.Cost(), digest(s))
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("dispatch diverges from %s at line %d:\n got: %s\nwant: %s", goldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("dispatch output has %d lines, %s has %d", len(gl), goldenPath, len(wl))
	}
}
