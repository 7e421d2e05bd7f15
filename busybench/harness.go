package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/journal"
	"repro/internal/server"
)

// clients is the number of closed-loop client connections: one per core
// of the 2-core machine the bounds were measured on, so the load never
// oversubscribes the CPUs the in-process server runs on.
const clients = 2

// plan sizes a run. Every round builds a fresh server, times its set-up,
// then sends one fixed-size round of work; rounds repeat until the timed
// windows add up to the run length and the latency samples support a
// p99. The quality figures (cost ratio, cache outcome shares, admitted
// fraction) are taken over the first minRounds rounds, which every run
// reaches, so they are a pure function of the seed.
type plan struct {
	seconds    time.Duration // total timed window to reach
	minRounds  int
	maxRounds  int
	minSamples int // latency samples needed for a p99 with ten beyond it

	mixWarmup, mixRound       int // solve-mix: warm-up requests, timed requests per round
	deltaPrime, deltaSteps    int // solve-delta: priming requests, chain steps per client
	streamPre, streamSessions int // stream-journal: pre-built sessions, sessions per client
	replayRequests            int // traced run: solve requests replayed per layer
	replaySessions            int // traced run: stream sessions replayed per layer
}

func fullPlan(seconds int) plan {
	return plan{
		seconds:    time.Duration(seconds) * time.Second,
		minRounds:  5,
		maxRounds:  60,
		minSamples: 1000,
		mixWarmup:  64, mixRound: 160,
		deltaPrime: 512, deltaSteps: 320,
		streamPre: 32, streamSessions: 24,
		replayRequests: 64, replaySessions: 4,
	}
}

// daemon is one in-process server on a loopback listener, configured
// with cmd/busyd's flag defaults and its request log off (-quiet).
type daemon struct {
	base   string
	store  journal.Store
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(store journal.Store) (*daemon, error) {
	if store == nil {
		store = journal.NewMemStoreWithRetention(4096)
	}
	srv, err := server.New(server.Config{
		MaxInFlight:  256,
		MaxJobs:      100000,
		MaxBatch:     1024,
		MaxBodyBytes: 8 << 20,
		ReoptCache:   512,
		Journal:      store,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{base: "http://" + ln.Addr().String(), store: store, cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	return d, nil
}

// stop drains the server, waits for Serve to return and closes the
// journal store.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// memfdCreate is the memfd_create(2) syscall number per architecture.
var memfdCreate = map[string]uintptr{"amd64": 319, "arm64": 279}

// memJournal returns an anonymous in-memory file (memfd, backed by the
// kernel's tmpfs) holding data, and the /proc path a FileStore opens it
// by. The journal then pays encode, write, fsync syscall and mirror
// upkeep but no device wait, and the benchmark writes no file outside
// its working directory.
func memJournal(data []byte) (*os.File, string, error) {
	nr, ok := memfdCreate[runtime.GOARCH]
	if !ok {
		return nil, "", fmt.Errorf("memfd_create: unsupported architecture %s", runtime.GOARCH)
	}
	name := []byte("busybench-journal\x00")
	fd, _, errno := syscall.Syscall(nr, uintptr(unsafe.Pointer(&name[0])), 1 /* MFD_CLOEXEC */, 0)
	if errno != 0 {
		return nil, "", fmt.Errorf("memfd_create: %v", errno)
	}
	f := os.NewFile(fd, "busybench-journal")
	if _, err := f.Write(data); err != nil {
		f.Close()
		return nil, "", fmt.Errorf("writing journal: %v", err)
	}
	return f, fmt.Sprintf("/proc/self/fd/%d", fd), nil
}

// fsType names the filesystem holding path, from statfs(2)'s magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x794C7630: "overlayfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// environment is recorded in every report, so that runs on different
// toolchains, core counts or journal filesystems are never compared.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	JournalFS  string `json:"journal_fs"`
}

func currentEnvironment(seed int64) environment {
	env := environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Seed: seed, JournalFS: "unknown"}
	if f, path, err := memJournal(nil); err == nil {
		env.JournalFS = fsType(path) + " (memfd)"
		f.Close()
	}
	return env
}

// cpuTicks are the machine-wide CPU time counters of /proc/stat: time
// the hypervisor gave to other guests while a vCPU wanted to run
// (steal), and all time. A run's steal share says how much of a slow
// result came from the host rather than the program.
type cpuTicks struct{ steal, total uint64 }

func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			t.steal = v
		}
	}
	return t
}

func (t cpuTicks) minus(u cpuTicks) cpuTicks { return cpuTicks{t.steal - u.steal, t.total - u.total} }
func (t *cpuTicks) add(u cpuTicks)           { t.steal += u.steal; t.total += u.total }

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile is the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// newClient returns the HTTP client all load goes through: at most one
// connection per closed-loop client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}
