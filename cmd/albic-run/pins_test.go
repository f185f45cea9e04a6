package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/distrib"
)

// TestMain doubles as the two programs a pinned run needs, so that nothing is
// built: with ALBIC_PIN_AS=albic-run the test binary is albic-run (its
// arguments are albic-run's), with ALBIC_PIN_AS=worker it is an albic-node
// joining the controller named by its one argument.
func TestMain(m *testing.M) {
	switch os.Getenv("ALBIC_PIN_AS") {
	case "albic-run":
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	case "worker":
		if err := distrib.RunWorker(os.Args[1], "127.0.0.1:0", 1); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The runs whose tables neither the core count nor the process layout may
// change: each prints testdata/<name>.txt, minus the wall-clock plan_ms
// column (and, over TCP, the listening line before the table). Every balancer here but ALBIC reads no clock;
// the ALBIC runs converge well inside their 25 ms solver deadline.
const small = "-nodes 6 -groups 24 -rate 1200 -seed 7 "

var pinned = []struct{ name, args string }{
	{"albic-rj2-ckpt", small + "-job rj2 -periods 12 -budget 4 -ckpt-every 3 -pipelined=false"},
	{"albic-rj2-ckpt-pipelined", small + "-job rj2 -periods 12 -budget 4 -ckpt-every 3"},
	{"flux-rj1-ckpt-pipelined", small + "-job rj1 -balancer flux -periods 24 -ckpt-every 3"},
	{"potc-rj1-pipelined", small + "-job rj1 -balancer potc -periods 12"},
	{"flux-rj1", small + "-job rj1 -balancer flux -periods 24 -pipelined=false"},
	{"flux-rj2-pipelined", small + "-job rj2 -balancer flux -periods 24"},
	{"flux-rj2", small + "-job rj2 -balancer flux -periods 24 -pipelined=false"},
	{"flux-rj3", small + "-job rj3 -balancer flux -periods 24 -pipelined=false"},
	{"cola-rj1", small + "-job rj1 -balancer cola -periods 24 -pipelined=false"},
	{"cola-rj2", small + "-job rj2 -balancer cola -periods 24 -pipelined=false"},
	{"cola-rj3", small + "-job rj3 -balancer cola -periods 24 -pipelined=false"},
	{"potc-rj2", small + "-job rj2 -balancer potc -periods 24 -pipelined=false"},
	{"potc-rj3", small + "-job rj3 -balancer potc -periods 24 -pipelined=false"},
	{"none-rj1", small + "-job rj1 -balancer none -periods 24 -pipelined=false"},
	{"none-rj2", small + "-job rj2 -balancer none -periods 24 -pipelined=false"},
	{"none-rj3", small + "-job rj3 -balancer none -periods 24 -pipelined=false"},
}

// TestPinnedRuns runs every pinned run in one process at GOMAXPROCS 1, 2 and
// 4, and as 1 controller + 2 worker processes on TCP loopback, and diffs each
// table against its golden.
func TestPinnedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs albic-run 4 times per pinned run; skipping in -short")
	}
	for _, run := range pinned {
		t.Run(run.name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", run.name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			args := strings.Fields(run.args)
			for _, procs := range []int{1, 2, 4} {
				layout := fmt.Sprintf("GOMAXPROCS=%d", procs)
				cmd := self(t, "albic-run", args...)
				cmd.Env = append(cmd.Env, layout)
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%s, %s: %v", run.name, layout, err)
				}
				diffTable(t, run.name, layout, out, golden)
			}
			diffTable(t, run.name, "tcp", overTCP(t, args), golden)
		})
	}
}

// self is this test binary as role (see TestMain), its stderr passed
// through. It is killed after a minute or when the test ends, whichever is
// first, and reaped then.
func self(t *testing.T, role string, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "ALBIC_PIN_AS="+role)
	cmd.Stderr = os.Stderr
	t.Cleanup(func() {
		cancel()
		if cmd.Process != nil {
			cmd.Wait() //nolint:errcheck // a second Wait returns at once
		}
	})
	return cmd
}

// overTCP runs albic-run with args as the controller of two worker
// processes, which join the address it prints first, and returns the rest of
// its output.
func overTCP(t *testing.T, args []string) []byte {
	t.Helper()
	ctrl := self(t, "albic-run", append([]string{"-listen", "127.0.0.1:0", "-workers", "2"}, args...)...)
	stdout, err := ctrl.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(stdout)
	first, err := r.ReadString('\n')
	var addr string
	if _, serr := fmt.Sscanf(first, "listening on %s", &addr); err != nil || serr != nil {
		t.Fatalf("controller printed %q (%v), want its listening address first", first, err)
	}
	for range 2 {
		w := self(t, "worker", addr)
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Wait(); err != nil {
		t.Fatalf("tcp controller: %v", err)
	}
	return rest
}

var planMS = regexp.MustCompile(` +[0-9.]+$`)

// diffTable compares out, without each line's trailing plan_ms figure, with
// golden byte for byte, and reports the first line that differs.
func diffTable(t *testing.T, run, layout string, out, golden []byte) {
	t.Helper()
	var got strings.Builder
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if line == "" {
			continue
		}
		got.WriteString(planMS.ReplaceAllString(strings.TrimSuffix(line, "\n"), "") + "\n")
	}
	if got.String() == string(golden) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(golden), "\n")
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			t.Errorf("%s, %s: line %d is %q, golden testdata/%s.txt has %q",
				run, layout, i+1, at(g, i), run, at(w, i))
			return
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of output)"
}
