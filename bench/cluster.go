package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/distrib"
	"repro/internal/engine"
	"repro/internal/transport"
)

const (
	// joinTimeout bounds each step of cluster formation: a worker that has
	// not joined (or a mesh that has not completed) by then fails the
	// workload instead of hanging the benchmark.
	joinTimeout = 10 * time.Second
	// exitTimeout is how long a worker gets to exit after the controller's
	// bye before it is killed.
	exitTimeout = 5 * time.Second
)

// workerProc is one worker OS process: the bench binary re-executed in
// worker mode. done is closed once the process has been reaped.
type workerProc struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

// cluster is the set of worker processes behind a TCP workload.
type cluster struct {
	workers []*workerProc
}

// usage is CPU time and peak memory of a set of processes.
type usage struct {
	cpu    time.Duration
	rssMax int64 // bytes, summed over the processes
}

func rusageOf(ru *syscall.Rusage) usage {
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{cpu: cpu, rssMax: ru.Maxrss << 10} // Linux reports KiB
}

func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return rusageOf(&ru)
}

// runWorker is the worker mode of the bench binary: the one call
// cmd/albic-node makes.
func runWorker(controllerAddr string) error {
	return distrib.RunWorker(controllerAddr, "127.0.0.1:0", 1)
}

// spawnWorker starts one worker process pointed at the controller address.
// Its stderr is the benchmark's stderr, so a worker's failure is seen; it is
// killed when ctx is cancelled (signal or error path).
func spawnWorker(ctx context.Context, addr string) (*workerProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate bench binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe, "-worker", addr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start worker: %w", err)
	}
	w := &workerProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		w.err = cmd.Wait()
		close(w.done)
	}()
	return w, nil
}

// await waits for step to finish, failing early when ctx ends, the timeout
// passes or the named worker exits first. On failure step's goroutine is
// left blocked in the transport's accept loop, which has no exported way to
// be interrupted; it holds one listener until the process exits.
func await(ctx context.Context, what string, timeout time.Duration, w *workerProc, step func() error) error {
	res := make(chan error, 1)
	go func() { res <- step() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-res:
		return err
	case <-w.done:
		return fmt.Errorf("%s: worker exited first: %v", what, w.err)
	case <-timer.C:
		return fmt.Errorf("%s: not done within %s", what, timeout)
	case <-ctx.Done():
		return fmt.Errorf("%s: %w", what, ctx.Err())
	}
}

// startCluster forms the TCP cluster of a workload: it listens on an
// ephemeral loopback port, starts the workers one at a time so that peer ids
// follow spawn order, and returns the controller engine once the mesh is up.
// On any error every worker already started is killed and reaped.
func startCluster(ctx context.Context, spec distrib.JobSpec, workers int) (*engine.Engine, *cluster, error) {
	host, err := transport.ListenCluster("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	c := &cluster{}
	fail := func(err error) (*engine.Engine, *cluster, error) {
		c.kill()
		return nil, nil, err
	}
	for i := 1; i <= workers; i++ {
		w, err := spawnWorker(ctx, host.Addr())
		if err != nil {
			return fail(err)
		}
		c.workers = append(c.workers, w)
		what := fmt.Sprintf("worker %d join", i)
		if err := await(ctx, what, joinTimeout, w, func() error { return host.Accept(i) }); err != nil {
			return fail(err)
		}
	}
	var eng *engine.Engine
	err = await(ctx, "cluster mesh", joinTimeout, c.workers[0], func() (err error) {
		eng, err = distrib.StartHost(host, workers, spec)
		return err
	})
	if err != nil {
		return fail(err)
	}
	return eng, c, nil
}

// kill stops every worker and waits until each has been reaped.
func (c *cluster) kill() {
	for _, w := range c.workers {
		_ = w.cmd.Process.Kill() // already-exited processes report an error we do not need
	}
	for _, w := range c.workers {
		<-w.done
	}
}

// wait reaps the workers after the controller engine has been closed (which
// tells them to exit), killing any that overstays, and returns their summed
// resource usage. A worker that did not exit cleanly is an error.
func (c *cluster) wait() (usage, error) {
	var total usage
	var errs []error
	for i, w := range c.workers {
		timer := time.NewTimer(exitTimeout)
		select {
		case <-w.done:
		case <-timer.C:
			_ = w.cmd.Process.Kill()
			<-w.done
		}
		timer.Stop()
		if w.err != nil {
			errs = append(errs, fmt.Errorf("worker %d: %w", i+1, w.err))
		}
		if ru, ok := w.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u := rusageOf(ru)
			total.cpu += u.cpu
			total.rssMax += u.rssMax
		}
	}
	return total, errors.Join(errs...)
}
