package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/assign"
	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/statestore"
	"repro/internal/transport"
	"repro/internal/workload"
)

// The probes run after a traced run, on its own artefacts: the job's source,
// one generated period, the frame size the run measured, the states in its
// checkpoint store and its final snapshot. Each calls a layer's exported
// functions directly, so the number is that layer's alone; the spans say how
// much of a period the layer is, the probes how fast it is by itself.

const (
	probePeriods = 16   // periods of source output the generation probe draws
	probeFrame   = 256  // items per frame in the codec probe
	probeFrames  = 4000 // frames per transport throughput probe
	probePings   = 500  // round trips of the TCP latency probe
	probeRepeats = 5    // passes of the encode, codec and statestore probes
	probeSolves  = 5    // solves per time limit of the assign probe
	// probeFirstPeriod is the first period the source probes generate.
	probeFirstPeriod = warmupPeriods + 1
)

// source rebuilds the job's source as internal/workload/jobs.go configures
// it (a Topology does not expose its sources).
func (w *workloadDef) source(seed int64) engine.PartSourceFunc {
	if w.job == "rj1" {
		return workload.WikipediaParts(workload.WikipediaConfig{BaseRate: w.rate, Seed: seed})
	}
	return workload.AirlineParts(workload.AirlineConfig{Rate: w.rate, Seed: seed})
}

// genProbe runs the source standalone over probePeriods periods, whole and as
// the four parts a four-generator engine would run, and returns the tuples
// each way emitted and the wall-clock each took. The emit only counts: the
// tuple pool's release is not exported, so dropped tuples go to the garbage
// collector.
func genProbe(src engine.PartSourceFunc) (whole, parts int, wholeTime, partsTime time.Duration) {
	start := time.Now()
	for p := probeFirstPeriod; p < probeFirstPeriod+probePeriods; p++ {
		src(p, 0, 1, func(*engine.Tuple) { whole++ })
	}
	wholeTime = time.Since(start)
	start = time.Now()
	for p := probeFirstPeriod; p < probeFirstPeriod+probePeriods; p++ {
		for part := 0; part < 4; part++ {
			src(p, part, 4, func(*engine.Tuple) { parts++ })
		}
	}
	return whole, parts, wholeTime, time.Since(start)
}

func warn(what string, err error) {
	fmt.Fprintf(os.Stderr, "bench: %s probe skipped: %v\n", what, err)
}

// probe fills in the per-layer metrics that come from calling the layers
// directly. A probe that cannot run leaves its metrics at 0 and says why on
// standard error.
func probe(w *workloadDef, seed int64, in *instance, maxMigrations int, v values) {
	src := w.source(seed)
	probeWorkload(src, v)
	probeEncoding(src, v)
	probeTransport(max(int(v["engine.bytes_per_frame"].v), 64), v)
	probeStatestore(in.eng, v)
	probeAssign(in.eng, seed, maxMigrations, v)
}

// probeWorkload: generation cost, and what replay-and-filter parts multiply
// it by.
func probeWorkload(src engine.PartSourceFunc, v values) {
	whole, parts, wholeTime, partsTime := genProbe(src)
	if whole != parts {
		warn("workload", fmt.Errorf("4 parts emitted %d tuples, the whole source %d", parts, whole))
		return
	}
	v["workload.gen_ns_per_tuple"] = value{ratio(float64(wholeTime), float64(whole)), whole}
	v["workload.gen_parts4_cpu_ratio"] = value{ratio(float64(partsTime), float64(wholeTime)), 0}
}

// probeEncoding: Tuple.EncodeV2 with a per-frame dictionary over one
// generated period, then codec framing of the encoded records.
func probeEncoding(src engine.PartSourceFunc, v values) {
	var batch []*engine.Tuple
	src(probeFirstPeriod, 0, 1, func(t *engine.Tuple) { batch = append(batch, t) })
	var dict codec.Dict
	var buf []byte
	wire := 0
	start := time.Now()
	for r := 0; r < probeRepeats; r++ {
		wire = 0
		for i, t := range batch {
			if i%probeFrame == 0 { // next frame: fresh dictionary
				dict.Reset()
				wire += len(buf)
				buf = buf[:0]
			}
			buf = t.EncodeV2(buf, &dict)
		}
		wire += len(buf)
		buf = buf[:0]
	}
	encode := time.Since(start)
	v["engine.encode_ns_per_tuple"] = value{ratio(float64(encode), float64(len(batch)*probeRepeats)), len(batch)}
	v["engine.encode_bytes_per_tuple"] = value{ratio(float64(wire), float64(len(batch))), len(batch)}

	dict.Reset()
	records := make([][]byte, len(batch))
	for i, t := range batch {
		records[i] = t.EncodeV2(nil, &dict)
	}
	items := 0
	var frame []byte
	start = time.Now()
	for r := 0; r < probeRepeats; r++ {
		for lo := 0; lo < len(records); lo += probeFrame {
			frame = frame[:0]
			for _, rec := range records[lo:min(lo+probeFrame, len(records))] {
				frame = codec.AppendBatchItem(frame, rec)
			}
			if err := codec.DecodeBatch(frame, func([]byte) error { items++; return nil }); err != nil {
				warn("codec", err)
				return
			}
		}
	}
	v["codec.frame_ns_per_item"] = value{ratio(float64(time.Since(start)), float64(items)), items}
}

// probeTransport: frames of the size the run shipped, over both transports.
func probeTransport(size int, v values) {
	if d, _, err := shipFrames(transport.NewMemCluster(1), size); err != nil {
		warn("transport mem", err)
	} else {
		v["transport.mem_us_per_frame"] = value{us(d) / probeFrames, probeFrames}
	}
	eps, err := tcpPair()
	if err != nil {
		warn("transport tcp", err)
		return
	}
	d, rtt, err := shipFrames(eps, size)
	if err != nil {
		warn("transport tcp", err)
		return
	}
	v["transport.tcp_us_per_frame"] = value{us(d) / probeFrames, probeFrames}
	v["transport.tcp_mb_per_s"] = value{float64(size) * probeFrames / mb / d.Seconds(), probeFrames}
	v["transport.tcp_rtt_us_p50"] = medianOf(rtt)
}

// probeStatestore: the states the run checkpointed, encoded, decoded,
// checkpointed into a fresh store and checkpointed again unchanged.
// steady-rj1 takes no checkpoint while it is measured, so one is taken now.
func probeStatestore(eng *engine.Engine, v values) {
	store := eng.CheckpointStore()
	if store == nil {
		eng.TakeCheckpoint()
		store = eng.CheckpointStore()
	}
	var states []*statestore.State
	var encoded [][]byte
	total := 0
	for _, gid := range store.Groups() {
		if st, _, ok := store.Materialize(gid); ok {
			enc := st.Encode(nil)
			states, encoded, total = append(states, st), append(encoded, enc), total+len(enc)
		}
	}
	volume := float64(total*probeRepeats) / mb
	var buf []byte
	start := time.Now()
	for r := 0; r < probeRepeats; r++ {
		for _, st := range states {
			buf = st.Encode(buf[:0])
		}
	}
	v["statestore.encode_mb_per_s"] = value{ratio(volume, time.Since(start).Seconds()), len(states)}
	start = time.Now()
	for r := 0; r < probeRepeats; r++ {
		for _, enc := range encoded {
			if _, err := statestore.DecodeState(enc); err != nil {
				warn("statestore", err)
				return
			}
		}
	}
	v["statestore.decode_mb_per_s"] = value{ratio(volume, time.Since(start).Seconds()), len(states)}
	var full, noop time.Duration
	for r := 0; r < probeRepeats; r++ {
		fresh := statestore.New()
		start = time.Now()
		for gid, st := range states {
			fresh.Checkpoint(gid, 1, st)
		}
		full += time.Since(start)
		start = time.Now()
		for gid, st := range states {
			fresh.Checkpoint(gid, 2, st)
		}
		noop += time.Since(start)
	}
	v["statestore.checkpoint_full_mb_per_s"] = value{ratio(volume, full.Seconds()), len(states)}
	v["statestore.checkpoint_noop_us_per_group"] = value{ratio(us(noop), float64(len(states)*probeRepeats)), len(states)}
}

// probeAssign: the anytime curve of the solver on the run's final snapshot,
// under the workload's migration budget.
func probeAssign(eng *engine.Engine, seed int64, maxMigrations int, v values) {
	snap, err := eng.Snapshot()
	if err != nil {
		warn("assign", err)
		return
	}
	snap.MaxMigrations = maxMigrations
	problem := snap.Problem()
	for _, c := range []struct {
		name  string
		limit time.Duration
	}{{"assign.solve_d_at_5ms", 5 * time.Millisecond}, {"assign.solve_d_at_25ms", 25 * time.Millisecond}} {
		var d []float64
		for i := int64(0); i < probeSolves; i++ {
			sol, err := assign.Solve(problem, assign.Options{TimeLimit: c.limit, Seed: seed + i})
			if err != nil {
				warn("assign", err)
				return
			}
			d = append(d, sol.Eval.D)
		}
		v[c.name] = value{mean(d), len(d)}
	}
}

// tcpPair forms a two-peer TCP cluster inside this process: the controller
// endpoint and one worker endpoint, joined over loopback.
func tcpPair() ([]transport.Endpoint, error) {
	host, err := transport.ListenCluster("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	type joined struct {
		ep  transport.Endpoint
		err error
	}
	worker := make(chan joined, 1)
	go func() {
		ep, _, err := transport.JoinCluster(host.Addr(), "127.0.0.1:0", 1)
		worker <- joined{ep, err}
	}()
	if err := host.Accept(1); err != nil {
		return nil, err
	}
	ctrl, err := host.Start([][]byte{nil})
	if err != nil {
		return nil, err
	}
	j := <-worker
	if j.err != nil {
		ctrl.Close()
		return nil, j.err
	}
	return []transport.Endpoint{ctrl, j.ep}, nil
}

// shipFrames sends probeFrames frames of the given size from peer 0 to peer
// 1 as fast as the link takes them and returns the time until the last one
// was received, then measures probePings round trips of a small frame
// (milliseconds are too coarse: the values are microseconds). It closes both
// endpoints.
func shipFrames(eps []transport.Endpoint, size int) (time.Duration, []float64, error) {
	done := make(chan struct{})
	defer func() {
		close(done)
		eps[0].Close()
		eps[1].Close()
	}()
	payload := make([]byte, size)
	// Peer 1 swallows the bulk frames, echoes the last one as the
	// acknowledgement and every frame after it.
	go func() {
		for seen := 1; ; seen++ {
			select {
			case fr, ok := <-eps[1].Recv():
				if !ok {
					return
				}
				if seen < probeFrames {
					codec.PutBuf(fr.Data)
				} else if eps[1].Send(0, fr.Data) != nil {
					return
				}
			case <-done:
				return
			}
		}
	}()
	start := time.Now()
	for i := 0; i < probeFrames; i++ {
		if err := eps[0].Send(1, append(codec.GetBuf(), payload...)); err != nil {
			return 0, nil, err
		}
	}
	if err := awaitFrame(eps[0]); err != nil {
		return 0, nil, err
	}
	bulk := time.Since(start)
	rtt := make([]float64, 0, probePings)
	for i := 0; i < probePings; i++ {
		start = time.Now()
		if err := eps[0].Send(1, append(codec.GetBuf(), payload[:64]...)); err != nil {
			return 0, nil, err
		}
		if err := awaitFrame(eps[0]); err != nil {
			return 0, nil, err
		}
		rtt = append(rtt, us(time.Since(start)))
	}
	return bulk, rtt, nil
}

// awaitFrame receives one frame, giving up after a generous timeout so that a
// broken link fails the probe instead of hanging the benchmark.
func awaitFrame(ep transport.Endpoint) error {
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	select {
	case fr := <-ep.Recv():
		codec.PutBuf(fr.Data)
		return nil
	case p := <-ep.Down():
		return fmt.Errorf("peer %d went down", p)
	case <-timer.C:
		return fmt.Errorf("no frame within 10s")
	}
}
