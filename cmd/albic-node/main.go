// Command albic-node is one worker process of a distributed engine cluster.
// It joins the controller (an albic-run started with -listen), receives the
// job spec in the join handshake, hosts its share of the cluster's nodes, and
// serves the controller's data and control planes until the run ends.
//
// Usage:
//
//	albic-run  -listen :7070 -workers 2 -job rj2 -nodes 10 ...   # controller
//	albic-node -controller :7070                                  # worker 1
//	albic-node -controller :7070                                  # worker 2
//
// A worker contributes nothing but capacity: which node slots it hosts is the
// controller's decision (shipped in the spec), and every reconfiguration —
// periods, migrations, checkpoints, scale-out — is driven over the wire.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/distrib"
)

func main() {
	controller := flag.String("controller", "127.0.0.1:7070", "controller address to join")
	listen := flag.String("listen", "127.0.0.1:0", "address this worker accepts peer connections on")
	weight := flag.Float64("weight", 1, "capacity weight announced in the handshake (1 = baseline node)")
	flag.Parse()
	if !(*weight > 0) || math.IsInf(*weight, 1) {
		fmt.Fprintf(os.Stderr, "albic-node: -weight %g, want finite and > 0\n", *weight)
		os.Exit(2)
	}
	if err := distrib.RunWorker(*controller, *listen, *weight); err != nil {
		fmt.Fprintf(os.Stderr, "albic-node: %v\n", err)
		os.Exit(1)
	}
}
