package engine

import (
	"flag"
	"os"
	"testing"

	"repro/internal/codec"
)

// TestMain makes every frame this test binary recycles unreadable first
// (codec.ScribbleOnPutBuf): a decoded tuple's strings alias the frame, so a
// string that an operator or the engine kept past its Proc callback without
// copying reads as garbage here and fails the exactness and ordering suites at
// once, instead of whenever the buffer pool happens to hand the frame out
// again. A run that
// asks for benchmarks measures the path as it ships, without the scribbling.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		codec.ScribbleOnPutBuf()
	}
	os.Exit(m.Run())
}
