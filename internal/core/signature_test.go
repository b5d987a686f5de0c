package core

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"testing"
	"time"

	"github.com/diurnalnet/diurnal/internal/dataset"
	"github.com/diurnalnet/diurnal/internal/netsim"
)

var signatureHelper = flag.String("signature-helper", "", "TestRunSignatureHelper prints a run signature: \"plain\", or \"gob-first\" after gob-encoding an unrelated type")

// TestRunSignatureHelper prints the signature of a fixed config and world
// when -signature-helper is set.
func TestRunSignatureHelper(t *testing.T) {
	switch *signatureHelper {
	case "":
		t.Skip("run by TestRunSignatureIndependentOfEarlierGob")
	case "gob-first":
		type unrelated struct {
			Names []string
			Sizes map[string]int64
		}
		if err := gob.NewEncoder(io.Discard).Encode(unrelated{Names: []string{"a"}, Sizes: map[string]int64{"a": 1}}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig(q1Start, netsim.Date(2020, time.January, 29))
	world := []*dataset.WorldBlock{{Block: &netsim.Block{ID: 0x0a0b0c}}, {Block: &netsim.Block{ID: 0x0a0b0d}}}
	fmt.Printf("signature %x\n", RunSignature(cfg, world))
}

// TestRunSignatureIndependentOfEarlierGob: gob numbers the types a
// process encodes in the order it first meets them, yet a run signature
// must not depend on what its process gob-encoded before signing. Two
// fresh processes sign the same run, one after gob-encoding an unrelated
// type, and must print the same signature.
func TestRunSignatureIndependentOfEarlierGob(t *testing.T) {
	var sigs [][]byte
	for _, mode := range []string{"plain", "gob-first"} {
		out, err := exec.Command(os.Args[0], "-test.run=^TestRunSignatureHelper$", "-signature-helper", mode).CombinedOutput()
		if err != nil {
			t.Fatalf("%s helper: %v\n%s", mode, err, out)
		}
		line, _, _ := bytes.Cut(out, []byte("\n"))
		sig, ok := bytes.CutPrefix(line, []byte("signature "))
		if !ok {
			t.Fatalf("%s helper printed no signature:\n%s", mode, out)
		}
		sigs = append(sigs, sig)
	}
	if !bytes.Equal(sigs[0], sigs[1]) {
		t.Fatalf("a process that gob-encoded another type first signs the run %s, a fresh one %s", sigs[1], sigs[0])
	}
}
