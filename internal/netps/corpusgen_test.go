// Regenerates the committed fuzz corpus seeds for codec-bearing and
// cross-iteration frames. The committed files keep the codec envelope
// (codec id + original length) and the pipelined two-iterations-in-flight
// wire shapes regression-tested by plain `go test` even where fuzzing
// never runs.
//
// Refresh after a framing change with:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/netps/ -run 'TestGenerate.*Corpus'
package netps

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestGenerateCodecCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMessage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := []message{
		{Op: OpPush, Codec: 1, Iter: 5, Seq: 11, Orig: 8,
			Key: "w0/L07[0/4]", Payload: []byte{0x3c, 0x00, 0xbc, 0x00}},
		{Op: OpPush, Codec: 2, Iter: 5, Seq: 12, Orig: 12,
			Key: "w0/L07[1/4]", Payload: []byte{0x3c, 0x81, 0x02, 0x04, 0x7f, 0x81, 0x00}},
		{Op: OpPull, Codec: 3, Iter: 5, Orig: 16,
			Key: "w0/L07[2/4]", Payload: []byte{0, 0, 0, 1, 0, 0, 0, 0, 0x3f, 0x80, 0, 0}},
	}
	for i, m := range seeds {
		var b bytes.Buffer
		if err := writeMessageVec(&b, m); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b.String())
		name := filepath.Join(dir, fmt.Sprintf("codec%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenerateCrossIterCorpus writes the cross-iteration seeds: frames and
// batches mixing iteration i and i+1 for the same tensor key, the wire
// shape cross-iteration pipelining puts on one connection.
func TestGenerateCrossIterCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	write := func(dir, name string, payload []byte) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", string(payload))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	msgDir := filepath.Join("testdata", "fuzz", "FuzzDecodeMessage")
	singles := []message{
		{Op: OpPush, Iter: 6, Seq: 20, Key: "w0/L00[0/2]", Payload: []byte{1, 2, 3, 4}},
		{Op: OpPush, Iter: 7, Seq: 21, Key: "w0/L00[0/2]", Payload: []byte{5, 6, 7, 8}},
		{Op: OpPull, Iter: 7, Key: "w0/L00[1/2]"},
	}
	for i, m := range singles {
		var b bytes.Buffer
		if err := writeMessageVec(&b, m); err != nil {
			t.Fatal(err)
		}
		write(msgDir, fmt.Sprintf("xiter%02d", i), b.Bytes())
	}
	batch, err := appendBatch(nil, []message{
		{Op: OpPush, Iter: 6, Seq: 5, Key: "w1/L02[0/2]", Payload: []byte{1, 2, 3, 4}},
		{Op: OpPush, Iter: 7, Seq: 6, Key: "w1/L02[0/2]", Payload: []byte{5, 6, 7, 8}},
		{Op: OpPull, Iter: 6, Key: "w1/L02[1/2]"},
	})
	if err != nil {
		t.Fatal(err)
	}
	write(filepath.Join("testdata", "fuzz", "FuzzDecodeBatch"), "xiter00", batch)
}
