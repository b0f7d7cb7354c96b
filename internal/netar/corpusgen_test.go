// Regenerates the committed fuzz corpus seeds for codec-bearing and
// cross-iteration ring segments. The committed files keep the codec
// envelope (codec id + original length) and the pipelined
// two-iterations-in-flight wire shapes regression-tested by plain
// `go test` even where fuzzing never runs.
//
// Refresh after a framing change with:
//
//	GEN_FUZZ_CORPUS=1 go test ./internal/netar/ -run 'TestGenerate.*Corpus'
package netar

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
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := []message{
		{Op: OpData, Codec: 1, Iter: 2, Seq: 8, Step: 3, Chunk: 1, Orig: 8,
			Key: "L05[1/4]", Payload: []byte{0x3c, 0x00, 0xbc, 0x00}},
		{Op: OpData, Codec: 2, Iter: 2, Seq: 9, Step: 4, Chunk: 2, Orig: 12,
			Key: "L05[2/4]", Payload: []byte{0x3c, 0x81, 0x02, 0x04, 0x7f, 0x81, 0x00}},
		{Op: OpData, Codec: 3, Iter: 2, Seq: 10, Step: 5, Chunk: 3, Orig: 16,
			Key: "L05[3/4]", Payload: []byte{0, 0, 0, 1, 0, 0, 0, 0, 0x3f, 0x80, 0, 0}},
	}
	for i, m := range seeds {
		var b bytes.Buffer
		if err := writeMessage(&b, m); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b.String())
		name := filepath.Join(dir, fmt.Sprintf("codec%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenerateCrossIterCorpus writes the cross-iteration seeds: segments
// for the same key at iteration i and i+1, the wire shape the streaming
// coordinated release puts in flight at once.
func TestGenerateCrossIterCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to rewrite testdata/fuzz seeds")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := []message{
		{Op: OpData, Iter: 3, Seq: 11, Step: 1, Chunk: 0, Key: "L05[1/4]", Payload: fp32Payload(1, 2)},
		{Op: OpData, Iter: 4, Seq: 12, Step: 1, Chunk: 0, Key: "L05[1/4]", Payload: fp32Payload(3, 4)},
	}
	for i, m := range seeds {
		var b bytes.Buffer
		if err := writeMessage(&b, m); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b.String())
		name := filepath.Join(dir, fmt.Sprintf("xiter%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
