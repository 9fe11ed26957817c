package service

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http/httptest"
	"testing"

	"graphpi/internal/perm"
)

// countingWriter is a ResponseRecorder that counts the writes reaching it.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}

// TestNDJSONStreamBytes pins the /enumerate line format to json.Marshal's
// bytes for a []uint32, with and without a respelling, and checks that the
// lines leave in blocks: one write per ndjsonFlushBytes gathered, and the
// status line only with the first block.
func TestNDJSONStreamBytes(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	st := &ndjsonStream{w: w}
	var want bytes.Buffer
	lines := 0
	for w.writes == 0 || lines < 20000 {
		n := 1 + rng.IntN(9)
		emb := make([]uint32, n)
		for i := range emb {
			switch rng.IntN(3) {
			case 0:
				emb[i] = uint32(rng.IntN(10))
			case 1:
				emb[i] = rng.Uint32()
			default:
				emb[i] = uint32(rng.IntN(1 << 20))
			}
		}
		var iso perm.Perm
		respelled := emb
		if rng.IntN(2) == 0 {
			iso = make(perm.Perm, n)
			for i, p := range rng.Perm(n) {
				iso[i] = uint8(p)
			}
			respelled = make([]uint32, n)
			for u := range iso {
				respelled[u] = emb[iso[u]]
			}
		}
		line, err := json.Marshal(respelled)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(line, '\n'))
		before := w.writes
		if !st.emit(emb, iso) {
			t.Fatal("emit reported a failed write")
		}
		if w.writes > before && len(st.buf) != 0 {
			t.Fatalf("a flush left %d bytes behind", len(st.buf))
		}
		if w.writes == 0 && (w.Body.Len() != 0 || w.Header().Get("Content-Type") != "") {
			t.Fatal("the response began before a block was full")
		}
		lines++
	}
	st.flush()
	if got := w.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stream differs from json.Marshal's lines (got %d bytes, want %d)", len(got), want.Len())
	}
	if maxWrites := want.Len()/ndjsonFlushBytes + 1; w.writes > maxWrites {
		t.Fatalf("%d lines took %d writes, want at most %d", lines, w.writes, maxWrites)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
}
