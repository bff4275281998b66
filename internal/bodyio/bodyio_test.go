package bodyio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestGzipRoundTrip: pooled writers and readers stay interchangeable
// with the standard library across reuse, including the empty body.
func TestGzipRoundTrip(t *testing.T) {
	for i, body := range []string{"", "x", strings.Repeat(`{"k":"v"},`, 5000), "tail"} {
		var buf bytes.Buffer
		if err := Gzip(&buf, []byte(body)); err != nil {
			t.Fatal(err)
		}
		std, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := io.ReadAll(std); err != nil || string(got) != body {
			t.Fatalf("body %d: stdlib reads %d bytes, %v", i, len(got), err)
		}
		got, err := Gunzip(buf.Bytes(), int64(len(body)))
		if err != nil || string(got) != body {
			t.Fatalf("body %d: Gunzip = %d bytes, %v", i, len(got), err)
		}
	}
}

// TestGunzipLimitsAndGarbage: output past the limit is ErrTooLarge,
// garbage and truncated input are errors, and a lying trailer length
// only sizes the buffer, never the result.
func TestGunzipLimitsAndGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := Gzip(&buf, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := Gunzip(buf.Bytes(), 4095); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over limit = %v, want ErrTooLarge", err)
	}
	if _, err := Gunzip([]byte("not gzip at all"), 1<<20); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Gunzip(buf.Bytes()[:buf.Len()/2], 1<<20); err == nil {
		t.Error("truncated stream accepted")
	}
	lying := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(lying[len(lying)-4:], 0xffffffff)
	if _, err := Gunzip(lying, 1<<20); err == nil {
		t.Error("stream with a wrong trailer length accepted")
	}
}

// TestReadAllPresized: a correct hint costs exactly one buffer; a wrong
// one (too small, too large, negative) still reads the whole body.
func TestReadAllPresized(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 10000)
	for _, hint := range []int64{int64(len(body)), 0, -1, 7, 4 * int64(len(body))} {
		got, err := ReadAll(iotest.HalfReader(bytes.NewReader(body)), hint)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("hint %d: %d bytes, %v", hint, len(got), err)
		}
	}
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(body)
		if _, err := ReadAll(r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("exact hint: %.0f allocations, want 1", allocs)
	}
	if _, err := ReadAll(iotest.ErrReader(io.ErrUnexpectedEOF), 10); err != io.ErrUnexpectedEOF {
		t.Errorf("reader error = %v, want it passed through", err)
	}
}

// TestReadAllDistrustsHint: a hint far beyond the body reserves at most
// maxPresize before bytes arrive, and a body longer than maxPresize
// with an exact hint grows by doubling toward it, a few buffers in all.
func TestReadAllDistrustsHint(t *testing.T) {
	got, err := ReadAll(strings.NewReader("tiny"), 1<<30)
	if err != nil || string(got) != "tiny" || cap(got) > maxPresize+1 {
		t.Fatalf("lying hint: %q (cap %d), %v; want cap <= %d", got, cap(got), err, maxPresize+1)
	}
	body := make([]byte, 3*maxPresize+5)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset(body)
		got, err := ReadAll(r, int64(len(body)))
		if err != nil || len(got) != len(body) {
			t.Fatalf("long body: %d bytes, %v", len(got), err)
		}
	})
	if allocs > 3 { // maxPresize, then 2x, then the hint
		t.Errorf("long body, exact hint: %.0f allocations, want <= 3", allocs)
	}
}
