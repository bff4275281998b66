// Package bodyio holds the byte plumbing the control plane shares
// between its client and server: gzip compression through pooled
// writers and readers, and whole-body reads presized from a known
// length.
//
// A gzip.Writer zeroes about 1 MB of deflate state when it is created
// and a gzip.Reader allocates its window; a shard-result upload or a
// journal checkpoint that creates a fresh one per body pays that every
// time. Pooling with Reset pays it once per pooled instance.
package bodyio

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"sync"
)

// Level is the one gzip level for every compressed body: shard-result
// uploads and journal checkpoints. Pooled writers keep the level they
// were created with, so it is a constant, not a knob.
const Level = gzip.DefaultCompression

// maxDeflateRatio bounds how far one compressed byte can expand
// (deflate tops out near 1032:1). A gzip trailer's length field is
// untrusted, so a presize hint never exceeds this multiple of the
// compressed input: a tiny body cannot buy a large allocation.
const maxDeflateRatio = 1032

// ErrTooLarge reports decompressed output beyond the caller's limit.
var ErrTooLarge = errors.New("bodyio: decompressed body exceeds the limit")

var (
	writers = sync.Pool{New: func() any {
		zw, _ := gzip.NewWriterLevel(nil, Level) // Level is valid
		return zw
	}}
	readers sync.Pool // *gzip.Reader
)

// Gzip compresses p into dst as one gzip member, using a pooled writer.
func Gzip(dst io.Writer, p []byte) error {
	zw := writers.Get().(*gzip.Writer)
	defer writers.Put(zw)
	zw.Reset(dst)
	if _, err := zw.Write(p); err != nil {
		return err
	}
	return zw.Close()
}

// Gunzip decompresses a whole gzip body with a pooled reader. Output
// beyond limit bytes is ErrTooLarge. The output buffer is presized
// from the gzip trailer's length field, capped at limit and at what
// the input could possibly expand to.
func Gunzip(p []byte, limit int64) ([]byte, error) {
	zr, _ := readers.Get().(*gzip.Reader)
	if zr == nil {
		zr = new(gzip.Reader) // Reset initializes a zero Reader
	}
	defer readers.Put(zr)
	if err := zr.Reset(bytes.NewReader(p)); err != nil {
		return nil, err
	}
	hint := int64(0)
	if len(p) >= 8 {
		hint = int64(binary.LittleEndian.Uint32(p[len(p)-4:]))
	}
	hint = min(hint, limit, int64(len(p))*maxDeflateRatio)
	out, err := ReadAll(io.LimitReader(zr, limit+1), hint)
	if err != nil {
		return nil, err
	}
	if int64(len(out)) > limit {
		return nil, ErrTooLarge
	}
	return out, nil
}

// maxPresize caps the buffer a hint can reserve before any byte has
// arrived. It covers the control plane's usual bodies (shard uploads,
// the benchmark datasets) in one allocation.
const maxPresize = 4 << 20

// ReadAll is io.ReadAll with the buffer sized from hint — a
// Content-Length or a gzip trailer — so a body of known size costs a
// few allocations instead of a long doubling series. The hint is
// untrusted: the first buffer holds at most maxPresize bytes, and past
// that the buffer only doubles toward the hint as bytes land, so a
// header that lies buys at most maxPresize plus twice what was sent.
// The read still runs to EOF whatever the hint.
func ReadAll(r io.Reader, hint int64) ([]byte, error) {
	hint = max(hint, 0)
	// One spare byte lets the final read report EOF without growing.
	b := make([]byte, 0, min(hint, maxPresize)+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			if next := min(2*int64(cap(b)), hint+1); next > int64(cap(b)) {
				b = append(make([]byte, 0, next), b...)
			} else {
				b = append(b, 0)[:len(b)] // past the hint: append's policy
			}
		}
	}
}
