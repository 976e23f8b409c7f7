package httpkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
)

// jsonBufPool recycles response-encoding buffers across requests.
// Encoding into a pooled buffer instead of straight to the wire saves
// an encoder allocation per response, lets the handler set
// Content-Length, and keeps an encode failure from committing a 200
// with a torn body. Buffers that ballooned (a full influencer dump) are
// dropped rather than pinned in the pool.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// MaxPooledResponseBuf bounds the capacity a buffer may keep when
// returned to a response-buffer pool.
const MaxPooledResponseBuf = 1 << 20

// WriteJSON answers status with v encoded the way every single-request
// response is: indented, Content-Length set, charset declared. Daemon
// and router share it, so a routed response is indistinguishable from a
// direct one, byte for byte where the payloads match. It is the
// reflective reference: the hot single-request shapes (ingest acks,
// rankings) go out through WriteEncoded with a hand encoder held to
// these bytes by a differential test, and WriteEncoded comes back here
// whenever that encoder declines.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, v, true)
}

// writeJSON without indent is the batched data plane's reference
// encoding: re-indenting a 256-item envelope costs more than every
// prediction in it combined (encoding/json's indent is a second full
// walk of the output), and batch callers are programs, not terminals.
func writeJSON(w http.ResponseWriter, status int, v any, indent bool) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		// Nothing is committed yet, so the client gets a real error
		// instead of a truncated 200.
		http.Error(w, fmt.Sprintf(`{"error":"response encoding: %v"}`, err), http.StatusInternalServerError)
		jsonBufPool.Put(buf)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // the response is already committed
	if buf.Cap() <= MaxPooledResponseBuf {
		jsonBufPool.Put(buf)
	}
}

// appendBufPool recycles the buffers hand encoders append into, under
// the same retention cap as jsonBufPool.
var appendBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 8<<10); return &b }}

// WriteEncoded answers status with what encode appends to a pooled
// buffer — a hand encoder's output, already exactly the bytes WriteJSON
// (indent) or its compact form (!indent) would produce for v. encode
// reporting false (a float JSON cannot carry) writes nothing of its
// own: v goes through that reflective writer instead, to the same bytes
// or the same failure. An encoder that cannot decline passes a nil v.
func WriteEncoded(w http.ResponseWriter, status int, v any, indent bool, encode func(b []byte) ([]byte, bool)) {
	bp := appendBufPool.Get().(*[]byte)
	b, ok := encode((*bp)[:0])
	if ok {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Content-Length", strconv.Itoa(len(b)))
		w.WriteHeader(status)
		w.Write(b) //nolint:errcheck // the response is already committed
	}
	if cap(b) <= MaxPooledResponseBuf {
		*bp = b
		appendBufPool.Put(bp)
	}
	if !ok {
		writeJSON(w, status, v, indent)
	}
}

// WriteError answers status with {"error": <formatted message>}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
