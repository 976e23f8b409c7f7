package httpkit

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// nullResponseWriter isolates encoding cost from httptest recorder
// bookkeeping.
type nullResponseWriter struct{ h http.Header }

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// TestWriteJSONDropsOversizedBuffers is the retention-cap regression
// test: after encoding a response larger than MaxPooledResponseBuf —
// exactly what a big batch answer produces — the pool must not hand
// back a buffer above the cap. If the cap check regressed, the very
// next Get on this goroutine would return the ballooned buffer.
func TestWriteJSONDropsOversizedBuffers(t *testing.T) {
	big := make([]string, 1<<15)
	for i := range big {
		big[i] = "0123456789abcdef0123456789abcdef0123456789abcdef" // ~48 B × 32768 rows ≫ 1 MiB
	}
	w := &nullResponseWriter{h: make(http.Header)}
	for i := 0; i < 4; i++ {
		WriteJSON(w, http.StatusOK, big)
		for j := 0; j < 8; j++ {
			buf := jsonBufPool.Get().(*bytes.Buffer)
			if buf.Cap() > MaxPooledResponseBuf {
				t.Fatalf("pool retained a %d-byte buffer (cap %d)", buf.Cap(), MaxPooledResponseBuf)
			}
			jsonBufPool.Put(buf)
		}
	}
}

// TestWriteEncodedFallsBackToTheReflectiveWriter: an encoder's bytes go
// out as they are; one that declines costs the caller nothing but the
// reflective encoding of the same value, indented or compact as asked.
func TestWriteEncodedFallsBackToTheReflectiveWriter(t *testing.T) {
	v := map[string]int{"a": 1}
	for _, indent := range []bool{true, false} {
		for _, declines := range []bool{false, true} {
			rec := httptest.NewRecorder()
			WriteEncoded(rec, http.StatusAccepted, v, indent, func(b []byte) ([]byte, bool) {
				return append(b, "by hand"...), !declines
			})
			want := "by hand"
			if declines {
				want = string(encodeRef(t, v, indent))
			}
			if rec.Code != http.StatusAccepted || rec.Body.String() != want {
				t.Fatalf("indent=%v declines=%v: %d %q, want %q", indent, declines, rec.Code, rec.Body.String(), want)
			}
		}
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	w := &nullResponseWriter{h: make(http.Header)}
	body := &struct {
		Cascade     int     `json:"cascade"`
		Viral       bool    `json:"viral"`
		Margin      float64 `json:"margin"`
		Size        int     `json:"size"`
		EarlyCutoff float64 `json:"early_cutoff"`
		Threshold   int     `json:"threshold"`
		Generation  uint64  `json:"generation"`
		ShardID     int     `json:"shard_id"`
		Epoch       uint64  `json:"epoch"`
	}{Cascade: 17, Viral: true, Margin: 0.42, Size: 9, EarlyCutoff: 2.3, Threshold: 12, Generation: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteJSON(w, http.StatusOK, body)
	}
}
