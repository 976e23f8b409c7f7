package repl

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"viralcast/internal/wal"
)

// Primary serves the replication surface of a primary viralcastd: the
// WAL stream, which bootstraps a follower and then tails the log. The
// serve layer mounts its handler on the control plane (replication must
// keep flowing while the data plane sheds load) and owns role checks —
// a follower answers the path with an error before the handler runs.
type Primary struct {
	// Log is the live WAL the stream tails.
	Log *wal.Log
	// Poll is how often the stream re-checks the active segment for new
	// frames once caught up. Default 50ms.
	Poll time.Duration
	// Heartbeat is how often an idle stream emits a heartbeat item.
	// Default 1s.
	Heartbeat time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (p *Primary) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}

func (p *Primary) poll() time.Duration {
	if p.Poll > 0 {
		return p.Poll
	}
	return 50 * time.Millisecond
}

func (p *Primary) heartbeat() time.Duration {
	if p.Heartbeat > 0 {
		return p.Heartbeat
	}
	return time.Second
}

// HandleStream serves the WAL stream from a follower's cursor. Query
// parameters: seg, off (the resume cursor) and fp (hex chain
// fingerprint of the follower's local prefix of that segment). seg=0
// is the whole log, which is how a follower with no mirror bootstraps:
// the oldest surviving segment from its header, with no prefix and so
// no off or fp to check.
//
// Status answers: 400 malformed cursor; 410 the cursor's segment was
// compacted away (re-bootstrap); 409 the fingerprints disagree — the
// follower's history diverged from ours and it must not serve until it
// re-bootstraps; 200 a stream of frame/heartbeat items until the client
// disconnects.
func (p *Primary) HandleStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seg, err := strconv.ParseUint(q.Get("seg"), 10, 64)
	off, fp := wal.SegmentHeaderLen, uint64(0)
	if err == nil && seg != 0 {
		var errFP error
		off, err = strconv.ParseInt(q.Get("off"), 10, 64)
		fp, errFP = strconv.ParseUint(q.Get("fp"), 16, 32)
		err = errors.Join(err, errFP)
	}
	if err != nil || off < wal.SegmentHeaderLen {
		http.Error(w, "parameters seg, off, fp (hex) required; off must be at or past the segment header", http.StatusBadRequest)
		return
	}

	si, status, msg := p.locate(seg)
	if status != 0 {
		http.Error(w, msg, status)
		return
	}
	recs := 0
	if seg != 0 {
		// Verify the follower's prefix really is a prefix of ours: same
		// frame boundary, same chained payload history. Any mismatch is
		// divergence — the follower must re-bootstrap, not keep serving.
		ourFP, n, err := wal.SegmentChainAt(si.Path, off)
		if err != nil {
			http.Error(w, fmt.Sprintf("diverged: cursor %d:%d does not address our log: %v", seg, off, err), http.StatusConflict)
			return
		}
		if uint64(ourFP) != fp {
			http.Error(w, fmt.Sprintf("diverged: chain fingerprint at %d:%d is %08x here, follower has %08x", seg, off, ourFP, fp), http.StatusConflict)
			return
		}
		recs = n
	}
	base, ok := p.Log.RecordsBefore(si.Seq)
	if !ok {
		// Compacted between locate and here; the follower will retry.
		http.Error(w, fmt.Sprintf("segment %d was compacted away; re-bootstrap", si.Seq), http.StatusGone)
		return
	}
	index := base + uint64(recs)

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	p.logf("repl: streaming to %s from %d:%d (record index %d)", r.RemoteAddr, si.Seq, off, index)
	p.stream(w, flusher, r, si.Seq, off, index)
}

// locate resolves segment seq to its on-disk file — seq 0 to the oldest
// surviving one — or an HTTP error: 410 if it sits below every
// surviving segment (compacted), 409 if it is past our log entirely
// (the follower has history we never wrote).
func (p *Primary) locate(seq uint64) (si wal.SegmentInfo, status int, msg string) {
	segs, err := wal.ListSegments(p.Log.Dir())
	if err != nil || len(segs) == 0 {
		return si, http.StatusServiceUnavailable, fmt.Sprintf("listing segments: %v", err)
	}
	if seq == 0 {
		return segs[0], 0, ""
	}
	for _, si := range segs {
		if si.Seq == seq {
			return si, 0, ""
		}
	}
	if seq < segs[0].Seq {
		return si, http.StatusGone, fmt.Sprintf("segment %d was compacted away (oldest surviving is %d); re-bootstrap", seq, segs[0].Seq)
	}
	return si, http.StatusConflict, fmt.Sprintf("diverged: follower cursor names segment %d, which this primary never wrote (newest is %d)", seq, segs[len(segs)-1].Seq)
}

// stream is the tail loop: ship intact frames from (seg, off), advance
// across segment boundaries, and heartbeat while caught up. It returns
// when the client goes away or the segment under it turns out corrupt.
func (p *Primary) stream(w io.Writer, flusher http.Flusher, r *http.Request, seg uint64, off int64, index uint64) {
	ctx := r.Context()
	f, err := os.Open(filepath.Join(p.Log.Dir(), wal.SegmentName(seg)))
	if err != nil {
		p.logf("repl: stream open segment %d: %v", seg, err)
		return
	}
	defer func() { f.Close() }()

	var buf []byte
	lastBeat := time.Now()
	for {
		if ctx.Err() != nil {
			return
		}
		payload, next, err := wal.ReadFrameAt(f, off)
		switch {
		case err == nil:
			_, total := p.Log.End()
			index++
			lag := uint64(0)
			if total > index {
				lag = total - index
			}
			// Frames are deterministic bytes, so re-framing the payload
			// reproduces exactly what sits on disk — no second read.
			frameLen := next - off
			buf = appendItemHeader(buf[:0], itemFrame, seg, off, lag)
			buf = append(buf, byte(frameLen), byte(frameLen>>8), byte(frameLen>>16), byte(frameLen>>24))
			buf = wal.AppendFrame(buf, payload)
			if _, err := w.Write(buf); err != nil {
				return // client went away
			}
			off = next
			// Flush when the follower is caught up (latency matters at
			// the tip; throughput matters during catch-up, where the
			// HTTP stack's own buffering batches frames).
			if lag == 0 && flusher != nil {
				flusher.Flush()
			}

		case err == io.EOF:
			end, total := p.Log.End()
			if seg == end.Seg {
				// Caught up with the active segment: heartbeat and poll.
				lag := uint64(0)
				if total > index {
					lag = total - index
				}
				if lag == 0 || time.Since(lastBeat) >= p.heartbeat() {
					buf = appendItemHeader(buf[:0], itemHeartbeat, seg, off, lag)
					if _, err := w.Write(buf); err != nil {
						return
					}
					if flusher != nil {
						flusher.Flush()
					}
					lastBeat = time.Now()
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(p.poll()):
				}
				continue
			}
			// Sealed segment done: advance to the smallest surviving
			// segment after it. Compaction may have removed the direct
			// successor; the surviving one opens with a snapshot whose
			// duplicates the follower's SI-dedup absorbs.
			nextSeg, ok := p.nextSegment(seg)
			if !ok {
				// Everything after us vanished — only possible in a
				// teardown race; let the follower reconnect.
				return
			}
			nf, err := os.Open(filepath.Join(p.Log.Dir(), wal.SegmentName(nextSeg)))
			if err != nil {
				p.logf("repl: stream advance to segment %d: %v", nextSeg, err)
				return
			}
			f.Close()
			f = nf
			seg, off = nextSeg, wal.SegmentHeaderLen
			if base, ok := p.Log.RecordsBefore(nextSeg); ok && base > index {
				index = base
			}

		default:
			// Torn frame. At the active append position that just means
			// a commit's write is mid-flight — wait and re-read. In a
			// sealed segment it is real corruption; kill the stream and
			// let the operator see it.
			end, _ := p.Log.End()
			if seg == end.Seg {
				select {
				case <-ctx.Done():
					return
				case <-time.After(p.poll()):
				}
				continue
			}
			p.logf("repl: corrupt frame in sealed segment %d at offset %d: %v", seg, off, err)
			return
		}
	}
}

// nextSegment returns the smallest on-disk segment sequence > seq.
func (p *Primary) nextSegment(seq uint64) (uint64, bool) {
	segs, err := wal.ListSegments(p.Log.Dir())
	if err != nil {
		return 0, false
	}
	for _, si := range segs {
		if si.Seq > seq {
			return si.Seq, true
		}
	}
	return 0, false
}
