package embed

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
)

// Write encodes the model as CSV with a header row:
//
//	node,kind,topic0,topic1,...
//
// where kind 0 rows carry the influence vector A[node] and kind 1 rows
// the selectivity vector B[node]. Read decodes it.
func (m *Model) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "node,kind"); err != nil {
		return err
	}
	for k := 0; k < m.K(); k++ {
		if _, err := fmt.Fprintf(bw, ",topic%d", k); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw); err != nil {
		return err
	}
	writeRow := func(node, kind int, row []float64) error {
		if _, err := fmt.Fprintf(bw, "%d,%d", node, kind); err != nil {
			return err
		}
		for _, v := range row {
			if _, err := fmt.Fprintf(bw, ",%s", strconv.FormatFloat(v, 'g', -1, 64)); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintln(bw)
		return err
	}
	for u := 0; u < m.N(); u++ {
		if err := writeRow(u, 0, m.A.Row(u)); err != nil {
			return err
		}
		if err := writeRow(u, 1, m.B.Row(u)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a model written by Write. It validates completeness:
// every node in [0, n) must appear with both an A row and a B row, where
// n is one plus the largest node id seen.
func Read(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("embed: empty model file")
	}
	header := strings.Split(strings.TrimSpace(sc.Text()), ",")
	if len(header) < 3 || header[0] != "node" || header[1] != "kind" {
		return nil, fmt.Errorf("embed: bad header %q", sc.Text())
	}
	k := len(header) - 2
	type rowKey struct{ node, kind int }
	rows := map[rowKey][]float64{}
	maxNode := -1
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != k+2 {
			return nil, fmt.Errorf("embed: line %d has %d fields, want %d", lineNo, len(parts), k+2)
		}
		node, err := strconv.Atoi(parts[0])
		if err != nil || node < 0 {
			return nil, fmt.Errorf("embed: line %d bad node %q", lineNo, parts[0])
		}
		kind, err := strconv.Atoi(parts[1])
		if err != nil || (kind != 0 && kind != 1) {
			return nil, fmt.Errorf("embed: line %d bad kind %q", lineNo, parts[1])
		}
		vec := make([]float64, k)
		for i, p := range parts[2:] {
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return nil, fmt.Errorf("embed: line %d bad value %q", lineNo, p)
			}
			vec[i] = v
		}
		key := rowKey{node, kind}
		if _, dup := rows[key]; dup {
			return nil, fmt.Errorf("embed: line %d duplicates node %d kind %d", lineNo, node, kind)
		}
		rows[key] = vec
		if node > maxNode {
			maxNode = node
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxNode < 0 {
		return nil, fmt.Errorf("embed: model file has no rows")
	}
	n := maxNode + 1
	m := NewModel(n, k)
	for u := 0; u < n; u++ {
		a, okA := rows[rowKey{u, 0}]
		b, okB := rows[rowKey{u, 1}]
		if !okA || !okB {
			return nil, fmt.Errorf("embed: node %d missing %s row", u, missing(okA))
		}
		copy(m.A.Row(u), a)
		copy(m.B.Row(u), b)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("embed: loaded model invalid: %w", err)
	}
	return m, nil
}

func missing(okA bool) string {
	if okA {
		return "selectivity (kind 1)"
	}
	return "influence (kind 0)"
}

// SignedMagic is the first line of an embeddings file written by
// WriteSigned. It identifies the file type and format version.
const SignedMagic = "viralcast-embeddings v1"

// WriteSigned encodes the model with an integrity envelope around the
// CSV body:
//
//	viralcast-embeddings v1
//	payload bytes=<n> crc32=<hex>
//	<model CSV>
//
// The declared byte length and CRC-32 let ReadSigned reject truncated or
// bit-rotted files with a clear error instead of decoding a garbage
// matrix, and the magic line rejects foreign files outright.
func (m *Model) WriteSigned(w io.Writer) error {
	var payload bytes.Buffer
	if err := m.Write(&payload); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, SignedMagic); err != nil {
		return err
	}
	return WriteEnvelope(w, payload.Bytes())
}

// WriteEnvelope writes payload behind its integrity line:
//
//	payload bytes=<n> crc32=<hex>
//	<payload>
//
// It is the tail of every signed file the library writes: the
// embeddings file after its magic line, a training checkpoint after its
// state line. ReadEnvelope reads it back.
func WriteEnvelope(w io.Writer, payload []byte) error {
	if _, err := fmt.Fprintf(w, "payload bytes=%d crc32=%08x\n", len(payload), crc32.ChecksumIEEE(payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadEnvelope reads what WriteEnvelope wrote from br, which must end
// with it: the payload is exactly the declared length, nothing follows
// it, and its CRC-32 matches — so a truncated, extended or bit-rotted
// file fails here with a descriptive error instead of decoding garbage.
func ReadEnvelope(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("truncated envelope header: %w", err)
	}
	line = strings.TrimRight(line, "\n")
	var wantLen int
	var wantCRC uint32
	if _, err := fmt.Sscanf(line, "payload bytes=%d crc32=%x", &wantLen, &wantCRC); err != nil {
		return nil, fmt.Errorf("bad envelope header %q: %v", line, err)
	}
	if wantLen < 0 {
		return nil, fmt.Errorf("negative payload length %d", wantLen)
	}
	payload := make([]byte, wantLen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("corrupt: payload truncated (want %d bytes): %w", wantLen, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("corrupt: trailing bytes after %d-byte payload", wantLen)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("corrupt: payload crc32 %08x, header says %08x", got, wantCRC)
	}
	return payload, nil
}

// ReadSigned decodes a model written by WriteSigned, verifying the
// declared payload length and checksum. For compatibility with files
// saved before the envelope existed, a stream that starts with the bare
// CSV header ("node,kind,...") is accepted and decoded as legacy,
// unverified CSV. Anything else fails with a descriptive error.
func ReadSigned(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(SignedMagic))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("embed: empty model file")
	}
	if string(head) != SignedMagic {
		if bytes.HasPrefix(head, []byte("node,kind")) {
			return Read(br) // legacy pre-envelope CSV
		}
		line := head
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
		}
		return nil, fmt.Errorf("embed: not a viralcast embeddings file (starts %q)", string(line))
	}
	// Consume the magic line (Peek left it in the buffer).
	if _, err := br.ReadString('\n'); err != nil {
		return nil, fmt.Errorf("embed: truncated after magic: %w", err)
	}
	payload, err := ReadEnvelope(br)
	if err != nil {
		return nil, fmt.Errorf("embed: embeddings file: %w", err)
	}
	return Read(bytes.NewReader(payload))
}
