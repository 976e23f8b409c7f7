// Package checkpoint persists training state durably so a long
// inference run killed mid-flight — SIGINT, OOM, a pulled plug — resumes
// from its last consistent snapshot instead of restarting from scratch.
//
// A checkpoint file is a small text header followed by the embedding
// model in the embed CSV format:
//
//	viralcast-checkpoint v1
//	level=3 seed=42 loglik=-1234.5
//	payload bytes=182733 crc32=9ab3f00d
//	<model CSV>
//
// The last two parts are embed's signed envelope (embed.WriteEnvelope):
// the payload's byte length and CRC-32 detect truncation and bit rot
// before a corrupt model ever reaches the optimizer. Save writes to a
// temporary file in the same directory, renames it into place and
// fsyncs the directory, so the checkpoint path always holds either the
// previous complete snapshot or the new one — never a torn write, and
// never a name that did not reach the disk.
package checkpoint

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"

	"viralcast/internal/durable"
	"viralcast/internal/embed"
)

const magic = "viralcast-checkpoint v1"

// State is a snapshot of a hierarchical fit (infer.HierarchicalCtx):
// everything it needs to continue where it stopped.
type State struct {
	// Model is the embeddings at a hierarchy level boundary, the only
	// globally consistent state of the fit, so a resumed run never
	// starts from a half-applied update.
	Model *embed.Model
	// Level counts fully completed hierarchy levels.
	Level int
	// Seed is the run's RNG seed; a resume must be given the same data
	// and configuration for the remaining schedule to line up.
	Seed uint64
	// LogLik is the training log-likelihood at the snapshot.
	LogLik float64
}

// Save atomically and durably writes st to path (durable.WriteFile): a
// crash or power loss leaves path holding either the previous complete
// snapshot or this one.
func Save(path string, st *State) error {
	if st == nil || st.Model == nil {
		return fmt.Errorf("checkpoint: nil state")
	}
	var payload bytes.Buffer
	if err := st.Model.Write(&payload); err != nil {
		return fmt.Errorf("checkpoint: encoding model: %w", err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, magic)
	fmt.Fprintf(&buf, "level=%d seed=%d loglik=%s\n",
		st.Level, st.Seed, strconv.FormatFloat(st.LogLik, 'g', -1, 64))
	embed.WriteEnvelope(&buf, payload.Bytes()) //nolint:errcheck // a bytes.Buffer write cannot fail
	if err := durable.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads and verifies a checkpoint written by Save. Truncated,
// altered, or foreign files fail with a descriptive error rather than
// producing a silently wrong model.
func Load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)

	line, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: missing header: %w", path, err)
	}
	if line != magic {
		return nil, fmt.Errorf("checkpoint %s: not a checkpoint file (header %q)", path, line)
	}
	st := &State{}
	line, err = readLine(br)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: truncated header: %w", path, err)
	}
	if err := parseFields(line, map[string]func(string) error{
		"level":  func(v string) (e error) { st.Level, e = strconv.Atoi(v); return },
		"seed":   func(v string) (e error) { st.Seed, e = strconv.ParseUint(v, 10, 64); return },
		"loglik": func(v string) (e error) { st.LogLik, e = strconv.ParseFloat(v, 64); return },
	}); err != nil {
		return nil, fmt.Errorf("checkpoint %s: bad state line: %w", path, err)
	}
	payload, err := embed.ReadEnvelope(br)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	m, err := embed.Read(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: corrupt model payload: %w", path, err)
	}
	st.Model = m
	return st, nil
}

// Resume is Load, except a missing file is not an error: it returns
// (nil, nil) so "resume if there is anything to resume from" is one
// call.
func Resume(path string) (*State, error) {
	st, err := Load(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	return st, err
}

// readLine returns the next line without its terminator; a missing
// newline at EOF is an error because Save always terminates lines.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

// retired lists the header fields older files carry and Load checks and
// drops: an epoch count and a step size, which nothing has set since the
// fit lost its step-size ascent (every such file reads epoch=0 step=0).
var retired = map[string]func(string) error{
	"epoch": func(v string) error { _, err := strconv.Atoi(v); return err },
	"step":  func(v string) error { _, err := strconv.ParseFloat(v, 64); return err },
}

// parseFields parses "k1=v1 k2=v2 ..." requiring every registered key
// exactly once, allowing each retired key at most once, and no unknown
// keys.
func parseFields(line string, want map[string]func(string) error) error {
	seen := make(map[string]bool, len(want))
	for _, field := range strings.Fields(line) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("malformed field %q", field)
		}
		parse, known := want[k]
		if !known {
			parse, known = retired[k]
		}
		if !known {
			return fmt.Errorf("unknown field %q", k)
		}
		if seen[k] {
			return fmt.Errorf("duplicate field %q", k)
		}
		seen[k] = true
		if err := parse(v); err != nil {
			return fmt.Errorf("field %q: %v", field, err)
		}
	}
	for k := range want {
		if !seen[k] {
			return fmt.Errorf("missing field %q", k)
		}
	}
	return nil
}
