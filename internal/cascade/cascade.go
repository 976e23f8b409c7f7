// Package cascade defines information cascades — timestamped sequences of
// node infections (paper Definition 1) — plus validation, statistics, and
// a text serialization. The continuous-time simulator that generates
// cascades from a graph and ground-truth embeddings lives in simulate.go.
package cascade

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Infection records that Node became infected (reported the event, adopted
// the message) at Time. Each node appears at most once per cascade: the
// underlying process is SI — no recovery, no re-adoption.
type Infection struct {
	Node int
	Time float64
}

// Cascade is a realization of the stochastic propagation process: a
// time-ordered sequence of distinct infections.
type Cascade struct {
	ID         int
	Infections []Infection
}

// Size returns the number of infected nodes.
func (c *Cascade) Size() int { return len(c.Infections) }

// Duration returns the time between the first and last infection, or 0
// for cascades with fewer than two infections.
func (c *Cascade) Duration() float64 {
	if len(c.Infections) < 2 {
		return 0
	}
	return c.Infections[len(c.Infections)-1].Time - c.Infections[0].Time
}

// Nodes returns the infected node ids in infection order.
func (c *Cascade) Nodes() []int {
	out := make([]int, len(c.Infections))
	for i, inf := range c.Infections {
		out[i] = inf.Node
	}
	return out
}

// NodeSet returns the set of infected nodes.
func (c *Cascade) NodeSet() map[int]bool {
	s := make(map[int]bool, len(c.Infections))
	for _, inf := range c.Infections {
		s[inf.Node] = true
	}
	return s
}

// Prefix returns the sub-cascade of infections with Time <= cutoff —
// the "early adopters" used by the prediction pipeline (paper §V).
// The returned cascade shares no storage with c.
func (c *Cascade) Prefix(cutoff float64) *Cascade {
	out := &Cascade{ID: c.ID}
	for _, inf := range c.Infections {
		if inf.Time <= cutoff {
			out.Infections = append(out.Infections, inf)
		}
	}
	return out
}

// PrefixView is the allocation-free form of Prefix for the common case:
// when the infections with Time <= cutoff form a contiguous head of the
// sequence (always true for time-sorted cascades), it returns a
// sub-cascade aliasing c's storage. ok reports whether the view is
// valid; when early infections are interleaved with later ones the
// caller must fall back to Prefix. A valid view holds exactly the
// infections Prefix would copy, in the same order, so downstream float
// math is identical either way.
func (c *Cascade) PrefixView(cutoff float64) (Cascade, bool) {
	k := 0
	for k < len(c.Infections) && c.Infections[k].Time <= cutoff {
		k++
	}
	for _, inf := range c.Infections[k:] {
		if inf.Time <= cutoff {
			return Cascade{}, false
		}
	}
	return Cascade{ID: c.ID, Infections: c.Infections[:k:k]}, true
}

// validate checks the structural invariants a well-formed cascade must
// satisfy: at least one infection, distinct node ids in [0, n),
// non-negative finite times, and non-decreasing time order. stamp has one
// slot per node id, and stamp[u] == mark means u was seen; the caller
// passes a mark no earlier cascade used, so the table needs no clearing
// in between.
func (c *Cascade) validate(n int, stamp []int32, mark int32) error {
	if len(c.Infections) == 0 {
		return fmt.Errorf("cascade %d: empty", c.ID)
	}
	prev := -1.0
	for i, inf := range c.Infections {
		if inf.Node < 0 {
			return fmt.Errorf("cascade %d: negative node id %d at index %d", c.ID, inf.Node, i)
		}
		if inf.Node >= n {
			return fmt.Errorf("cascade %d: node id %d out of range [0,%d)", c.ID, inf.Node, n)
		}
		if stamp[inf.Node] == mark {
			return fmt.Errorf("cascade %d: node %d infected twice (SI process forbids re-infection)", c.ID, inf.Node)
		}
		stamp[inf.Node] = mark
		if math.IsNaN(inf.Time) || math.IsInf(inf.Time, 0) {
			return fmt.Errorf("cascade %d: non-finite time %v at index %d", c.ID, inf.Time, i)
		}
		if inf.Time < 0 {
			return fmt.Errorf("cascade %d: negative time %v at index %d", c.ID, inf.Time, i)
		}
		if inf.Time < prev {
			return fmt.Errorf("cascade %d: infections out of time order at index %d (%v < %v)", c.ID, i, inf.Time, prev)
		}
		prev = inf.Time
	}
	return nil
}

// SortByTime sorts the infections in place by (Time, Node); ties on time
// are broken by node id for determinism.
func (c *Cascade) SortByTime() {
	sort.Slice(c.Infections, func(i, j int) bool {
		a, b := c.Infections[i], c.Infections[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Node < b.Node
	})
}

// ValidateAll validates every cascade against node universe size n: see
// validate for the invariants. With n <= 0 the universe is empty, so any
// infection is out of range. The cascades share one seen-table stamped
// with the cascade's position.
func ValidateAll(cs []*Cascade, n int) error {
	stamp := make([]int32, max(n, 0))
	for i, c := range cs {
		if err := c.validate(n, stamp, int32(i+1)); err != nil {
			return err
		}
	}
	return nil
}

// Sizes returns the size of every cascade.
func Sizes(cs []*Cascade) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.Size()
	}
	return out
}

// MeanSize returns the average cascade size, or 0 for no cascades.
func MeanSize(cs []*Cascade) float64 {
	if len(cs) == 0 {
		return 0
	}
	var s int
	for _, c := range cs {
		s += c.Size()
	}
	return float64(s) / float64(len(cs))
}

// TotalInfections returns the summed size of all cascades.
func TotalInfections(cs []*Cascade) int {
	var s int
	for _, c := range cs {
		s += c.Size()
	}
	return s
}

// Write encodes cascades as text, one infection per line:
//
//	cascadeID,node,time
//
// in cascade order. Decode with Read.
func Write(w io.Writer, cs []*Cascade) error {
	bw := bufio.NewWriter(w)
	for _, c := range cs {
		for _, inf := range c.Infections {
			// FormatFloat with precision -1 emits the shortest string that
			// parses back to exactly the same float64.
			if _, err := fmt.Fprintf(bw, "%d,%d,%s\n", c.ID, inf.Node,
				strconv.FormatFloat(inf.Time, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFile reads and validates the cascade file at path. With n <= 0
// the node universe is inferred as one past the largest node id seen;
// the universe used is returned beside the cascades.
func ReadFile(path string, n int) ([]*Cascade, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	cs, err := Read(f)
	if err != nil {
		return nil, 0, err
	}
	if n <= 0 {
		for _, c := range cs {
			for _, inf := range c.Infections {
				if inf.Node >= n {
					n = inf.Node + 1
				}
			}
		}
	}
	if err := ValidateAll(cs, n); err != nil {
		return nil, 0, err
	}
	return cs, n, nil
}

// maxLineBytes bounds a single input line in Read. Real cascade files
// have short lines; the limit only exists so a corrupt or non-text file
// fails with a clear error instead of unbounded memory growth. A
// variable rather than a constant so tests can lower it.
var maxLineBytes = 64 * 1024 * 1024

// Read decodes the format produced by Write. Cascades are returned in
// first-appearance order; infections keep file order. Every parse error
// names the offending 1-based line.
func Read(r io.Reader) ([]*Cascade, error) {
	sc := bufio.NewScanner(r)
	// The scanner's effective limit is max(maxLineBytes, cap(buf)), so
	// the initial buffer must not exceed the configured limit.
	initial := 64 * 1024
	if initial > maxLineBytes {
		initial = maxLineBytes
	}
	sc.Buffer(make([]byte, 0, initial), maxLineBytes)
	byID := map[int]*Cascade{}
	var order []*Cascade
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("cascade: line %d: want 3 fields, got %d", lineNo, len(parts))
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("cascade: line %d: bad cascade id %q", lineNo, parts[0])
		}
		node, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("cascade: line %d: bad node id %q", lineNo, parts[1])
		}
		if node > math.MaxInt32 {
			return nil, fmt.Errorf("cascade: line %d: node id %d above the limit %d", lineNo, node, math.MaxInt32)
		}
		tm, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("cascade: line %d: bad time %q", lineNo, parts[2])
		}
		c, ok := byID[id]
		if !ok {
			c = &Cascade{ID: id}
			byID[id] = c
			order = append(order, c)
		}
		c.Infections = append(c.Infections, Infection{Node: node, Time: tm})
	}
	if err := sc.Err(); err != nil {
		// The scanner stops before the offending line, so lineNo+1 is the
		// line that failed to read.
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("cascade: line %d: longer than the %d-byte limit (not a cascade file?)",
				lineNo+1, maxLineBytes)
		}
		return nil, fmt.Errorf("cascade: read failed at line %d: %w", lineNo+1, err)
	}
	return order, nil
}
