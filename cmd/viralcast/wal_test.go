package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viralcast/internal/cascade"
	"viralcast/internal/wal"
)

// buildWALFixture writes a log with everything a daemon's log can hold
// that a fold has to get right: reports arriving out of time order,
// reports sharing a timestamp (arrival order is the order), a
// compaction snapshot that overlaps the appends after it (the store
// applies before the WAL commits, so a snapshot can already hold events
// that then land in the surviving segment), and — once the log is
// closed — half a frame at the tail.
func buildWALFixture(t *testing.T, dir string) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	add := func(evs ...wal.Event) {
		t.Helper()
		if err := l.AppendBatch(evs); err != nil {
			t.Fatal(err)
		}
	}
	add(
		wal.Event{Cascade: 7, Node: 1, Time: 0.5},
		wal.Event{Cascade: 7, Node: 2, Time: 0.2}, // late report of an earlier infection
		wal.Event{Cascade: 3, Node: 10, Time: 0.1},
		wal.Event{Cascade: 7, Node: 3, Time: 0.5}, // ties with node 1, arrived after it
		wal.Event{Cascade: 3, Node: 11, Time: 0.1},
		wal.Event{Cascade: 12, Node: 4, Time: 1},
		wal.Event{Cascade: 3, Node: 12, Time: 0.05},
		wal.Event{Cascade: 7, Node: 0, Time: 0.5}, // ties again; a node-ordered fold would move it first
	)
	overlap := []wal.Event{{Cascade: 7, Node: 5, Time: 0.5}, {Cascade: 3, Node: 13, Time: 0.3}}
	if _, err := l.Compact(func() []wal.Event {
		return []wal.Event{ // what Store.AllEvents holds at this point, the overlap applied
			{Cascade: 3, Node: 12, Time: 0.05}, {Cascade: 3, Node: 10, Time: 0.1}, {Cascade: 3, Node: 11, Time: 0.1}, overlap[1],
			{Cascade: 7, Node: 2, Time: 0.2}, {Cascade: 7, Node: 1, Time: 0.5}, {Cascade: 7, Node: 3, Time: 0.5}, {Cascade: 7, Node: 0, Time: 0.5}, overlap[0],
			{Cascade: 12, Node: 4, Time: 1},
		}
	}); err != nil {
		t.Fatal(err)
	}
	add(overlap...)
	add(
		wal.Event{Cascade: 7, Node: 6, Time: 0.1}, // earlier than everything the snapshot held
		wal.Event{Cascade: 12, Node: 2, Time: 1},
		wal.Event{Cascade: 20, Node: 9, Time: 0},
		wal.Event{Cascade: 12, Node: 0, Time: 1},
	)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("fixture has no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].Path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := wal.AppendFrame(nil, wal.EncodeEvent(wal.Event{Cascade: 99, Node: 1, Time: 2}))
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// walReplayGolden is what the `wal replay` of PR 22's binary — a dedupe
// map, a stable sort by time per cascade, a sort by id — writes for
// buildWALFixture's log.
const walReplayGolden = `3,12,0.05
3,10,0.1
3,11,0.1
3,13,0.3
7,6,0.1
7,2,0.2
7,1,0.5
7,3,0.5
7,0,0.5
7,5,0.5
12,4,1
12,2,1
12,0,1
20,9,0
`

// TestCmdWAL drives the three verbs over the fixture log, over the same
// log once a daemon has recovered from it, and over a follower's mirror
// of it. `wal replay` is held to the parent binary's bytes and to what
// the recovered daemon serves: the fold is recovery's fold.
func TestCmdWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	buildWALFixture(t, dir)
	run := func(args ...string) (string, error) {
		t.Helper()
		return captureStdout(t, func() error { return cmdWAL(args) })
	}

	// What the command line refuses. The unknown verb is named before any
	// flag is looked at, and no verb calls an empty directory healthy.
	empty := t.TempDir()
	for _, c := range []struct {
		args    []string
		wantErr string
	}{
		{nil, "usage: viralcast wal"},
		{[]string{"bogus"}, `unknown verb "bogus"`},
		{[]string{"bogus", "-dir", dir}, `unknown verb "bogus"`},
		{[]string{"verify"}, "-dir is required"},
		{[]string{"inspect", "-dir", empty}, "no segments in " + empty},
		{[]string{"verify", "-dir", empty}, "no segments in " + empty},
		{[]string{"verify", "-dir", dir}, "torn tails"},
		{[]string{"replay", "-dir", dir, "-out", filepath.Join(empty, "no", "such", "dir")}, "no such file"},
	} {
		if out, err := run(c.args...); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("wal %v: err = %v (printed %q), want an error naming %q", c.args, err, out, c.wantErr)
		}
	}

	out, err := run("inspect", "-dir", dir, "-records")
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot segment holds 10 + 2 + 4 records; every intact record
	// has a cursor line and the half frame has none.
	for _, wantLine := range []string{"1 segments, 16 records", "1 torn tail(s)", "torn at byte"} {
		if !strings.Contains(out, wantLine) {
			t.Errorf("inspect output lacks %q:\n%s", wantLine, out)
		}
	}
	_, cursors, _ := strings.Cut(out, " time\n")
	if strings.Count(cursors, "\n") != 16 {
		t.Errorf("inspect -records printed %d cursor lines, want 16:\n%s", strings.Count(cursors, "\n"), out)
	}
	// Those records are exactly the events replay exports: one scan feeds
	// both, and replay's fold only drops the repeated reports.
	listed, exported := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(cursors), "\n") {
		if f := strings.Fields(line); len(f) == 5 { // segment offset cascade node time
			listed[strings.Join(f[2:], ",")] = true
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(walReplayGolden), "\n") {
		exported[line] = true
	}
	if !maps.Equal(listed, exported) {
		t.Errorf("inspect -records lists %v, replay exports %v", listed, exported)
	}

	// A stub segment, shorter than its magic line (a crash between creating
	// a segment and fsyncing that line), is a torn tail at byte 0 to
	// inspect as to verify, not a read error.
	stub := t.TempDir()
	if err := os.WriteFile(filepath.Join(stub, wal.SegmentName(1)), []byte("viralcast"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := run("inspect", "-dir", stub); err != nil || !strings.Contains(out, "torn at byte 0") || !strings.Contains(out, "1 torn tail(s)") {
		t.Errorf("wal inspect on a stub segment: %v, printed %q; want a torn tail at byte 0", err, out)
	}
	if _, err := run("verify", "-dir", stub); err == nil || !strings.Contains(err.Error(), "1 of 1 segments have torn tails") {
		t.Errorf("wal verify on a stub segment: %v, want one torn tail", err)
	}

	replayed := filepath.Join(t.TempDir(), "replayed.txt")
	if _, err := run("replay", "-dir", dir, "-out", replayed); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(replayed); err != nil || string(got) != walReplayGolden {
		t.Fatalf("wal replay -out wrote (%v)\n%s\nwant the parent binary's bytes\n%s", err, got, walReplayGolden)
	}
	if out, err := run("replay", "-dir", dir); err != nil || out != walReplayGolden {
		t.Fatalf("wal replay to stdout: %v\n%s", err, out)
	}

	// A daemon recovering from the same directory truncates the torn tail
	// and serves, for every cascade, exactly what replay wrote.
	cascades, model := modelFixture(t)
	d := start(t, "recovered daemon", cmdServe, serveArgs(cascades, model, "-wal-dir", dir)...)
	cs, _, err := cascade.ReadFile(replayed, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkServed := func(p *proc) {
		t.Helper()
		for _, c := range cs {
			got := want(t, 200, "GET", fmt.Sprintf("%s/v1/cascades/%d", p.base, c.ID), "")
			if fmt.Sprint(got["nodes"]) != fmt.Sprint(c.Nodes()) || got["first_time"] != c.Infections[0].Time || got["last_time"] != c.Infections[c.Size()-1].Time {
				t.Errorf("%s serves cascade %d as nodes %v [%v, %v]; replay wrote %v [%v, %v]", p.name, c.ID,
					got["nodes"], got["first_time"], got["last_time"], c.Nodes(), c.Infections[0].Time, c.Infections[c.Size()-1].Time)
			}
		}
		if m := want(t, 200, "GET", p.base+"/metrics", ""); m["live_cascades"] != float64(len(cs)) {
			t.Errorf("%s holds %v live cascades, replay wrote %d", p.name, m["live_cascades"], len(cs))
		}
	}
	checkServed(d)
	if out, err := run("verify", "-dir", dir); err != nil || !strings.HasPrefix(out, "ok: 2 segments") {
		t.Fatalf("wal verify after recovery: %v, printed %q", err, out)
	}

	// The follower's mirror is the same log to all three verbs.
	mirror := filepath.Join(t.TempDir(), "mirror")
	f := start(t, "follower", cmdServe, serveArgs(cascades, model, "-wal-dir", mirror, "-follow", d.base)...)
	waitCurrent(t, f, 7, 6)
	checkServed(f)
	if _, err := run("verify", "-dir", mirror); err != nil {
		t.Fatalf("wal verify on the mirror: %v", err)
	}
	if out, err := run("inspect", "-dir", mirror, "-records"); err != nil || !strings.Contains(out, "0 torn tail(s)") {
		t.Fatalf("wal inspect -records on the mirror: %v\n%s", err, out)
	}
	if out, err := run("replay", "-dir", mirror); err != nil || out != walReplayGolden {
		t.Fatalf("wal replay of the mirror: %v\n%s", err, out)
	}
}
