package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"viralcast/internal/cascade"
	"viralcast/internal/report"
	"viralcast/internal/serve"
	"viralcast/internal/wal"
)

// cmdWAL inspects and exports viralcastd write-ahead logs without
// needing a running daemon. The verbs are read-only: none of them
// truncate torn tails or delete segments — recovery actions belong to
// the daemon that owns the directory.
//
//	viralcast wal inspect -dir DIR   per-segment record counts, chain fingerprints, tail health
//	viralcast wal verify  -dir DIR   exit nonzero if any segment has a torn tail
//	viralcast wal replay  -dir DIR   reconstruct cascades and write them as a cascade file
//
// `inspect -records` additionally prints every record with its
// replication cursor — the (segment, offset) pair a follower resumes
// the stream from — which is the operator's tool for answering "where
// exactly is this follower?" against repl_cursor in /readyz.
func cmdWAL(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("wal: usage: viralcast wal <inspect|verify|replay> -dir DIR [flags]")
	}
	verb, args := args[0], args[1:]
	fs := flag.NewFlagSet("wal "+verb, flag.ExitOnError)
	dir := fs.String("dir", "", "write-ahead log directory (required)")
	var run func() error
	switch verb {
	case "inspect":
		records := fs.Bool("records", false, "also print each record with its (segment, offset) replication cursor")
		run = func() error { return walInspect(*dir, *records) }
	case "verify":
		run = func() error { return walVerify(*dir) }
	case "replay":
		out := fs.String("out", "", "cascade file output (default stdout)")
		run = func() error { return walReplay(*dir, *out) }
	default:
		return fmt.Errorf("wal: unknown verb %q (want inspect, verify, or replay)", verb)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("wal %s: -dir is required", verb)
	}
	return run()
}

// walInspect prints a table of the segments, then with -records every
// record with the cursor a replication follower would resume from to
// stream it: the (segment, offset) of the frame itself. The intact
// prefix only — a torn tail has no cursor. The records are gathered in
// the same pass as the table, which prints first.
func walInspect(dir string, withRecords bool) error {
	var recs strings.Builder
	var fn func(wal.Cursor, wal.Event) error
	if withRecords {
		fmt.Fprintf(&recs, "\n%-10s %-10s %-9s %-7s %s\n", "segment", "offset", "cascade", "node", "time")
		fn = func(c wal.Cursor, ev wal.Event) error {
			fmt.Fprintf(&recs, "%-10d %-10d %-9d %-7d %g\n", c.Seg, c.Off, ev.Cascade, ev.Node, ev.Time)
			return nil
		}
	}
	scans, err := wal.ScanDir(dir, fn)
	if err != nil {
		return err
	}
	if len(scans) == 0 {
		return fmt.Errorf("wal inspect: no segments in %s", dir)
	}
	rows := make([][]string, 0, len(scans))
	records := 0
	var bytes int64
	torn := 0
	for _, s := range scans {
		tail := "clean"
		if s.Torn {
			torn++
			tail = fmt.Sprintf("torn at byte %d (%v)", s.GoodBytes, s.TornErr)
		}
		// The chain column is the fingerprint of the segment's intact
		// prefix — the value a follower presents on reconnect, and what
		// the primary checks it against. Two logs that disagree here have
		// diverged.
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Seq),
			fmt.Sprintf("%d", s.Records),
			fmt.Sprintf("%d", s.Size),
			fmt.Sprintf("%08x", s.Chain),
			tail,
		})
		records += s.Records
		bytes += s.Size
	}
	fmt.Print(report.Table([]string{"segment", "records", "bytes", "chain", "tail"}, rows))
	fmt.Printf("%d segments, %d records, %d bytes, %d torn tail(s)\n", len(scans), records, bytes, torn)
	fmt.Print(recs.String())
	return nil
}

func walVerify(dir string) error {
	scans, err := wal.ScanDir(dir, nil)
	if err != nil {
		return err
	}
	if len(scans) == 0 {
		return fmt.Errorf("wal verify: no segments in %s", dir)
	}
	torn := 0
	for _, s := range scans {
		if s.Torn {
			torn++
			fmt.Fprintf(os.Stderr, "%s: torn tail at byte %d: %v\n", s.Path, s.GoodBytes, s.TornErr)
		}
	}
	if torn > 0 {
		return fmt.Errorf("wal verify: %d of %d segments have torn tails (the daemon truncates them on next start)", torn, len(scans))
	}
	fmt.Printf("ok: %d segments, all record frames intact\n", len(scans))
	return nil
}

// walReplay folds the log into cascades exactly as daemon recovery
// does, by making recovery's call: every record goes to a fresh store,
// whose duplicate guard drops the later copies of a (cascade, node)
// pair — e.g. a compaction snapshot overlapping subsequent appends.
func walReplay(dir, out string) error {
	store := serve.NewStore()
	if _, err := wal.ScanDir(dir, func(_ wal.Cursor, ev wal.Event) error {
		store.Append(ev, math.MaxInt) //nolint:errcheck // a reject is a replayed duplicate, as in Server.openWAL
		return nil
	}); err != nil {
		return err
	}
	events := store.AllEvents() // cascades ascending by id, each run in store order
	var cs []*cascade.Cascade
	for _, ev := range events {
		if len(cs) == 0 || cs[len(cs)-1].ID != ev.Cascade {
			cs = append(cs, &cascade.Cascade{ID: ev.Cascade})
		}
		c := cs[len(cs)-1]
		c.Infections = append(c.Infections, cascade.Infection{Node: ev.Node, Time: ev.Time})
	}
	dst := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := cascade.Write(dst, cs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "replayed %d cascades (%d infections) from %s\n",
		len(cs), len(events), dir)
	return nil
}
