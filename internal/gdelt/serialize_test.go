package gdelt

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestSitesRoundtrip(t *testing.T) {
	sites := []Site{
		{ID: 0, Name: "news00000.us", Region: 0, Popularity: 1.5},
		{ID: 1, Name: "news00001.au", Region: 1, Popularity: 42.25},
	}
	var buf bytes.Buffer
	if err := WriteSites(&buf, sites); err != nil {
		t.Fatal(err)
	}
	got := readSites(t, buf.String())
	if len(got) != 2 {
		t.Fatalf("got %d sites", len(got))
	}
	for i := range sites {
		if got[i] != sites[i] {
			t.Fatalf("site %d: %+v != %+v", i, got[i], sites[i])
		}
	}
}

func TestWriteSitesRejectsCommaNames(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSites(&buf, []Site{{ID: 0, Name: "a,b", Region: 0, Popularity: 1}})
	if err == nil {
		t.Fatal("comma name accepted")
	}
}

// readSites parses WriteSites's table back: a header line, then one
// id,name,region,popularity row per site.
func readSites(t *testing.T, table string) []Site {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(table, "\n"), "\n")
	if lines[0] != "id,name,region,popularity" {
		t.Fatalf("header %q", lines[0])
	}
	var sites []Site
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if len(f) != 4 {
			t.Fatalf("row %q has %d fields", line, len(f))
		}
		id, err1 := strconv.Atoi(f[0])
		region, err2 := strconv.Atoi(f[2])
		pop, err3 := strconv.ParseFloat(f[3], 64)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		sites = append(sites, Site{ID: id, Name: f[1], Region: region, Popularity: pop})
	}
	return sites
}
