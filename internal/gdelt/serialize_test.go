package gdelt

import (
	"bytes"
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
	got, err := ReadSites(&buf)
	if err != nil {
		t.Fatal(err)
	}
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

func TestReadSitesErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "x\n",
		"no rows":      "id,name,region,popularity\n",
		"field count":  "id,name,region,popularity\n0,a,0\n",
		"id gap":       "id,name,region,popularity\n1,a,0,1\n",
		"bad region":   "id,name,region,popularity\n0,a,x,1\n",
		"bad pop":      "id,name,region,popularity\n0,a,0,x\n",
		"negative pop": "id,name,region,popularity\n0,a,0,-2\n",
	}
	for name, in := range cases {
		if _, err := ReadSites(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
