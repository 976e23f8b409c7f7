package gdelt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"viralcast/internal/cascade"
)

// WriteSites encodes the site table as CSV:
//
//	id,name,region,popularity
//
// Read it back with ReadSites.
func WriteSites(w io.Writer, sites []Site) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "id,name,region,popularity"); err != nil {
		return err
	}
	for _, s := range sites {
		if strings.Contains(s.Name, ",") {
			return fmt.Errorf("gdelt: site name %q contains a comma", s.Name)
		}
		if _, err := fmt.Fprintf(bw, "%d,%s,%d,%s\n", s.ID, s.Name, s.Region,
			strconv.FormatFloat(s.Popularity, 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSites decodes the format produced by WriteSites. Sites must appear
// in id order starting at 0 (the generator's layout); gaps are an error.
func ReadSites(r io.Reader) ([]Site, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("gdelt: empty sites file")
	}
	if got := strings.TrimSpace(sc.Text()); got != "id,name,region,popularity" {
		return nil, fmt.Errorf("gdelt: bad sites header %q", got)
	}
	var sites []Site
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("gdelt: sites line %d has %d fields", lineNo, len(parts))
		}
		id, err := strconv.Atoi(parts[0])
		if err != nil || id != len(sites) {
			return nil, fmt.Errorf("gdelt: sites line %d: id %q out of order", lineNo, parts[0])
		}
		region, err := strconv.Atoi(parts[2])
		if err != nil || region < 0 {
			return nil, fmt.Errorf("gdelt: sites line %d: bad region %q", lineNo, parts[2])
		}
		pop, err := strconv.ParseFloat(parts[3], 64)
		if err != nil || pop < 0 {
			return nil, fmt.Errorf("gdelt: sites line %d: bad popularity %q", lineNo, parts[3])
		}
		sites = append(sites, Site{ID: id, Name: parts[1], Region: region, Popularity: pop})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sites) == 0 {
		return nil, fmt.Errorf("gdelt: sites file has no rows")
	}
	return sites, nil
}

// WriteEvents encodes the event mentions in the cascade text format
// (eventID,site,hours).
func WriteEvents(w io.Writer, events []*cascade.Cascade) error {
	return cascade.Write(w, events)
}

// ReadEvents decodes WriteEvents output.
func ReadEvents(r io.Reader) ([]*cascade.Cascade, error) {
	return cascade.Read(r)
}

// Export writes the dataset's two tables to the given writers (sites
// and events). The planted truth and graph are generator internals and
// are deliberately not exported — a real corpus would not have them.
func (ds *Dataset) Export(sitesW, eventsW io.Writer) error {
	if err := WriteSites(sitesW, ds.Sites); err != nil {
		return err
	}
	return WriteEvents(eventsW, ds.Events)
}
