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

// WriteEvents encodes the event mentions in the cascade text format
// (eventID,site,hours); cascade.Read reads them back.
func WriteEvents(w io.Writer, events []*cascade.Cascade) error {
	return cascade.Write(w, events)
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
